"""End-to-end acceptance checks, one numbered test per release criterion.

Each test prints a single summary line; run with -v to see one pass/fail
line per criterion.  These intentionally re-derive everything through the
public API only.
"""

import numpy as np
import pytest

from combmemory import (
    MemoryParams,
    apply_cascade,
    cluster_linear4,
    covariance_map,
    efficiency,
    epr,
    frequency_response,
    gaussian_fidelity,
    gram_schmidt,
    kernel,
    pde_write,
    pulse_capacity,
    purity,
    report_from_block,
    retrieval_table,
    supermode_extraction,
    apply_mode_unitary,
    transfer_function_estimate,
    unitary_mix,
    write_analytic,
    CovarianceMatrix,
)
from support import random_pure_state, random_unitary

GAMMA_S = 2.0 * np.pi * 18e3


def rotated_block(zeta, theta):
    c, s = np.cos(theta), np.sin(theta)
    R = np.array([[c, -s], [s, c]])
    return CovarianceMatrix(R @ np.diag([1.0 / zeta, zeta]) @ R.T)


def random_basis(M, teeth, rng):
    G = rng.normal(size=(M, teeth)) + 1j * rng.normal(size=(M, teeth))
    return gram_schmidt(G)


class TestAcceptance:
    def test_01_efficiency_formula(self):
        assert efficiency(4.0) == pytest.approx(0.963705, abs=1e-6)
        worst = 0.0
        for d in np.linspace(1e-3, 30.0, 600):
            p = MemoryParams(d=d, gamma_s=GAMMA_S, T=1e-3)
            worst = max(worst, abs(efficiency(d) - abs(kernel(p, 0.0)) ** 2))
        assert worst < 1e-12
        print(f"criterion 1: PASS  eta(4)={efficiency(4.0):.6f}, "
              f"identity residual {worst:.2e}")

    def test_02_kernel_flatness(self):
        p = MemoryParams(d=4.0, gamma_s=GAMMA_S, T=1e-3)
        r = frequency_response(p, 0.1 * GAMMA_S, 2001)
        assert r.flatness <= 0.002
        assert r.flatness == pytest.approx(0.00157, abs=1e-4)
        print(f"criterion 2: PASS  flatness {r.flatness:.6f} <= 0.002")

    def test_03_march_vs_kernel_quadrature(self):
        # two independent routes to b(z, T) agree and converge at 2nd order
        p = MemoryParams(d=4.0, gamma_s=GAMMA_S, T=10.0 / GAMMA_S)

        def l2(n):
            a = np.ones(n, dtype=complex)
            prof = write_analytic(a, p, n)
            run = pde_write(a, p, n, n)
            return float(
                np.linalg.norm(run.profile.b_T - prof.b_T) / np.linalg.norm(prof.b_T)
            )

        fine = l2(2000)
        coarse = l2(1000)
        assert fine <= 1e-3
        assert coarse / fine >= 3.0
        print(f"criterion 3: PASS  L2 {fine:.3e} at n=2000, "
              f"refinement gain {coarse / fine:.2f}x")

    def test_04_end_to_end_transfer(self):
        p = MemoryParams(d=4.0, gamma_s=GAMMA_S, T=10.0 / GAMMA_S)
        w1 = 0.1 * GAMMA_S
        g0, g1 = transfer_function_estimate(p, [0.0, w1])
        K0 = abs(kernel(p, 0.0))
        mag_err = abs(abs(g0) - K0) / K0
        ratio_err = abs(abs(g1 / g0) - abs(kernel(p, w1)) / K0) / (abs(kernel(p, w1)) / K0)
        assert mag_err <= 5e-3
        assert ratio_err <= 1e-3
        print(f"criterion 4: PASS  |gain(0)| err {mag_err:.2e} (<=0.5%), "
              f"ratio err {ratio_err:.2e} (<=0.1%)")

    def test_05_fidelity_cross_oracle(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(200):
            zeta = float(np.exp(-2.0 * rng.uniform(0.0, 1.5)))
            theta = float(rng.uniform(0.0, np.pi))
            eta = float(rng.uniform(0.0, 1.0))
            C = rotated_block(zeta, theta)
            closed = report_from_block(C, eta).fidelity
            oracle = gaussian_fidelity(C, covariance_map(C, eta))
            worst = max(worst, abs(closed - oracle))
        assert worst < 1e-9
        worked = report_from_block(
            np.diag([10.0 ** 0.6, 10.0 ** -0.6]), efficiency(4.0)
        ).fidelity
        assert worked == pytest.approx(0.98069, abs=1e-5)
        print(f"criterion 5: PASS  max |closed - oracle| {worst:.2e}, "
              f"F(-6dB, d=4) = {worked:.6f}")

    def test_06_purity_identity(self):
        rng = np.random.default_rng(2025)
        worst_p = worst_det = 0.0
        for _ in range(200):
            r = float(rng.uniform(0.0, 1.5))
            theta = float(rng.uniform(0.0, np.pi))
            eta = float(rng.uniform(0.0, 1.0))
            C = rotated_block(float(np.exp(-2.0 * r)), theta)
            closed = report_from_block(C, eta).purity_out
            mapped = covariance_map(C, eta)
            worst_p = max(worst_p, abs(closed - purity(mapped)))
            det = float(np.linalg.det(mapped.entries))
            target = 1.0 + 4.0 * eta * (1.0 - eta) * np.sinh(r) ** 2
            worst_det = max(worst_det, abs(det - target))
        assert worst_p < 1e-10
        assert worst_det < 1e-12
        print(f"criterion 6: PASS  purity residual {worst_p:.2e}, "
              f"determinant residual {worst_det:.2e}")

    def test_07_pump_basis_independence(self):
        rng = np.random.default_rng(7)
        eta = efficiency(4.0)
        states = [epr(), cluster_linear4()] + [
            random_pure_state(int(rng.integers(1, 7)), rng) for _ in range(8)
        ]
        remixes = 0
        worst = 0.0
        for C in states:
            M = C.mode_count
            basis = random_basis(M, M + 4, rng)
            ref = apply_cascade(C, basis, basis, eta)
            for _ in range(5):
                pumps = unitary_mix(basis, random_unitary(M, rng))
                out = apply_cascade(C, basis, pumps, eta)
                worst = max(worst, float(np.linalg.norm(out.entries - ref.entries)))
                remixes += 1
        assert remixes == 50
        assert worst < 1e-10
        print(f"criterion 7: PASS  {remixes} remixes, worst Frobenius {worst:.2e}")

    def test_08_supermode_round_trip(self):
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(50):
            M = int(rng.integers(1, 7))
            C = random_pure_state(M, rng)
            basis, spectrum, _ = supermode_extraction(C)
            V = basis.matrix
            target = np.zeros((2 * M, 2 * M))
            for m, z in enumerate(spectrum.values):
                target[2 * m: 2 * m + 2, 2 * m: 2 * m + 2] = np.diag([1.0 / z, z])
            back = apply_mode_unitary(CovarianceMatrix(target), V.conj().T)
            worst = max(worst, float(np.linalg.norm(back.entries - C.entries)))
        assert worst < 1e-8
        print(f"criterion 8: PASS  50 round trips, worst Frobenius {worst:.2e}")

    def test_09_pulse_capacity(self):
        n = pulse_capacity(1e-3, 80e6)
        assert n == 80000
        print(f"criterion 9: PASS  capacity(1 ms, 80 MHz) = {n}")

    def test_10_monotonicity(self):
        # more input squeezing -> harder to keep
        dbs = np.linspace(-10.0, -0.25, 40)
        fids = [r.fidelity for r in retrieval_table(dbs, 4.0)]
        assert np.all(np.diff(fids) > 0)
        # deeper memory -> better for every level
        depths = np.linspace(0.25, 30.0, 60)
        for db in (-10.0, -6.0, -3.0, -1.0):
            curve = [retrieval_table([db], d)[0].fidelity for d in depths]
            assert np.all(np.diff(curve) > 0)
        # retrieved squeezing never beats the input
        worst = 0.0
        for db in dbs:
            z_in = 10.0 ** (db / 10.0)
            for d in depths:
                z_out = report_from_block(np.diag([1.0 / z_in, z_in]), efficiency(d)).zeta_out
                worst = min(worst, z_out - z_in)
        assert worst >= 0.0
        print("criterion 10: PASS  fidelity monotone in squeezing and depth, "
              "zeta_out >= zeta_in")
