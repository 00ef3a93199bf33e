import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from combmemory import (
    CovarianceMatrix,
    DimensionError,
    PhysicsError,
    SqueezingSpectrum,
    SupermodeReport,
    covariance_map,
    db_to_zeta,
    efficiency,
    gaussian_fidelity,
    overall_fidelity,
    purity,
    report_from_block,
    retrieval_table,
    squeezed_vacuum,
    supermode_extraction,
    zeta_to_db,
)
from combmemory.metrics import _pure_retrieval, _squeezed_zeta
from combmemory.presets import cluster_linear4, epr
from support import random_pure_state

ETA4 = efficiency(4.0)


def pure_block(zeta, theta=0.0):
    c, s = np.cos(theta), np.sin(theta)
    R = np.array([[c, -s], [s, c]])
    return CovarianceMatrix(R @ np.diag([1.0 / zeta, zeta]) @ R.T)


class TestDecibelConversions:
    def test_round_trip(self):
        for db in (-10.0, -6.0, -3.0, 0.0, 2.5):
            assert zeta_to_db(db_to_zeta(db)) == pytest.approx(db, abs=1e-12)

    def test_minus_six_db(self):
        assert db_to_zeta(-6.0) == pytest.approx(10.0 ** -0.6, abs=1e-15)

    def test_nonpositive_variance_rejected(self):
        for zeta in (0.0, -1.0, float("nan"), np.float64("nan")):
            with pytest.raises(PhysicsError, match="positive"):
                zeta_to_db(zeta)

    def test_one_rule_bit_for_bit(self):
        # every dB -> variance conversion is the scalar power, level by level
        # (numpy's vectorized power rounds some levels differently in the last
        # bit), and every variance -> dB conversion is one np.log10
        levels = np.random.default_rng(28).uniform(-12.0, 12.0, 10_000)
        scalar = np.array([10.0 ** (x / 10.0) for x in levels])  # the channel state's rule
        assert np.array_equal(SqueezingSpectrum.from_db(levels).values, scalar)
        assert np.array_equal([db_to_zeta(x) for x in levels], scalar)
        assert np.array_equal(_squeezed_zeta(levels),
                              SqueezingSpectrum.from_db(-np.abs(levels)).values)
        back = zeta_to_db(scalar)
        assert isinstance(back, np.ndarray) and isinstance(zeta_to_db(scalar[0]), float)
        assert np.array_equal(back, [zeta_to_db(float(z)) for z in scalar])
        assert np.array_equal(SqueezingSpectrum(scalar).db, back)

    def test_overflowing_level_is_physics_error(self):
        with pytest.raises(PhysicsError, match="4000 dB overflows"):
            db_to_zeta(4000.0)
        with pytest.raises(PhysicsError, match="positive"):
            zeta_to_db([0.5, np.nan])


class TestClosedForms:
    def test_output_squeezing_value(self):
        got = _pure_retrieval(10.0 ** -0.6, ETA4)[0]
        assert got == pytest.approx(0.2783673617410465, abs=1e-15)

    def test_output_squeezing_limits(self):
        assert _pure_retrieval(0.5, 0.0)[0] == 1.0   # nothing retrieved: vacuum
        assert _pure_retrieval(0.5, 1.0)[0] == 0.5   # lossless: unchanged

    def test_purity_value(self):
        got = report_from_block(np.diag([4.0, 0.25]), ETA4).purity_out
        assert got == pytest.approx(0.9628294503360206, abs=1e-15)

    def test_purity_matches_general_route(self):
        # closed form against det of the mapped covariance
        rng = np.random.default_rng(3)
        for _ in range(200):
            zeta = float(np.exp(-2.0 * rng.uniform(0.0, 1.5)))
            theta = float(rng.uniform(0.0, np.pi))
            eta = float(rng.uniform(0.0, 1.0))
            C = pure_block(zeta, theta)
            got = report_from_block(C, eta).purity_out
            ref = purity(covariance_map(C, eta))
            assert abs(got - ref) < 1e-10

    def test_fidelity_value(self):
        got = report_from_block(np.diag([10.0 ** 0.6, 10.0 ** -0.6]), ETA4).fidelity
        assert got == pytest.approx(0.9806864506695876, abs=1e-10)

    def test_fidelity_matches_general_route(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            zeta = float(np.exp(-2.0 * rng.uniform(0.0, 1.5)))
            theta = float(rng.uniform(0.0, np.pi))
            eta = float(rng.uniform(0.0, 1.0))
            C = pure_block(zeta, theta)
            got = report_from_block(C, eta).fidelity
            ref = gaussian_fidelity(C, covariance_map(C, eta))
            assert abs(got - ref) < 1e-9

    def test_vacuum_is_a_fixed_point(self):
        r = report_from_block(np.eye(2), 0.37)
        assert r.fidelity == pytest.approx(1.0)
        assert r.purity_out == pytest.approx(1.0)

    def test_impure_block_rejected(self):
        # the closed forms need a pure block; the general oracles cover mixed ones
        with pytest.raises(PhysicsError, match="impure"):
            report_from_block(np.diag([2.0, 2.0]), 0.5)

    def test_bad_eta_rejected(self):
        with pytest.raises(PhysicsError, match="efficiency"):
            report_from_block(np.diag([4.0, 0.25]), 1.2)


class TestPureRetrieval:
    def test_broadcasts_modes_against_depths(self):
        zetas = np.array([0.1, 0.25, 0.5, 1.0])
        etas = np.array([0.0, 0.3, ETA4, 1.0])[:, None]
        got = _pure_retrieval(zetas, etas)
        assert [a.shape for a in got] == [(4, 4)] * 3
        for k, eta in enumerate(etas[:, 0]):
            for m, zeta in enumerate(zetas):
                scalar = _pure_retrieval(zeta, eta)
                assert [a[k, m] for a in got] == [float(s) for s in scalar]

    def test_matches_general_oracle_on_grid(self):
        for zeta in np.geomspace(0.01, 1.0, 9):
            C = pure_block(zeta)
            for eta in np.linspace(0.0, 1.0, 11):
                zeta_out, pur, fid = _pure_retrieval(zeta, eta)
                C_out = covariance_map(C, eta)
                assert abs(zeta_out - np.linalg.eigvalsh(C_out.entries)[0]) < 1e-10
                assert abs(pur - purity(C_out)) < 1e-10
                assert abs(fid - gaussian_fidelity(C, C_out)) < 1e-10

    @pytest.mark.parametrize("zeta, eta, message", [
        ([0.5, 0.5], [0.2, 1.5], r"efficiency must lie in \[0, 1\], got 1.5"),
        (0.5, np.nan, "efficiency must lie in"),
        ([0.5, 0.0], 0.5, "input variance must be positive"),
        (-1.0, 0.5, "input variance must be positive"),
    ])
    def test_invalid_inputs_rejected(self, zeta, eta, message):
        with pytest.raises(PhysicsError, match=message):
            _pure_retrieval(zeta, eta)


class TestReportFromBlock:
    def test_pure_block_uses_closed_forms(self):
        r = report_from_block(np.diag([10.0 ** 0.6, 10.0 ** -0.6]), ETA4)
        assert r.zeta_in == pytest.approx(10.0 ** -0.6, abs=1e-14)
        assert r.zeta_out == pytest.approx(0.2783673617410465, abs=1e-14)
        assert r.fidelity == pytest.approx(0.9806864506695876, abs=1e-10)
        assert r.zeta_out_db == pytest.approx(zeta_to_db(r.zeta_out))

    def test_rotated_block_matches_axis_aligned(self):
        # rotation invariance: only Tr C enters the closed forms
        r0 = report_from_block(pure_block(0.3), ETA4)
        r1 = report_from_block(pure_block(0.3, theta=0.7), ETA4)
        assert r1.fidelity == pytest.approx(r0.fidelity, abs=1e-12)
        assert r1.purity_out == pytest.approx(r0.purity_out, abs=1e-12)
        assert r1.zeta_in == pytest.approx(r0.zeta_in, abs=1e-12)

    def test_multimode_block_rejected(self):
        with pytest.raises(DimensionError, match="single-mode"):
            report_from_block(np.eye(4), ETA4)

    def test_report_rejects_nonpositive_variances(self):
        for zeta_in, zeta_out in ((0.0, 0.5), (0.5, -1.0), (float("nan"), 0.5),
                                  (0.5, float("nan")), (np.nan, np.nan)):
            with pytest.raises(PhysicsError, match="positive"):
                SupermodeReport(0, zeta_in, zeta_out, 0.9, 0.9)


class TestOverallFidelity:
    def test_product_and_vector(self):
        reports = retrieval_table([-6.0, -3.0], 4.0)
        total, vec = overall_fidelity(reports)
        assert vec.shape == (2,)
        assert total == pytest.approx(vec[0] * vec[1], rel=1e-15)

    def test_ten_equal_modes(self):
        reports = [
            report_from_block(np.diag([1.0 / z, z]), eta)
            for z, eta in [(0.5, 0.9)] * 10
        ]
        total, vec = overall_fidelity(reports)
        assert total == pytest.approx(vec[0] ** 10, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            overall_fidelity([])


class TestRetrievalTable:
    def test_no_squeezing_passes_through(self):
        (r,) = retrieval_table([0.0], 4.0)
        assert (r.zeta_in, r.zeta_out, r.purity_out, r.fidelity) == (1.0, 1.0, 1.0, 1.0)

    def test_weaker_squeezing_survives_better(self):
        reports = retrieval_table([-6.0, -3.0, -1.0], 4.0)
        fids = [r.fidelity for r in reports]
        purs = [r.purity_out for r in reports]
        assert fids == sorted(fids)
        assert purs == sorted(purs)

    def test_deep_memory_is_nearly_transparent(self):
        reports = retrieval_table([-10.0, -6.0, -3.0], 50.0)
        assert all(r.fidelity >= 1.0 - 1e-3 for r in reports)
        assert all(r.purity_out >= 1.0 - 1e-3 for r in reports)

    def test_matches_block_route(self):
        # a positive level names the same mode as its negative: the squeezed
        # quadrature of diag(1/z, z) is min(z, 1/z)
        for db in (-6.0, -4.5, -1.0, 2.5):
            (r,) = retrieval_table([db], 4.0)
            z = db_to_zeta(db)
            ref = report_from_block(np.diag([1.0 / z, z]), ETA4)
            assert r.fidelity == pytest.approx(ref.fidelity, abs=1e-14)
            assert r.purity_out == pytest.approx(ref.purity_out, abs=1e-14)
            assert r.zeta_out == pytest.approx(ref.zeta_out, abs=1e-14)

    def test_indices_follow_input_order(self):
        reports = retrieval_table([-1.0, -2.0, -3.0], 4.0)
        assert [r.index for r in reports] == [0, 1, 2]

    def test_validation(self):
        with pytest.raises(DimensionError):
            retrieval_table([], 4.0)
        with pytest.raises(PhysicsError):
            retrieval_table([-6.0], 0.0)


def oracle_fidelity(C_in, d):
    """F = 2^M / sqrt(det(C_in + C_out)) of a pure input and its retrieved state,
    C_out = (1 - eta) I + eta C_in, by slogdet in the tooth basis."""
    C_out = covariance_map(C_in, efficiency(d))
    sign, logdet = np.linalg.slogdet(C_in.entries + C_out.entries)
    assert sign > 0
    return float(np.exp(C_in.mode_count * np.log(2.0) - 0.5 * logdet))


def extracted_fidelity(C_in, d):
    """The overall fidelity the metrics route reports for the extracted spectrum."""
    _, spectrum, _ = supermode_extraction(C_in)
    return overall_fidelity(retrieval_table([zeta_to_db(z) for z in spectrum.values], d))[0]


class TestMultimodeFidelityOracle:
    """The per-supermode closed forms against the whole-state Gaussian fidelity.

    For a pure input the fidelity of two zero-mean states (vacuum = I) is
    1 / sqrt(det((C_in + C_out) / 2)), computed on the full 2M x 2M matrices
    before any supermode extraction.
    """

    @pytest.mark.parametrize("name, state", [
        ("demo", lambda: squeezed_vacuum(SqueezingSpectrum(
            [10.0 ** (db / 10.0) for db in (-6, -5, -4, -3, -2, -1)]))),
        ("epr", epr),
        ("cluster-linear-4", cluster_linear4),
    ])
    def test_shipped_states(self, name, state):
        C = state()
        assert extracted_fidelity(C, 4.0) == pytest.approx(oracle_fidelity(C, 4.0), rel=1e-10)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(M=st.integers(1, 128), db_min=st.floats(-20.0, -0.1), d=st.floats(0.1, 30.0),
           seed=st.integers(0, 2**32 - 1))
    @example(M=128, db_min=-20.0, d=0.1, seed=1)
    @example(M=128, db_min=-20.0, d=4.0, seed=2)
    def test_random_pure_states(self, M, db_min, d, seed):
        # squeezing parameters r up to that of db_min, under a Haar mode unitary
        C = random_pure_state(M, np.random.default_rng(seed), r_max=-db_min * np.log(10.0) / 20.0)
        assert extracted_fidelity(C, d) == pytest.approx(oracle_fidelity(C, d), rel=1e-10)


class TestMonotonicity:
    def test_fidelity_increases_with_depth(self):
        fids = [retrieval_table([-6.0], d)[0].fidelity for d in np.linspace(0.5, 30, 40)]
        assert np.all(np.diff(fids) > 0)

    def test_output_squeezing_weakens_with_loss(self):
        zetas = _pure_retrieval(0.25, np.linspace(0.0, 1.0, 21))[0]
        assert np.all(np.diff(zetas) < 0)  # toward the input as eta -> 1
        assert zetas[0] == 1.0
