import tracemalloc

import numpy as np
import pytest

from combmemory import (
    CovarianceMatrix,
    DimensionError,
    KernelResponse,
    MemoryParams,
    ModeBasis,
    PhysicalParams,
    PhysicsError,
    SqueezingSpectrum,
    apply_cascade,
    covariance_map,
    derive_gamma_s,
    efficiency,
    frequency_response,
    gram_schmidt,
    kernel,
    pulse_capacity,
    squeezed_vacuum,
    unitary_mix,
    vacuum,
)
from support import random_pure_state, random_unitary

TWO_PI = 2.0 * np.pi
GAMMA_S = TWO_PI * 18e3


def params_for(d, T=1e-3, **kw):
    return MemoryParams(d=d, gamma_s=GAMMA_S, T=T, **kw)


class TestMemoryParams:
    def test_alpha_derived(self):
        p = params_for(4.0, T=1e-3)
        assert p.alpha == pytest.approx(4.0 * GAMMA_S * 1e-3)

    def test_alpha_consistency_check(self):
        with pytest.raises(PhysicsError, match="inconsistent"):
            MemoryParams(d=4.0, gamma_s=GAMMA_S, T=1e-3, alpha=1.0)

    def test_rejects_negative_depth(self):
        with pytest.raises(PhysicsError, match="optical depth"):
            params_for(-0.1)

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(PhysicsError):
            MemoryParams(d=4.0, gamma_s=0.0, T=1e-3)
        with pytest.raises(PhysicsError):
            MemoryParams(d=4.0, gamma_s=GAMMA_S, T=0.0)
        with pytest.raises(PhysicsError):
            params_for(4.0, rep_rate=-80e6)

    @pytest.mark.parametrize("key", ["d", "gamma_s", "T", "rep_rate"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_rejects_non_finite_values(self, key, value):
        kw = dict(d=4.0, gamma_s=GAMMA_S, T=1e-3, rep_rate=80e6)
        kw[key] = value
        with pytest.raises(PhysicsError, match=f"{key} must be finite"):
            MemoryParams(**kw)


class TestPhysicalParams:
    def test_induced_rate_from_dispersive_ratio(self):
        p = PhysicalParams(
            Delta=TWO_PI * 9e12, gamma=TWO_PI * 20e6, Omega_p=TWO_PI * 0.27e12
        )
        assert derive_gamma_s(p) == pytest.approx(TWO_PI * 18e3, rel=1e-12)

    def test_marginal_dispersive_ratio_warns(self):
        with pytest.warns(UserWarning, match="adiabatic"):
            PhysicalParams(Delta=1.0, gamma=1.0, Omega_p=0.5)

    def test_zero_detuning_rejected(self):
        with pytest.raises(PhysicsError, match="detuning"):
            PhysicalParams(Delta=0.0, gamma=1.0, Omega_p=0.1)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan])
    def test_nonpositive_gamma_rejected(self, gamma):
        with pytest.raises(PhysicsError, match="gamma must be positive"):
            PhysicalParams(Delta=1.0, gamma=gamma, Omega_p=0.01)

    def test_negative_pump_rejected(self):
        with pytest.raises(PhysicsError, match="Omega_p must be >= 0"):
            PhysicalParams(Delta=1.0, gamma=1.0, Omega_p=-0.01)


class TestKernel:
    def test_dc_value(self):
        K0 = kernel(params_for(4.0), 0.0)
        assert K0 == pytest.approx(0.9816843611112658, abs=1e-15)
        assert K0.imag == 0.0

    def test_efficiency_value(self):
        assert efficiency(4.0) == pytest.approx(0.9637041848504341, abs=1e-15)

    def test_efficiency_is_squared_dc_kernel(self):
        for d in np.linspace(0.01, 30.0, 60):
            K0 = kernel(params_for(d), 0.0)
            assert abs(efficiency(d) - abs(K0) ** 2) < 1e-12

    def test_zero_depth_stores_nothing(self):
        assert kernel(params_for(0.0), 0.0) == 0.0
        assert efficiency(0.0) == 0.0

    def test_negative_depth_rejected(self):
        with pytest.raises(PhysicsError):
            efficiency(-1.0)

    def test_array_input(self):
        w = np.array([0.0, 0.05, -0.05]) * GAMMA_S
        K = kernel(params_for(4.0), w)
        assert K.shape == (3,)
        assert K[1] == np.conj(K[2])  # real impulse response

    def test_gain_bounded_in_narrow_band(self):
        # |K| <= 1 holds across moderate depths as long as the band stays
        # well inside gamma_s
        for d in (0.5, 1.0, 4.0, 10.0, 15.0):
            w = np.linspace(-0.1, 0.1, 401) * GAMMA_S
            K = kernel(params_for(d), w)
            assert np.abs(K).max() <= 1.0 + 1e-12

    def test_gain_exceeds_unity_off_band(self):
        # not a passive filter once omega ~ gamma_s: a known overshoot point
        K = kernel(params_for(4.0), 0.63 * GAMMA_S)
        assert abs(K) == pytest.approx(1.0147, abs=2e-4)
        assert abs(K) > 1.0


class TestFrequencyResponse:
    def test_flatness_value(self):
        r = frequency_response(params_for(4.0), 0.1 * GAMMA_S, 201)
        assert r.flatness == pytest.approx(0.0015541605946012282, rel=1e-12)
        assert r.narrowband

    def test_wide_band_not_flat(self):
        r = frequency_response(params_for(4.0), GAMMA_S, 201)
        assert not r.narrowband

    def test_zero_band_collapses_to_dc(self):
        r = frequency_response(params_for(4.0), 0.0, 201)
        assert r.frequencies.shape == (1,)
        assert r.frequencies[0] == 0.0
        assert r.flatness == 0.0

    def test_grid_is_symmetric(self):
        r = frequency_response(params_for(4.0), 0.1 * GAMMA_S, 11)
        assert np.allclose(r.frequencies, -r.frequencies[::-1])

    def test_bad_grid_rejected(self):
        with pytest.raises(PhysicsError):
            frequency_response(params_for(4.0), 0.1 * GAMMA_S, 1)
        with pytest.raises(PhysicsError):
            frequency_response(params_for(4.0), -1.0, 201)

    @pytest.mark.parametrize("frequencies, values", [
        (np.zeros(3), np.zeros(2)),
        (np.zeros((2, 2)), np.zeros((2, 2))),
    ], ids=["length-mismatch", "2-d"])
    def test_mismatched_response_rejected(self, frequencies, values):
        with pytest.raises(DimensionError, match="equal 1-d arrays"):
            KernelResponse(frequencies, values, 0.0)


class TestCovarianceMap:
    def test_vacuum_fixed_point(self):
        C = covariance_map(vacuum(3), 0.7)
        assert np.abs(C.entries - np.eye(6)).max() < 1e-15

    def test_unit_transmission_is_identity_map(self):
        C_in = random_pure_state(2, np.random.default_rng(5))
        C = covariance_map(C_in, 1.0)
        assert np.abs(C.entries - C_in.entries).max() < 1e-15

    def test_squeezing_degrades_toward_vacuum(self):
        eta = efficiency(4.0)
        C = covariance_map(squeezed_vacuum(SqueezingSpectrum((10 ** -0.6,))), eta)
        assert C.entries[1, 1] == pytest.approx(0.2783673617410465, abs=1e-15)

    def test_k2_fuzz_clamped_with_warning(self):
        C_in = vacuum(1)
        with pytest.warns(UserWarning, match="clamped"):
            covariance_map(C_in, 1.0 + 1e-13)
        with pytest.warns(UserWarning, match="clamped"):
            covariance_map(C_in, -1e-13)

    def test_k2_out_of_range_rejected(self):
        with pytest.raises(PhysicsError, match="outside"):
            covariance_map(vacuum(1), 1.01)
        with pytest.raises(PhysicsError, match="outside"):
            covariance_map(vacuum(1), -0.01)


class TestApplyCascade:
    def _bases(self, M, teeth, rng):
        G = rng.normal(size=(M, teeth)) + 1j * rng.normal(size=(M, teeth))
        return gram_schmidt(G)

    def test_matches_direct_map(self):
        rng = np.random.default_rng(14)
        supermodes = self._bases(3, 8, rng)
        C_in = random_pure_state(3, rng)
        eta = efficiency(4.0)
        out = apply_cascade(C_in, supermodes, supermodes, eta)
        ref = covariance_map(C_in, eta)
        assert np.abs(out.entries - ref.entries).max() < 1e-10

    def test_basis_independent_over_remixes(self):
        # any unitary remix of the pump set retrieves the same state
        rng = np.random.default_rng(15)
        supermodes = self._bases(3, 10, rng)
        C_in = random_pure_state(3, rng)
        eta = efficiency(4.0)
        ref = apply_cascade(C_in, supermodes, supermodes, eta)
        for _ in range(50):
            pumps = unitary_mix(supermodes, random_unitary(3, rng))
            out = apply_cascade(C_in, supermodes, pumps, eta)
            assert np.abs(out.entries - ref.entries).max() < 1e-10

    def test_span_defect_rejected(self):
        rng = np.random.default_rng(16)
        supermodes = self._bases(2, 6, rng)
        other = self._bases(2, 6, np.random.default_rng(99))
        with pytest.raises(PhysicsError, match="span"):
            apply_cascade(random_pure_state(2, rng), supermodes, other, 0.9)

    def test_first_order_span_leak_rejected(self):
        # one pump rotated out of the span by eps = 1e-6 leaks ~eps of amplitude;
        # a check on the M x M overlaps alone (|H^H H - I| ~ eps^2) would pass it
        rng = np.random.default_rng(19)
        G = rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6))
        full = gram_schmidt(G).matrix
        supermodes = ModeBasis(full[:2])
        eps = 1e-6
        A = supermodes.matrix.copy()
        A[0] = np.cos(eps) * A[0] + np.sin(eps) * full[2]
        with pytest.raises(PhysicsError, match="span"):
            apply_cascade(random_pure_state(2, rng), supermodes, ModeBasis(A), 0.9)

    def test_pump_count_mismatch_rejected(self):
        rng = np.random.default_rng(20)
        full = self._bases(3, 8, rng)
        two = ModeBasis(full.matrix[:2])
        with pytest.raises(DimensionError, match="pump basis"):
            apply_cascade(random_pure_state(2, rng), two, full, 0.9)
        with pytest.raises(DimensionError, match="pump basis"):
            apply_cascade(random_pure_state(3, rng), full, two, 0.9)

    def test_memory_independent_of_teeth_squared(self):
        # at 2048 teeth a teeth x teeth complex projector alone takes 64 MiB;
        # the supermode-frame cascade keeps only M x teeth and M x M arrays
        M, teeth = 2, 2048
        supermodes = ModeBasis(np.eye(M, teeth, dtype=complex))
        pumps = unitary_mix(supermodes, random_unitary(M, np.random.default_rng(21)))
        C_in = random_pure_state(M, np.random.default_rng(22))
        tracemalloc.start()
        try:
            out = apply_cascade(C_in, supermodes, pumps, 0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert np.abs(out.entries - covariance_map(C_in, 0.9).entries).max() < 1e-10

    def test_mode_count_mismatch_rejected(self):
        rng = np.random.default_rng(17)
        supermodes = self._bases(3, 8, rng)
        with pytest.raises(DimensionError, match="supermode basis"):
            apply_cascade(random_pure_state(2, rng), supermodes, supermodes, 0.9)

    def test_tooth_range_mismatch_rejected(self):
        rng = np.random.default_rng(18)
        supermodes = self._bases(2, 6, rng)
        pumps = self._bases(2, 7, rng)
        with pytest.raises(DimensionError, match="tooth ranges"):
            apply_cascade(random_pure_state(2, rng), supermodes, pumps, 0.9)

    def test_tooth_offset_mismatch_rejected(self):
        # signal on teeth [0, 3), pumps on [1, 4): same length, different teeth
        supermodes = gram_schmidt([[1.0, 0.0, 0.0]])
        pumps = gram_schmidt([[1.0, 0.0, 0.0]], tooth_offset=1)
        with pytest.raises(DimensionError, match="tooth ranges"):
            apply_cascade(squeezed_vacuum([0.5]), supermodes, pumps, 0.9)


class TestPulseCapacity:
    def test_comb_count(self):
        assert pulse_capacity(1e-3, 80e6) == 80000

    def test_rounds_to_nearest(self):
        assert pulse_capacity(1.00001e-3, 80e6) == 80001
        assert pulse_capacity(0.99999e-3, 80e6) == 79999

    def test_zero_window(self):
        assert pulse_capacity(0.0, 80e6) == 0

    def test_validation(self):
        with pytest.raises(PhysicsError):
            pulse_capacity(-1.0, 80e6)
        with pytest.raises(PhysicsError):
            pulse_capacity(1e-3, 0.0)

    def test_overflowing_count(self):
        # 1e307 s at 80 MHz is finite on each side, but the product is inf:
        # int(round(inf)) raised OverflowError
        with pytest.raises(PhysicsError, match="not finite"):
            pulse_capacity(1e307, 80e6)
