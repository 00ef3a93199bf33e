import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from combmemory import (
    CovarianceMatrix,
    DimensionError,
    ModeBasis,
    PhysicsError,
    SqueezingSpectrum,
    apply_cascade,
    apply_mode_unitary,
    covariance_map,
    gaussian_fidelity,
    purity,
    squeezed_vacuum,
    squeezing_spectrum,
    supermode_extraction,
    symplectic_eigenvalues,
    symplectic_embedding,
    symplectic_form,
    unitary_mix,
    vacuum,
)
from combmemory import gaussian
from support import random_pure_state, random_unitary


class TestCovarianceMatrix:
    def test_vacuum_is_identity(self):
        C = vacuum(3)
        assert np.array_equal(C.entries, np.eye(6))
        assert C.mode_count == 3
        assert purity(C) == pytest.approx(1.0)

    def test_vacuum_needs_a_mode(self):
        with pytest.raises(PhysicsError, match="mode count must be >= 1"):
            vacuum(0)

    def test_rejects_odd_dimension(self):
        with pytest.raises(DimensionError):
            CovarianceMatrix(np.eye(3))

    def test_rejects_asymmetric(self):
        M = np.eye(2)
        M[0, 1] = 0.5
        with pytest.raises(PhysicsError, match="symmetric"):
            CovarianceMatrix(M)

    def test_rejects_unphysical(self):
        # both quadratures below shot noise violates the uncertainty bound
        with pytest.raises(PhysicsError, match="uncertainty|physical"):
            CovarianceMatrix(np.diag([0.5, 0.5]))

    def test_symmetrizes_float_noise(self):
        M = np.eye(2)
        M[0, 1] = 1e-14
        C = CovarianceMatrix(M)
        assert C.entries[0, 1] == C.entries[1, 0]

    def test_block_view(self):
        C = squeezed_vacuum(SqueezingSpectrum((0.5, 0.25)))
        assert np.allclose(C.block(1), np.diag([4.0, 0.25]))

    def test_json_round_trip(self):
        C = squeezed_vacuum(SqueezingSpectrum((0.5,)), angles=(0.3,))
        again = CovarianceMatrix.from_json(C.to_json())
        assert np.abs(again.entries - C.entries).max() < 1e-15

    @pytest.mark.parametrize("obj", [
        {"mode_count": 1},
        {"rows": [["a", 0], [0, 1]]},
        {"rows": [[1, 0], [0]]},
        {"mode_count": "one", "rows": [[1, 0], [0, 1]]},
        {"rows": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
        {"mode_count": 2, "rows": [[1, 0], [0, 1]]},
    ], ids=["no-rows", "non-numeric", "ragged", "mode-count", "odd-size",
            "mode-count-mismatch"])
    def test_malformed_json_is_dimension_error(self, obj):
        # the CLI, which reads the file, decides that a malformed one exits 2
        with pytest.raises(DimensionError, match="covariance JSON"):
            CovarianceMatrix.from_json(obj)

    def test_unphysical_json_is_physics_error(self):
        with pytest.raises(PhysicsError, match="unphysical"):
            CovarianceMatrix.from_json({"rows": [[0.5, 0.0], [0.0, 0.5]]})


class TestSymplectic:
    def test_form_squares_to_minus_identity(self):
        Om = symplectic_form(4)
        assert np.array_equal(Om @ Om, -np.eye(8))

    @pytest.mark.parametrize("M", [1, 8, 128])
    def test_form_is_direct_sum_of_blocks(self, M):
        assert np.array_equal(symplectic_form(M), np.kron(np.eye(M), [[0.0, 1.0], [-1.0, 0.0]]))

    def test_embedding_is_symplectic(self):
        rng = np.random.default_rng(2)
        for M in (1, 2, 5):
            S = symplectic_embedding(random_unitary(M, rng))
            Om = symplectic_form(M)
            assert np.abs(S @ Om @ S.T - Om).max() < 1e-12
            assert np.linalg.det(S) == pytest.approx(1.0)

    def test_vacuum_eigenvalues_are_one(self):
        nu = symplectic_eigenvalues(vacuum(4))
        assert np.abs(nu - 1.0).max() < 1e-12

    def test_squeezing_leaves_eigenvalues_at_one(self):
        C = squeezed_vacuum(SqueezingSpectrum((0.1, 0.7)), angles=(0.2, 1.1))
        nu = symplectic_eigenvalues(C)
        assert np.abs(nu - 1.0).max() < 1e-9


class TestSqueezedVacuum:
    def test_blocks_carry_reciprocal_pairs(self):
        C = squeezed_vacuum(SqueezingSpectrum((0.25,)))
        assert np.allclose(C.block(0), np.diag([4.0, 0.25]))

    def test_angle_rotates_quadratures(self):
        C = squeezed_vacuum(SqueezingSpectrum((0.25,)), angles=(np.pi / 2,))
        assert np.allclose(C.block(0), np.diag([0.25, 4.0]), atol=1e-12)

    def test_determinant_one_per_mode(self):
        C = squeezed_vacuum(SqueezingSpectrum((0.3, 0.8)), angles=(0.4, 0.9))
        assert np.linalg.det(C.entries) == pytest.approx(1.0)

    def test_angle_count_must_match(self):
        with pytest.raises(DimensionError):
            squeezed_vacuum(SqueezingSpectrum((0.5, 0.5)), angles=(0.1,))

    @pytest.mark.parametrize("values", [(0.5, 0.0), (-0.5,), (0.5, np.nan), (np.inf,)],
                             ids=["zero", "negative", "nan", "inf"])
    def test_spectrum_holds_positive_variances(self, values):
        # one check, in SqueezingSpectrum, serves squeezed_vacuum's plain input too
        for build in (SqueezingSpectrum, squeezed_vacuum):
            with pytest.raises(PhysicsError, match="positive variances"):
                build(values)


    def test_empty_spectrum_is_dimension_error(self):
        # a size fault, not a value fault; still a PhysicsError to its callers
        for spectrum in ((), SqueezingSpectrum(())):
            with pytest.raises(DimensionError, match="^need at least one squeezing level$"):
                squeezed_vacuum(spectrum)

    def test_empty_spectrum_is_legal(self):
        # squeezing_spectrum returns it for an unsqueezed state
        assert len(SqueezingSpectrum(())) == 0
        assert len(squeezing_spectrum(vacuum(2))) == 0


class TestPurityAndSpectrum:
    def test_pure_states_have_unit_purity(self):
        rng = np.random.default_rng(23)
        for M in (1, 2, 4):
            assert purity(random_pure_state(M, rng)) == pytest.approx(1.0, abs=1e-9)

    def test_thermal_mixture_purity(self):
        # purity = 1/sqrt(det C); an n=0.5 thermal mode has det = 4
        C = CovarianceMatrix(np.diag([2.0, 2.0]))
        assert purity(C) == pytest.approx(0.5)

    def test_spectrum_recovers_inputs_sorted(self):
        C = squeezed_vacuum(SqueezingSpectrum((0.7, 0.2)), angles=(0.3, 1.0))
        got = squeezing_spectrum(C).values
        assert np.allclose(got, [0.2, 0.7], atol=1e-12)

    def test_spectrum_empty_for_vacuum(self):
        assert len(squeezing_spectrum(vacuum(3))) == 0

    def test_spectrum_invariant_under_mode_mixing(self):
        rng = np.random.default_rng(31)
        C = squeezed_vacuum(SqueezingSpectrum((0.4, 0.9)))
        mixed = apply_mode_unitary(C, random_unitary(2, rng))
        assert np.allclose(
            squeezing_spectrum(mixed).values, squeezing_spectrum(C).values, atol=1e-10
        )

    def test_db_view(self):
        s = SqueezingSpectrum((0.1,))
        assert s.db[0] == pytest.approx(-10.0)
        assert SqueezingSpectrum.from_db([-10.0]).values[0] == pytest.approx(0.1)


class TestSupermodeExtraction:
    def test_round_trip_random_pure_states(self):
        # 50 random pure covariances across mode counts reassemble within 1e-8
        rng = np.random.default_rng(42)
        for k in range(50):
            M = int(rng.integers(1, 7))
            C = random_pure_state(M, rng)
            basis, spectrum, angles = supermode_extraction(C)
            V = basis.matrix
            D = apply_mode_unitary(C, V)
            target = np.zeros((2 * M, 2 * M))
            for m, z in enumerate(spectrum.values):
                target[2 * m: 2 * m + 2, 2 * m: 2 * m + 2] = np.diag([1.0 / z, z])
            assert np.abs(D.entries - target).max() < 1e-8
            back = apply_mode_unitary(D, V.conj().T)
            assert np.abs(back.entries - C.entries).max() < 1e-8
            assert np.all(angles == 0.0)

    def test_basis_matches_row_pair_reference(self):
        # V read off the (Omega v, v) row pairs, written out, equals the
        # extracted basis exactly
        rng = np.random.default_rng(62)
        for M in range(1, 7):
            C = random_pure_state(M, rng)
            basis, spectrum, _ = supermode_extraction(C)
            lam, vec = np.linalg.eigh(C.entries)
            Om = symplectic_form(M)
            O = np.zeros((2 * M, 2 * M))
            for m, z in enumerate(spectrum.values):
                v = vec[:, np.flatnonzero(lam == z)[0]]
                if v[np.argmax(np.abs(v))] < 0:
                    v = -v
                O[2 * m], O[2 * m + 1] = Om @ v, v
            assert np.array_equal(basis.matrix, O[0::2, 0::2] + 1j * O[1::2, 0::2])

    def test_vacuum_extraction_is_identity(self):
        basis, spectrum, _ = supermode_extraction(vacuum(3))
        assert np.abs(basis.matrix - np.eye(3)).max() < 1e-12
        assert np.allclose(spectrum.values, 1.0)

    def test_degenerate_squeezing_pair(self):
        rng = np.random.default_rng(8)
        C = apply_mode_unitary(
            squeezed_vacuum(SqueezingSpectrum((0.3, 0.3))), random_unitary(2, rng)
        )
        basis, spectrum, _ = supermode_extraction(C)
        assert np.allclose(spectrum.values, [0.3, 0.3], atol=1e-10)
        D = apply_mode_unitary(C, basis.matrix)
        assert np.abs(D.entries - np.kron(np.eye(2), np.diag([1 / 0.3, 0.3]))).max() < 1e-8

    def test_ties_ordered_by_peak_index_with_positive_peak(self):
        # a degenerate pair beside a lone mode: within the tie, rows follow the
        # index of their eigenvector's largest-magnitude component, which is
        # positive; for some seeds eigh's own order breaks that rule
        reordered = 0
        for seed in range(16):
            rng = np.random.default_rng(seed)
            C = apply_mode_unitary(squeezed_vacuum(SqueezingSpectrum((0.3, 0.3, 0.5))),
                                   random_unitary(3, rng))
            basis, spectrum, _ = supermode_extraction(C)
            assert spectrum.values[1] - spectrum.values[0] <= 1e-10
            v = np.empty((3, 6))  # row m of V is v_m[1::2] + i v_m[0::2]
            v[:, 1::2], v[:, 0::2] = basis.matrix.real, basis.matrix.imag
            peaks = np.argmax(np.abs(v), axis=1)
            assert peaks[0] <= peaks[1]
            assert np.all(v[np.arange(3), peaks] > 0)
            vec = np.linalg.eigh(C.entries)[1]
            reordered += np.argmax(np.abs(vec[:, 0])) > np.argmax(np.abs(vec[:, 1]))
        assert reordered

    @staticmethod
    def _assert_round_trip(C, expected_zetas):
        basis, spectrum, _ = supermode_extraction(C)
        M = C.mode_count
        V = basis.matrix
        assert V.shape == (M, M)
        assert np.allclose(spectrum.values, expected_zetas, atol=1e-10)
        D = apply_mode_unitary(C, V)
        target = np.zeros((2 * M, 2 * M))
        for m, z in enumerate(spectrum.values):
            target[2 * m: 2 * m + 2, 2 * m: 2 * m + 2] = np.diag([1.0 / z, z])
        assert np.abs(D.entries - target).max() < 1e-8
        back = apply_mode_unitary(D, V.conj().T)
        assert np.abs(back.entries - C.entries).max() < 1e-8

    @staticmethod
    def _dft(M):
        k = np.arange(M)
        return np.exp(-2j * np.pi * np.outer(k, k) / M) / np.sqrt(M)

    def test_mixed_vacuum_extraction(self):
        # vacuum under 20 Haar unitaries per M, and under the DFT, which
        # spreads every vacuum supermode evenly over all modes
        rng = np.random.default_rng(60)
        for M in range(1, 9):
            unitaries = [random_unitary(M, rng) for _ in range(20)]
            if M >= 5:
                unitaries.append(self._dft(M))
            for U in unitaries:
                self._assert_round_trip(apply_mode_unitary(vacuum(M), U), np.ones(M))

    def test_partially_vacuum_extraction(self):
        # squeezed supermodes next to a vacuum block spread by the DFT or mixed in by Haar
        rng = np.random.default_rng(61)
        for M in range(2, 9):
            for spread in ("dft", "haar"):
                n_sq = int(rng.integers(1, M))
                zetas = np.ones(M)
                zetas[:n_sq] = np.exp(-2.0 * rng.uniform(0.1, 1.5, n_sq))
                C = squeezed_vacuum(zetas, angles=rng.uniform(0.0, np.pi, M))
                if spread == "dft":
                    U = np.eye(M, dtype=complex)
                    U[n_sq:, n_sq:] = self._dft(M - n_sq)
                else:
                    U = random_unitary(M, rng)
                self._assert_round_trip(apply_mode_unitary(C, U), np.sort(zetas))

    def test_mixed_state_rejected(self):
        with pytest.raises(PhysicsError, match="pure"):
            supermode_extraction(CovarianceMatrix(np.diag([2.0, 2.0])))

    def test_near_pure_thermal_mode_rejected(self):
        # purity within tolerance, but one mode is neither squeezed nor vacuum
        C = CovarianceMatrix(np.diag([2.0, 0.5, 1.0 + 1e-7, 1.0 + 1e-7]))
        with pytest.raises(PhysicsError, match="pure"):
            supermode_extraction(C)

    def test_spectrum_ascending(self):
        rng = np.random.default_rng(77)
        C = random_pure_state(5, rng)
        _, spectrum, _ = supermode_extraction(C)
        assert np.all(np.diff(spectrum.values) >= -1e-12)


class TestGaussianFidelity:
    def test_same_state_unity(self):
        C = CovarianceMatrix(np.diag([4.0, 0.25]))
        assert gaussian_fidelity(C, C) == pytest.approx(1.0)

    def test_vacuum_versus_squeezed(self):
        # overlap of vacuum with an r = ln 2 squeezed vacuum is 1/cosh r = 0.8
        C1 = vacuum(1)
        C2 = CovarianceMatrix(np.diag([4.0, 0.25]))
        assert gaussian_fidelity(C1, C2) == pytest.approx(0.8, abs=1e-12)

    def test_symmetric_in_arguments(self):
        C1 = CovarianceMatrix(np.diag([1.5, 1.0]))
        C2 = CovarianceMatrix(np.diag([2.0, 0.6]))
        assert gaussian_fidelity(C1, C2) == pytest.approx(gaussian_fidelity(C2, C1))

    def test_multimode_rejected(self):
        with pytest.raises(DimensionError):
            gaussian_fidelity(vacuum(2), vacuum(2))

    def test_rotation_invariance(self):
        rng = np.random.default_rng(12)
        C1 = random_pure_state(1, rng)
        C2 = CovarianceMatrix(np.diag([1.8, 0.9]))
        U = random_unitary(1, rng)
        F0 = gaussian_fidelity(C1, C2)
        F1 = gaussian_fidelity(apply_mode_unitary(C1, U), apply_mode_unitary(C2, U))
        assert F1 == pytest.approx(F0, abs=1e-12)


def mixed_state(M, db_min, thermal, seed):
    """(C, nu): a pure or thermal M-mode state and its symplectic spectrum.

    Each mode is squeezed down to at most ``db_min`` dB (the first mode to
    exactly that) and, if thermal, scaled by nu > 1; a Haar mode unitary
    then mixes all modes.
    """
    rng = np.random.default_rng(seed)
    zeta = 10.0 ** (np.r_[db_min, rng.uniform(db_min, 0.0, M - 1)] / 10.0)
    nu = 1.0 + rng.exponential(1.0, M) if thermal else np.ones(M)
    D = np.diag(np.ravel(np.column_stack([nu / zeta, nu * zeta])))
    S = symplectic_embedding(random_unitary(M, rng))
    C = S @ D @ S.T
    return 0.5 * (C + C.T), nu


mixed_states = st.builds(mixed_state, st.integers(1, 128), st.floats(-20.0, 0.0),
                         st.booleans(), st.integers(0, 2**32 - 1))


def eigenvalue_verdict(C):
    return gaussian._symplectic_eigenvalues(C).min() >= 1.0 - gaussian.PHYSICALITY_TOL


class TestPhysicalityProperties:
    """The one-Cholesky acceptance against the symplectic-eigenvalue oracle."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(state=mixed_states)
    @example(state=mixed_state(128, -20.0, False, 1))
    @example(state=mixed_state(128, -20.0, True, 2))
    def test_cholesky_verdict_matches_eigenvalues(self, state):
        C, nu = state
        assert gaussian._certainly_physical(C) and eigenvalue_verdict(C)
        # scaled so that nu_min sits on 1, then 2e-9 either side of it
        for scale, physical in ((1.0, True), (1.0 + 2e-9, True), (1.0 - 2e-9, False)):
            X = C * (scale / nu.min())
            assert gaussian._certainly_physical(X) == eigenvalue_verdict(X) == physical
            if not physical:
                with pytest.raises(PhysicsError, match="smallest symplectic eigenvalue"):
                    CovarianceMatrix(X)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(state=mixed_states)
    def test_acceptance_runs_no_eigensolve(self, state):
        def refused(*args, **kwargs):
            raise AssertionError("np.linalg.eigvals ran on a physical state")

        C, nu = state
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "eigvals", refused)
            for X in (C, C * (1.0 + 2e-9) / nu.min()):
                assert np.array_equal(CovarianceMatrix(X).entries, X)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(state=mixed_states, k2=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_channels_stay_physical(self, state, k2, seed):
        C = CovarianceMatrix(state[0])
        M = C.mode_count
        supermodes = ModeBasis(np.eye(M, dtype=complex))
        pumps = unitary_mix(supermodes, random_unitary(M, np.random.default_rng(seed)))
        for out in (covariance_map(C, k2), apply_cascade(C, supermodes, pumps, k2)):
            assert symplectic_eigenvalues(out).min() >= 1.0 - gaussian.PHYSICALITY_TOL

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(state=mixed_states, k1=st.floats(0.0, 1.0), k2=st.floats(0.0, 1.0))
    def test_two_memories_compose(self, state, k1, k2):
        C = CovarianceMatrix(state[0])
        twice = covariance_map(covariance_map(C, k1), k2).entries
        once = covariance_map(C, k1 * k2).entries
        assert np.abs(twice - once).max() <= 1e-12 * np.abs(C.entries).max()

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(state=mixed_states, seed=st.integers(0, 2**32 - 1))
    def test_spectrum_invariant_under_mode_unitaries(self, state, seed):
        C, nu = state
        C = CovarianceMatrix(C)
        U = random_unitary(C.mode_count, np.random.default_rng(seed))
        for X in (C, apply_mode_unitary(C, U)):
            assert np.abs(symplectic_eigenvalues(X) - np.sort(nu)).max() <= 1e-9 * nu.max()
