import numpy as np
import pytest

from combmemory import (
    DimensionError,
    ModeBasis,
    PhysicsError,
    SqueezingSpectrum,
    apply_mode_unitary,
    gram_schmidt,
    squeezed_vacuum,
    unitary_mix,
)
from support import random_unitary


class TestGramSchmidt:
    def test_output_orthonormal(self):
        rng = np.random.default_rng(7)
        basis = gram_schmidt(rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6)))
        G = basis.matrix @ basis.matrix.conj().T
        assert np.abs(G - np.eye(4)).max() < 1e-10

    def test_first_vector_direction_kept(self):
        v0 = np.array([2.0, 2.0j, 0.0])
        basis = gram_schmidt([v0, [1.0, 0.0, 1.0]])
        got = basis.matrix[0]
        want = v0 / np.linalg.norm(v0)
        assert np.abs(got - want).max() < 1e-12

    def test_dependent_input_rejected(self):
        with pytest.raises(PhysicsError, match="dependent"):
            gram_schmidt([[1.0, 1.0], [2.0, 2.0]])

    def test_near_dependent_input_rejected(self):
        with pytest.raises(PhysicsError, match="dependent"):
            gram_schmidt([[1.0, 0.0], [1.0, 1e-9]])

    @pytest.mark.parametrize("rows, error, match", [
        ([1.0, 0.0], DimensionError, "M x N"),
        (np.zeros((0, 3)), DimensionError, "M x N"),
        ([[1.0, 0.0], [0.0, 0.0]], PhysicsError, "zero norm"),
        ([[1.0, np.nan]], PhysicsError, "finite"),
        ([[np.inf, 0.0]], PhysicsError, "finite"),
        ([[1.0, 0.0], [0.0, complex(0.0, -np.inf)]], PhysicsError, "finite"),
    ], ids=["1-d", "no-rows", "zero-row", "nan", "inf", "minus-inf"])
    def test_malformed_input_rejected(self, rows, error, match):
        with pytest.raises(error, match=match):
            gram_schmidt(rows)

    def test_input_neither_changed_nor_kept(self):
        G = np.array([[3.0 + 0j, 4.0j], [1.0, 1.0]])
        before = G.copy()
        basis = gram_schmidt(G, tooth_offset=-2)
        assert np.array_equal(G, before) and G.flags.writeable
        assert not np.shares_memory(G, basis.matrix)
        kept = basis.matrix.copy()
        G[0, 0] = 2.0  # the caller's array stays the caller's
        assert np.array_equal(basis.matrix, kept)
        assert (len(basis), basis.tooth_count, basis.tooth_offset) == (2, 2, -2)


def projector(basis):
    """P = sum_k p_k p_k^H, the projector onto the span of a basis."""
    return basis.matrix.conj().T @ basis.matrix


class TestProjector:
    def test_random_bases_idempotent_hermitian(self):
        # 100 random orthonormal bases of varying rank
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n + 1))
            G = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
            P = projector(gram_schmidt(G))
            assert np.abs(P - P.conj().T).max() < 1e-12
            assert np.abs(P @ P - P).max() < 1e-10

    def test_rank_matches_basis_size(self):
        rng = np.random.default_rng(5)
        G = rng.normal(size=(3, 5))
        assert np.trace(projector(gram_schmidt(G))).real == pytest.approx(3.0)

    def test_full_basis_gives_identity(self):
        basis = ModeBasis(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.abs(projector(basis) - np.eye(2)).max() < 1e-14


class TestUnitaryMix:
    def test_projector_invariant_under_remix(self):
        rng = np.random.default_rng(19)
        basis = gram_schmidt(rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6)))
        mixed = unitary_mix(basis, random_unitary(3, rng))
        assert np.abs(projector(basis) - projector(mixed)).max() < 1e-10

    def test_mixed_basis_stays_orthonormal(self):
        basis = ModeBasis(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        U = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        mixed = unitary_mix(basis, U)
        G = mixed.matrix @ mixed.matrix.conj().T
        assert np.abs(G - np.eye(2)).max() < 1e-12

    def test_non_unitary_rejected(self):
        basis = ModeBasis(np.array([[1.0, 0.0]]))
        with pytest.raises(PhysicsError, match="unitary"):
            unitary_mix(basis, np.array([[2.0]]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.nan, np.inf)],
                             ids=["nan", "inf", "-inf", "nan+infj"])
    @pytest.mark.parametrize("route", ["unitary_mix", "apply_mode_unitary"])
    def test_non_finite_unitary_rejected(self, route, bad):
        # a NaN deviation must fail the tolerance comparison, not pass it
        U = np.eye(2, dtype=complex)
        U[0, 1] = bad
        with pytest.raises(PhysicsError, match="not unitary within"):
            if route == "unitary_mix":
                unitary_mix(ModeBasis(np.eye(2)), U)
            else:
                apply_mode_unitary(squeezed_vacuum(SqueezingSpectrum((0.5, 0.5))), U)

    def test_wrong_size_rejected(self):
        basis = ModeBasis(np.array([[1.0, 0.0]]))
        with pytest.raises(DimensionError):
            unitary_mix(basis, np.eye(2))


class TestModeBasis:
    def test_non_orthonormal_tuple_rejected(self):
        with pytest.raises(PhysicsError):
            ModeBasis(np.array([[1.0, 0.0], [1.0, 1e-3]]))

    @pytest.mark.parametrize("matrix, error", [
        (np.array([1.0, 0.0]), DimensionError),
        (np.zeros((0, 3)), DimensionError),
        (np.zeros((2, 0)), DimensionError),
        (np.array([[np.nan, 0.0]]), PhysicsError),
        (np.array([[1.0, 0.0], [0.0, np.inf * 1j]]), PhysicsError),
    ], ids=["1-d", "no-rows", "no-teeth", "nan", "inf"])
    def test_malformed_array_rejected(self, matrix, error):
        with pytest.raises(error):
            ModeBasis(matrix)

    def test_matrix_read_only_copy(self):
        A = np.eye(2, 3, dtype=complex)
        basis = ModeBasis(A, tooth_offset=4)
        A[0, 0] = 2.0
        assert basis.matrix[0, 0] == 1.0
        with pytest.raises(ValueError):
            basis.matrix[0, 0] = 2.0
        assert (len(basis), basis.tooth_count, basis.tooth_offset) == (2, 3, 4)
