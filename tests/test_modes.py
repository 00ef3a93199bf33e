import json

import numpy as np
import pytest

from combmemory import (
    DimensionError,
    ModeBasis,
    ModeVector,
    PhysicsError,
    gram_schmidt,
    unitary_mix,
)
from support import random_unitary


class TestModeVector:
    def test_norm_and_normalized(self):
        v = ModeVector([3.0, 4.0j])
        assert v.norm == pytest.approx(5.0)
        assert ModeVector([3.0, 4.0j]).normalized().norm == pytest.approx(1.0)

    def test_zero_vector_cannot_normalize(self):
        with pytest.raises(PhysicsError, match="zero"):
            ModeVector([0.0, 0.0]).normalized()

    def test_amplitudes_frozen(self):
        v = ModeVector([1.0, 0.0])
        with pytest.raises(ValueError):
            v.amplitudes[0] = 2.0

    def test_json_round_trip(self):
        v = ModeVector([1.0 + 2.0j, -0.5], tooth_offset=-3)
        w = ModeVector.from_json(v.to_json())
        assert w.tooth_offset == -3
        assert np.array_equal(w.amplitudes, v.amplitudes)


class TestGramSchmidt:
    def test_output_orthonormal(self):
        rng = np.random.default_rng(7)
        vs = [ModeVector(rng.normal(size=6) + 1j * rng.normal(size=6)) for _ in range(4)]
        basis = gram_schmidt(vs)
        G = basis.matrix @ basis.matrix.conj().T
        assert np.abs(G - np.eye(4)).max() < 1e-10

    def test_first_vector_direction_kept(self):
        v0 = ModeVector([2.0, 2.0j, 0.0])
        basis = gram_schmidt([v0, ModeVector([1.0, 0.0, 1.0])])
        got = basis.matrix[0]
        want = v0.amplitudes / v0.norm
        assert np.abs(got - want).max() < 1e-12

    def test_dependent_input_rejected(self):
        u = ModeVector([1.0, 1.0])
        v = ModeVector([2.0, 2.0])
        with pytest.raises(PhysicsError, match="dependent"):
            gram_schmidt([u, v])

    def test_near_dependent_input_rejected(self):
        u = ModeVector([1.0, 0.0])
        v = ModeVector([1.0, 1e-9])
        with pytest.raises(PhysicsError, match="dependent"):
            gram_schmidt([u, v])


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
            vs = [ModeVector(rng.normal(size=n) + 1j * rng.normal(size=n))
                  for _ in range(k)]
            P = projector(gram_schmidt(vs))
            assert np.abs(P - P.conj().T).max() < 1e-12
            assert np.abs(P @ P - P).max() < 1e-10

    def test_rank_matches_basis_size(self):
        rng = np.random.default_rng(5)
        vs = [ModeVector(rng.normal(size=5)) for _ in range(3)]
        assert np.trace(projector(gram_schmidt(vs))).real == pytest.approx(3.0)

    def test_full_basis_gives_identity(self):
        basis = ModeBasis(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.abs(projector(basis) - np.eye(2)).max() < 1e-14


class TestUnitaryMix:
    def test_projector_invariant_under_remix(self):
        rng = np.random.default_rng(19)
        vs = [ModeVector(rng.normal(size=6) + 1j * rng.normal(size=6))
              for _ in range(3)]
        basis = gram_schmidt(vs)
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

    def test_wrong_size_rejected(self):
        basis = ModeBasis(np.array([[1.0, 0.0]]))
        with pytest.raises(DimensionError):
            unitary_mix(basis, np.eye(2))


class TestModeBasis:
    def test_non_orthonormal_tuple_rejected(self):
        with pytest.raises(PhysicsError):
            ModeBasis(np.array([[1.0, 0.0], [1.0, 1e-3]]))

    def test_json_round_trip(self):
        basis = ModeBasis(np.array([[1.0, 0.0], [0.0, 1.0j]]))
        again = ModeBasis.from_json(basis.to_json())
        assert np.abs(again.matrix - basis.matrix).max() == 0.0

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

    def test_json_bytes_match_vector_format(self):
        rng = np.random.default_rng(23)
        vs = [ModeVector(rng.normal(size=5) + 1j * rng.normal(size=5), tooth_offset=-2)
              for _ in range(3)]
        basis = gram_schmidt(vs)
        rows = [ModeVector(a, -2).to_json() for a in basis.matrix]
        assert json.dumps(basis.to_json()) == json.dumps({"vectors": rows})

    def test_json_mixed_tooth_ranges_rejected(self):
        obj = {"vectors": [ModeVector([1.0, 0.0], 0).to_json(),
                           ModeVector([0.0, 1.0], 1).to_json()]}
        with pytest.raises(DimensionError, match="tooth ranges"):
            ModeBasis.from_json(obj)

    def test_json_empty_rejected(self):
        with pytest.raises(DimensionError):
            ModeBasis.from_json({"vectors": []})
