"""Orthonormal bases of comb modes, stored as arrays.

A comb field is a superposition of discrete spectral teeth.  A mode vector
(a pump shape or a supermode) is a row of complex amplitudes over a tooth
range, and a set of M of them over N teeth is one M x N array: row k is mode
k, column m is tooth ``tooth_offset + m``.  Sharing one array gives every row
the same tooth range by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, PhysicsError

__all__ = [
    "ModeBasis",
    "gram_schmidt",
    "unitary_mix",
]

DEFAULT_TOOTH_COUNT = 128
MAX_TOOTH_COUNT = 2**16  # largest `[state] teeth` a config may ask for
# Largest state a config may name, in modes.  Every 2M x 2M covariance takes
# 32 M^2 bytes, and `channel` at M = 512 runs in about 1.5 s at 166 MB peak RSS.
MAX_MODE_COUNT = 512

ORTHO_TOL = 1e-10        # pairwise |<vi,vj> - delta_ij| for a valid basis or unitary
DEPENDENCE_TOL = 1e-8    # residual norm below this is linear dependence


def _mode_array(matrix) -> np.ndarray:
    """A complex copy of ``matrix``, checked to be a nonempty, finite M x N array."""
    A = np.array(matrix, dtype=complex)
    if A.ndim != 2 or A.size == 0:
        raise DimensionError("basis must be a nonempty M x N array of mode vectors")
    if not np.all(np.isfinite(A)):
        raise PhysicsError("amplitudes must be finite")
    return A


@dataclass(frozen=True, eq=False)
class ModeBasis:
    """Ordered orthonormal mode vectors over one tooth range, as one array.

    ``matrix`` (stored as a read-only M x N copy) has mode vector k in row k
    and tooth ``tooth_offset + m`` in column m.
    """

    matrix: np.ndarray
    tooth_offset: int = 0

    def __post_init__(self):
        A = _mode_array(self.matrix)
        dev = np.abs(A @ A.conj().T - np.eye(A.shape[0])).max()
        if dev > ORTHO_TOL:
            raise PhysicsError(
                f"basis is not orthonormal within {ORTHO_TOL:g} (max Gram deviation {dev:.3e})"
            )
        A.flags.writeable = False
        object.__setattr__(self, "matrix", A)
        object.__setattr__(self, "tooth_offset", int(self.tooth_offset))

    def __len__(self) -> int:
        return self.matrix.shape[0]

    @property
    def tooth_count(self) -> int:
        return self.matrix.shape[1]


def gram_schmidt(amplitudes, tooth_offset: int = 0) -> ModeBasis:
    """Orthonormalize the rows of an M x N array (modified Gram-Schmidt, one re-pass).

    Row k is input vector k, with tooth ``tooth_offset + m`` in column m.  The
    first output row is parallel to the first input row.  Works on a copy, so
    the caller's array is neither changed nor kept.  Raises PhysicsError when
    a residual norm falls below 1e-8 of the original row norm (linear
    dependence).
    """
    W = _mode_array(amplitudes)
    for k, w in enumerate(W):
        scale = np.linalg.norm(w)
        if scale == 0.0:
            raise PhysicsError(f"vector {k} is linearly dependent (zero norm)")
        # two passes of projection removal for numerical stability
        for _ in range(2):
            for q in W[:k]:
                w = w - np.vdot(q, w) * q
        r = np.linalg.norm(w)
        if r < DEPENDENCE_TOL * scale:
            raise PhysicsError(
                f"vector {k} is linearly dependent on its predecessors "
                f"(residual {r / scale:.3e})"
            )
        W[k] = w / r
    return ModeBasis(W, tooth_offset)


def _check_unitary(U, M: int) -> np.ndarray:
    """U as a complex array, checked to be M x M and unitary within ORTHO_TOL."""
    U = np.asarray(U, dtype=complex)
    if U.shape != (M, M):
        raise DimensionError(f"expected a {M}x{M} unitary, got shape {U.shape}")
    if np.abs(U @ U.conj().T - np.eye(M)).max() > ORTHO_TOL:
        raise PhysicsError(f"matrix is not unitary within {ORTHO_TOL:g}")
    return U


def unitary_mix(basis: ModeBasis, U) -> ModeBasis:
    """Re-mix a basis: q_j = sum_k U_jk p_k.  Leaves the projector unchanged."""
    U = _check_unitary(U, len(basis))
    return ModeBasis(U @ basis.matrix, basis.tooth_offset)
