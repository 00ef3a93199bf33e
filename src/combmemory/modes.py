"""Mode vectors over comb teeth and orthonormal bases.

A comb field is a superposition of discrete spectral teeth.  Pump shapes and
supermodes are both vectors of complex amplitudes over a common tooth range;
everything downstream (channels, covariance transforms) only ever sees the
finite-dimensional subspace these vectors span, so the tooth count is a desk
scale knob, not a physical limit.  A basis of M such vectors over N teeth is
stored as one M x N array, one row per mode vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, PhysicsError

__all__ = [
    "ModeVector",
    "ModeBasis",
    "gram_schmidt",
    "unitary_mix",
]

DEFAULT_TOOTH_COUNT = 128
MAX_TOOTH_COUNT = 2**16  # largest `[state] teeth` a config may ask for
# Largest state a config may name, in modes.  Every 2M x 2M covariance takes
# 32 M^2 bytes, and `channel` at M = 512 runs in about 6 s at 250 MB peak RSS.
MAX_MODE_COUNT = 512

ORTHO_TOL = 1e-10        # pairwise |<vi,vj> - delta_ij| for a valid basis or unitary
DEPENDENCE_TOL = 1e-8    # residual norm below this is linear dependence


def _as_complex_vector(amplitudes) -> np.ndarray:
    v = np.array(amplitudes, dtype=complex)
    if v.ndim != 1 or v.size == 0:
        raise DimensionError("amplitudes must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(v.view(float))):
        raise PhysicsError("amplitudes must be finite")
    return v


@dataclass(frozen=True, eq=False)
class ModeVector:
    """Complex amplitude per comb tooth.

    Parameters
    ----------
    amplitudes : array_like of complex
        One amplitude per tooth, tooth ``m`` at frequency offset
        ``(tooth_offset + m) * omega_r``.
    tooth_offset : int
        Index of the first tooth.
    """

    amplitudes: np.ndarray
    tooth_offset: int = 0

    def __post_init__(self):
        v = _as_complex_vector(self.amplitudes)
        v.flags.writeable = False
        object.__setattr__(self, "amplitudes", v)
        object.__setattr__(self, "tooth_offset", int(self.tooth_offset))

    def __len__(self) -> int:
        return self.amplitudes.size

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "ModeVector":
        n = self.norm
        if n == 0.0:
            raise PhysicsError("cannot normalize the zero vector")
        return ModeVector(self.amplitudes / n, self.tooth_offset)

    def to_json(self) -> dict:
        return {
            "tooth_offset": self.tooth_offset,
            "re": self.amplitudes.real.tolist(),
            "im": self.amplitudes.imag.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ModeVector":
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
        if re.shape != im.shape:
            raise DimensionError("re/im length mismatch in mode vector JSON")
        return cls(re + 1j * im, int(obj.get("tooth_offset", 0)))


def _check_common_range(u: ModeVector, v: ModeVector):
    if u.tooth_offset != v.tooth_offset or len(u) != len(v):
        raise DimensionError(
            "mode vectors live on different tooth ranges: "
            f"[{u.tooth_offset}, +{len(u)}) vs [{v.tooth_offset}, +{len(v)})"
        )


@dataclass(frozen=True, eq=False)
class ModeBasis:
    """Ordered orthonormal mode vectors over one tooth range, as one array.

    ``matrix`` (stored as a read-only M x N copy) has mode vector k in row k
    and tooth ``tooth_offset + m`` in column m.
    """

    matrix: np.ndarray
    tooth_offset: int = 0

    def __post_init__(self):
        A = np.array(self.matrix, dtype=complex)
        if A.ndim != 2 or A.size == 0:
            raise DimensionError("basis must be a nonempty M x N array of mode vectors")
        if not np.all(np.isfinite(A)):
            raise PhysicsError("amplitudes must be finite")
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

    def to_json(self) -> dict:
        return {"vectors": [ModeVector(row, self.tooth_offset).to_json() for row in self.matrix]}

    @classmethod
    def from_json(cls, obj: dict) -> "ModeBasis":
        vs = [ModeVector.from_json(v) for v in obj["vectors"]]
        if not vs:
            raise DimensionError("basis must contain at least one vector")
        for v in vs[1:]:
            _check_common_range(vs[0], v)
        return cls(np.array([v.amplitudes for v in vs]), vs[0].tooth_offset)


def gram_schmidt(vs) -> ModeBasis:
    """Orthonormalize mode vectors (modified Gram-Schmidt, one re-pass).

    The first output is parallel to the first input.  Raises PhysicsError when
    a residual norm falls below 1e-8 of the original vector norm (linear
    dependence).
    """
    vs = list(vs)
    if not vs:
        raise DimensionError("gram_schmidt needs at least one vector")
    for v in vs[1:]:
        _check_common_range(vs[0], v)
    out = []
    for k, v in enumerate(vs):
        w = v.amplitudes.astype(complex)
        scale = np.linalg.norm(w)
        if scale == 0.0:
            raise PhysicsError(f"vector {k} is linearly dependent (zero norm)")
        # two passes of projection removal for numerical stability
        for _ in range(2):
            for q in out:
                w = w - np.vdot(q, w) * q
        r = np.linalg.norm(w)
        if r < DEPENDENCE_TOL * scale:
            raise PhysicsError(
                f"vector {k} is linearly dependent on its predecessors "
                f"(residual {r / scale:.3e})"
            )
        out.append(w / r)
    return ModeBasis(np.array(out), vs[0].tooth_offset)


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
