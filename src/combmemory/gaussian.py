"""Gaussian states as quadrature covariance matrices.

Conventions: vacuum covariance is the identity; quadratures are ordered in
interleaved per-mode pairs (S+_1, S-_1, S+_2, S-_2, ...).  A pure M-mode
Gaussian state always factorizes into M independent squeezed vacua on some
orthonormal set of supermodes; ``supermode_extraction`` finds that set and the
squeezing spectrum from the eigenstructure of C, using the fact that for pure
states the symplectic form maps a squeezed eigenvector (eigenvalue zeta < 1) to
its antisqueezed partner (eigenvalue 1/zeta).

Squeezing levels in dB and variances convert by ``db_to_zeta`` and
``zeta_to_db``, the package's one conversion, defined and exported here.

Physicality is the uncertainty relation C + i Omega >= 0 (Weedbrook et al.,
RMP 84, 621 (2012)), i.e. every symplectic eigenvalue nu >= 1.  The
Hermitian C + i lam Omega is positive semidefinite exactly when
nu_min >= lam, so with lam = 1 - PHYSICALITY_TOL it is positive definite
exactly when nu_min > 1 - PHYSICALITY_TOL.  One complex Cholesky of it, which
scales no entry of C and so cannot overflow, accepts a state;
only when it fails do the symplectic eigenvalues decide, and they write the
rejection message, so near the boundary the eigenvalues have the last word.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, PhysicsError
from .modes import ModeBasis, _check_unitary

__all__ = [
    "CovarianceMatrix",
    "SqueezingSpectrum",
    "db_to_zeta",
    "zeta_to_db",
    "symplectic_form",
    "symplectic_embedding",
    "vacuum",
    "squeezed_vacuum",
    "apply_mode_unitary",
    "purity",
    "symplectic_eigenvalues",
    "supermode_extraction",
    "gaussian_fidelity",
]

SYMMETRY_TOL = 1e-12
# Symplectic eigenvalues must be >= 1 - PHYSICALITY_TOL: the matrix
# C + i (1 - PHYSICALITY_TOL) Omega is positive definite exactly when
# nu_min > 1 - PHYSICALITY_TOL, which one complex Cholesky decides.
PHYSICALITY_TOL = 1e-9
SQUEEZED_EIG_TOL = 1e-10  # eigenvalues below 1 - this count as squeezed
PURITY_TOL = 1e-6        # supermode extraction needs purity >= 1 - this


def db_to_zeta(db: float) -> float:
    """Quadrature variance of one level in dB (negative dB = squeezing), by the scalar power."""
    try:
        return 10.0 ** (float(db) / 10.0)
    except OverflowError:
        raise PhysicsError(f"a level of {float(db):g} dB overflows a float variance") from None


def zeta_to_db(zeta):
    """10*log10 of a positive variance, or of an array of them; NaN raises too."""
    z = np.asarray(zeta, dtype=float)
    if not np.all(z > 0):
        raise PhysicsError("variance must be positive")
    return 10.0 * np.log10(z) if z.ndim else float(10.0 * np.log10(z))


@dataclass(frozen=True, eq=False)
class SqueezingSpectrum:
    """Squeezed-quadrature variances relative to vacuum (zeta < 1 = squeezed).

    ``from_db`` converts level by level with ``db_to_zeta`` (numpy's vectorized
    power rounds some levels differently); ``db`` converts by ``zeta_to_db``."""

    values: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.array(self.values, dtype=float))
        if not np.all((0.0 < v) & (v < np.inf)):  # NaN fails too
            raise PhysicsError("squeezing values must be positive variances")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size

    @property
    def db(self) -> np.ndarray:
        """10*log10(zeta); negative values denote squeezing below shot noise."""
        return zeta_to_db(self.values)

    @classmethod
    def from_db(cls, db_values) -> "SqueezingSpectrum":
        return cls([db_to_zeta(db) for db in np.ravel(db_values)])


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Real symmetric 2M x 2M quadrature covariance, vacuum = identity."""

    entries: np.ndarray

    def __post_init__(self):
        C = np.asarray(self.entries, dtype=float)
        if C.ndim != 2 or C.shape[0] != C.shape[1] or C.shape[0] % 2:
            raise DimensionError("covariance must be a square 2M x 2M matrix")
        if not np.all(np.isfinite(C)):
            raise PhysicsError("covariance entries must be finite")
        with np.errstate(over="ignore"):  # an overflowing difference is inf: asymmetric
            asymmetry = np.abs(C - C.T).max()
            S = 0.5 * (C + C.T)
        if asymmetry > SYMMETRY_TOL * max(1.0, np.abs(C).max()):
            raise PhysicsError("covariance is not symmetric within 1e-12")
        if not np.all(np.isfinite(S)):  # the sum overflowed: halving first is exact there
            S = 0.5 * C + 0.5 * C.T
        C = S
        if not _certainly_physical(C):
            nu = _symplectic_eigenvalues(C)
            if nu.min() < 1.0 - PHYSICALITY_TOL:
                raise PhysicsError(
                    f"unphysical covariance: smallest symplectic eigenvalue {nu.min():.12f}"
                )
        C.flags.writeable = False
        object.__setattr__(self, "entries", C)

    @property
    def mode_count(self) -> int:
        return self.entries.shape[0] // 2

    def to_json(self) -> dict:
        return {"mode_count": self.mode_count, "rows": self.entries.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "CovarianceMatrix":
        try:
            C = np.asarray(obj["rows"], dtype=float)
            declared = int(obj["mode_count"]) if "mode_count" in obj else None
        except (KeyError, TypeError, ValueError) as exc:
            raise DimensionError(
                "covariance JSON needs 'rows' as a numeric matrix and an integer "
                f"'mode_count' if given ({type(exc).__name__}: {exc})"
            ) from exc
        try:
            got = cls(C)
        except DimensionError as exc:
            raise DimensionError(f"covariance JSON 'rows': {exc}") from None
        if declared is not None and declared != got.mode_count:
            raise DimensionError("covariance JSON 'mode_count' inconsistent with matrix size")
        return got


def symplectic_form(M: int) -> np.ndarray:
    """Interleaved symplectic form: direct sum of [[0,1],[-1,0]] blocks."""
    Om = np.zeros((2 * M, 2 * M))
    flat = Om.reshape(-1)  # a view: entry (2m, 2m+1) sits at m (4M+2) + 1
    flat[1::4 * M + 2] = 1.0
    flat[2 * M::4 * M + 2] = -1.0
    return Om


def symplectic_embedding(U) -> np.ndarray:
    """Real 2M x 2M orthogonal symplectic matrix realizing a mode unitary.

    The 2x2 block coupling modes j,k is [[Re U_jk, -Im U_jk], [Im U_jk, Re U_jk]].
    """
    U = np.asarray(U, dtype=complex)
    M = U.shape[0]
    S = np.zeros((2 * M, 2 * M))
    S[0::2, 0::2] = U.real
    S[0::2, 1::2] = -U.imag
    S[1::2, 0::2] = U.imag
    S[1::2, 1::2] = U.real
    return S


def _symplectic_eigenvalues(C: np.ndarray) -> np.ndarray:
    M = C.shape[0] // 2
    ev = np.linalg.eigvals(symplectic_form(M) @ C)
    return np.sort(np.abs(ev))[::2]  # each nu appears as +/- i nu


def _certainly_physical(C: np.ndarray) -> bool:
    """True when a Cholesky of C + i (1 - tol) Omega succeeds: nu_min > 1 - tol."""
    A = np.empty(C.shape, dtype=complex)  # filled by parts: no complex temporaries
    A.real = C
    A.imag = (1.0 - PHYSICALITY_TOL) * symplectic_form(C.shape[0] // 2)
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return False
    return True


def symplectic_eigenvalues(C: CovarianceMatrix) -> np.ndarray:
    """Symplectic spectrum, ascending; all >= 1 for physical states."""
    return _symplectic_eigenvalues(C.entries)


def vacuum(M: int) -> CovarianceMatrix:
    """Vacuum state of M modes: identity covariance."""
    if M < 1:
        raise PhysicsError("mode count must be >= 1")
    return CovarianceMatrix(np.eye(2 * int(M)))


def squeezed_vacuum(spectrum, angles=None) -> CovarianceMatrix:
    """Product of single-mode squeezed vacua.

    Block m is rotation(theta_m) . diag(1/zeta_m, zeta_m) . rotation(theta_m)^T:
    squeezed-quadrature variance zeta_m at angle theta_m, pure per mode.
    """
    if not isinstance(spectrum, SqueezingSpectrum):
        spectrum = SqueezingSpectrum(spectrum)  # which checks the variances
    zetas = spectrum.values
    if zetas.size == 0:
        raise DimensionError("need at least one squeezing level")
    angles = np.zeros(zetas.size) if angles is None else np.atleast_1d(np.asarray(angles, float))
    if angles.size != zetas.size:
        raise DimensionError("angles and spectrum must have equal length")
    C = np.zeros((2 * zetas.size, 2 * zetas.size))
    for m, (z, th) in enumerate(zip(zetas, angles)):
        c, s = np.cos(th), np.sin(th)
        R = np.array([[c, -s], [s, c]])
        C[2 * m:2 * m + 2, 2 * m:2 * m + 2] = R @ np.diag([1.0 / z, z]) @ R.T
    return CovarianceMatrix(C)


def apply_mode_unitary(C: CovarianceMatrix, U) -> CovarianceMatrix:
    """Transform the state by a mode unitary: C' = S C S^T, S = embedding of U."""
    U = _check_unitary(U, C.mode_count)
    S = symplectic_embedding(U)
    return CovarianceMatrix(S @ C.entries @ S.T)


def purity(C: CovarianceMatrix) -> float:
    """Tr rho^2 = 1/sqrt(det C); equals 1 exactly for pure states."""
    sign, logdet = np.linalg.slogdet(C.entries)
    if sign <= 0:
        raise PhysicsError("covariance has nonpositive determinant")
    return float(np.exp(-0.5 * logdet))


def _vacuum_pairs(E: np.ndarray, Om: np.ndarray) -> np.ndarray:
    """Split a symplectically closed vacuum subspace into (Omega v, v) pairs.

    ``E`` is an orthonormal frame of the subspace, one column per direction.
    Returns the p-rows v, one per vacuum mode.  Each v is the projection of
    the first canonical axis (S- axes before S+ axes) that keeps a norm of at
    least 0.5 in what is left of the subspace, so extraction of the vacuum
    state returns the identity transform; when no axis does, v is the first
    frame column.  The frame then keeps the directions orthogonal to both v
    and Omega v: exactly two fewer columns per pair, whatever the rounding.
    """
    M2 = Om.shape[0]
    axes = np.r_[1:M2:2, 0:M2:2]
    vs = []
    F = E
    while F.shape[1] > 0:
        hit = np.flatnonzero(np.linalg.norm(F[axes], axis=1) >= 0.5)
        v = F @ F[axes[hit[0]]] if hit.size else F[:, 0]
        v = v / np.linalg.norm(v)
        vs.append(v)
        Q = np.linalg.qr(np.column_stack([v @ F, (Om @ v) @ F]), mode="complete")[0]
        F = F @ Q[:, 2:]
    return np.array(vs)


def supermode_extraction(C: CovarianceMatrix):
    """Reduce a pure state to uncorrelated squeezed vacua on supermodes.

    Returns ``(basis, spectrum)`` where ``basis`` holds the rows of the mode
    unitary V (over abstract mode slots) such that ``apply_mode_unitary(C, V)``
    is block-diagonal with blocks diag(1/zeta_m, zeta_m), every squeezing
    rotation absorbed into V; ``spectrum`` lists zeta ascending (most squeezed
    first, vacuum modes as 1).

    For pure C every eigenvector v with eigenvalue zeta < 1 has the symplectic
    partner Omega v with eigenvalue 1/zeta, so the rows (Omega v, v) assemble
    the orthosymplectic transform directly; as (Omega v)[2j] = v[2j+1], row m
    of V is v_m[1::2] + i v_m[0::2].  Ties in zeta are broken by the smallest
    index of the largest-magnitude eigenvector component; signs are fixed by
    making that component positive.  A purity below 1 - PURITY_TOL (1e-6)
    raises PhysicsError.
    """
    p = purity(C)
    if p < 1.0 - PURITY_TOL:
        raise PhysicsError(
            f"state is not pure within tolerance (purity {p:.9f}, tol {PURITY_TOL:g})"
        )
    M = C.mode_count
    lam, vec = np.linalg.eigh(C.entries)

    sq = lam < 1.0 - SQUEEZED_EIG_TOL
    vs, ls = vec[:, sq], lam[sq]  # eigh returns lam ascending
    # deterministic tie-break and sign fix on the squeezed eigenvectors: a tie
    # group runs while zeta is within 1e-10 of the group's first, and one
    # stable sort orders by (group, index of the largest-magnitude component)
    group = np.empty(ls.size, dtype=np.intp)
    start = 0
    for k in range(ls.size):
        if abs(ls[k] - ls[start]) > 1e-10 * max(1.0, ls[start]):
            start = k
        group[k] = start
    peak = np.argmax(np.abs(vs), axis=0)
    cols = np.argsort(group * len(vs) + peak, kind="stable")
    vs, ls, peak = vs[:, cols], ls[cols], peak[cols]
    P = (vs * np.where(vs[peak, np.arange(ls.size)] < 0, -1.0, 1.0)).T

    vac = np.abs(lam - 1.0) <= SQUEEZED_EIG_TOL
    if vac.any():
        P = np.vstack([P, _vacuum_pairs(vec[:, vac], symplectic_form(M))])
    if P.shape[0] != M:
        raise PhysicsError(
            f"state is not pure within tolerance: {P.shape[0]} of {M} modes "
            "are squeezed or vacuum"
        )
    basis = ModeBasis(P[:, 1::2] + 1j * P[:, 0::2])
    zetas = np.concatenate([ls, np.ones(M - ls.size)])
    return basis, SqueezingSpectrum(zetas)


def gaussian_fidelity(C1: CovarianceMatrix, C2: CovarianceMatrix) -> float:
    """Uhlmann fidelity of two zero-mean single-mode Gaussian states.

    F = 2 / (sqrt(Lambda + delta) - sqrt(delta)) with Lambda = det(C1 + C2)
    and delta = (det C1 - 1)(det C2 - 1).  Serves as the independent oracle
    for the closed-form retrieved-state fidelity.

    delta enters through its square root, so float noise in a pure state's
    determinant (|det - 1| ~ 1e-15) would otherwise contaminate F at the 1e-8
    level; determinants within 1e-9 of one count as exactly pure.
    """
    if C1.mode_count != 1 or C2.mode_count != 1:
        raise DimensionError("fidelity oracle supports single-mode states only")

    def excess(C):
        e = float(np.linalg.det(C)) - 1.0
        return 0.0 if abs(e) <= 1e-9 else e

    A, B = C1.entries, C2.entries
    Lam = float(np.linalg.det(A + B))
    delta = max(excess(A) * excess(B), 0.0)
    return 2.0 / (np.sqrt(Lam + delta) - np.sqrt(delta))
