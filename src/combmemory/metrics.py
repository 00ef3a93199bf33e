"""Per-supermode retrieval quality: squeezing transfer, purity, fidelity.

For a pure squeezed input mode with quadrature variances (1/zeta, zeta) the
beamsplitter-like channel C -> (1-k2) I + k2 C gives closed forms:

    zeta_out            = 1 - eta (1 - zeta_in)
    det C_out           = 1 + eta (1-eta) (Tr C_in - 2)
    F(in, out)          = 2 / sqrt(4 + (1 - eta^2) (Tr C_in - 2))

Tr C_in - 2 = zeta + 1/zeta - 2 equals 4 sinh^2 r for squeezing parameter r
and is rotation invariant, so squeezing angles drop out of purity and
fidelity.  The closed forms are written once, in ``_pure_retrieval``, which
broadcasts over arrays of zeta_in and eta; ``output_squeezing``,
``output_purity``, ``fidelity_supermode``, ``retrieval_table``,
``report_from_block`` and the CLI's depth sweep all evaluate it.  The tests
cross-check it against the general Gaussian-state oracles (covariance_map +
gaussian_fidelity / purity); impure inputs are routed through that oracle
path directly and flagged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import covariance_map, efficiency
from .errors import DimensionError, PhysicsError
from .gaussian import CovarianceMatrix, gaussian_fidelity, purity

__all__ = [
    "SupermodeReport",
    "db_to_zeta",
    "zeta_to_db",
    "output_squeezing",
    "output_purity",
    "fidelity_supermode",
    "overall_fidelity",
    "retrieval_table",
    "report_from_block",
]

PURE_DET_TOL = 1e-9  # |det C - 1| above this means the closed forms don't apply


def db_to_zeta(db: float) -> float:
    """Quadrature variance from its dB value (negative dB = squeezing)."""
    return float(10.0 ** (np.asarray(db, dtype=float) / 10.0))


def zeta_to_db(zeta: float) -> float:
    if zeta <= 0:
        raise PhysicsError("variance must be positive")
    return float(10.0 * np.log10(zeta))


@dataclass(frozen=True)
class SupermodeReport:
    """Retrieval summary for one supermode."""

    index: int
    zeta_in: float
    zeta_out: float
    purity_out: float
    fidelity: float
    oracle_fallback: bool = False

    def __post_init__(self):
        if self.zeta_in <= 0 or self.zeta_out <= 0:
            raise PhysicsError("variances must be positive")
        if not (0.0 < self.fidelity <= 1.0 + 1e-12):
            raise PhysicsError("fidelity must lie in (0, 1]")
        if not (0.0 < self.purity_out <= 1.0 + 1e-12):
            raise PhysicsError("purity must lie in (0, 1]")

    @property
    def zeta_in_db(self) -> float:
        return zeta_to_db(self.zeta_in)

    @property
    def zeta_out_db(self) -> float:
        return zeta_to_db(self.zeta_out)


def _single_mode(block) -> CovarianceMatrix:
    """Validated single-mode CovarianceMatrix from a CovarianceMatrix or raw array."""
    if not isinstance(block, CovarianceMatrix):
        block = CovarianceMatrix(np.asarray(block, dtype=float))
    if block.mode_count != 1:
        raise DimensionError("per-supermode metrics take a single-mode 2x2 block")
    return block


def _pure_zeta(block) -> float:
    """Squeezed-quadrature variance of a pure single-mode block."""
    C = _single_mode(block).entries
    det = float(np.linalg.det(C))
    if abs(det - 1.0) > PURE_DET_TOL:
        raise PhysicsError(
            f"input block is impure (det = {det:.12g}); "
            "use report_from_block for the general oracle path"
        )
    return float(np.linalg.eigvalsh(C)[0])


def _squeezed_zeta(zeta_in_db) -> np.ndarray:
    """Squeezed-quadrature variances 10^(-|dB|/10) for levels in dB.

    Converted one level at a time: numpy's vectorized power rounds some
    results differently from its scalar power, which would change the tables.
    """
    return np.array([db_to_zeta(-abs(float(db))) for db in zeta_in_db], dtype=float)


def _pure_retrieval(zeta_in, eta):
    """Closed forms for pure squeezed inputs: ``(zeta_out, purity_out, fidelity)``.

    ``zeta_in`` (squeezed-quadrature variance) and ``eta`` broadcast against
    each other, so a (M,) spectrum against (K, 1) efficiencies gives (K, M)
    arrays.
    """
    zeta_in = np.asarray(zeta_in, dtype=float)
    eta = np.asarray(eta, dtype=float)
    bad = ~((0.0 <= eta) & (eta <= 1.0))
    if bad.any():
        raise PhysicsError(f"efficiency must lie in [0, 1], got {float(eta[bad].flat[0])}")
    if not np.all(zeta_in > 0):
        raise PhysicsError("input variance must be positive")
    tr_less = zeta_in + 1.0 / zeta_in - 2.0  # Tr C_in - 2 for a pure block
    zeta_out = 1.0 - eta * (1.0 - zeta_in)
    purity_out = 1.0 / np.sqrt(1.0 + eta * (1.0 - eta) * tr_less)
    fidelity = 2.0 / np.sqrt(4.0 + (1.0 - eta * eta) * tr_less)
    return zeta_out, purity_out, fidelity


def output_squeezing(zeta_in: float, eta: float) -> float:
    """Squeezed-quadrature variance after retrieval: 1 - eta (1 - zeta_in)."""
    return float(_pure_retrieval(zeta_in, eta)[0])


def output_purity(C_in_block, eta: float) -> float:
    """Purity of the retrieved mode for a pure squeezed input block."""
    return float(_pure_retrieval(_pure_zeta(C_in_block), eta)[1])


def fidelity_supermode(C_in_block, eta: float) -> float:
    """Input-output fidelity for a pure squeezed input block."""
    return float(_pure_retrieval(_pure_zeta(C_in_block), eta)[2])


def overall_fidelity(reports):
    """Product of per-mode fidelities plus the full vector.

    The product alone understates a many-mode memory, so both are returned:
    ``(product, per_mode_vector)``.
    """
    if len(reports) == 0:
        raise DimensionError("need at least one supermode report")
    vec = np.array([r.fidelity for r in reports], dtype=float)
    return float(np.prod(vec)), vec


def report_from_block(C_in_block, eta: float, index: int = 0) -> SupermodeReport:
    """Report for an arbitrary (possibly impure) single-mode input block.

    Pure blocks use the closed forms; impure blocks fall back to the general
    covariance-map + Gaussian-fidelity route and are flagged
    ``oracle_fallback``.  The affine law zeta_out = 1 - eta (1 - zeta_in)
    holds either way because the channel maps eigenvalues affinely.
    """
    C_in_block = _single_mode(C_in_block)
    C = C_in_block.entries
    zeta_in = float(np.linalg.eigvalsh(C)[0])
    zeta_out, purity_out, fidelity = _pure_retrieval(zeta_in, eta)
    impure = abs(float(np.linalg.det(C)) - 1.0) > PURE_DET_TOL
    if impure:
        C_out = covariance_map(C_in_block, eta)
        purity_out, fidelity = purity(C_out), gaussian_fidelity(C_in_block, C_out)
    return SupermodeReport(
        index=index,
        zeta_in=zeta_in,
        zeta_out=float(zeta_out),
        purity_out=float(purity_out),
        fidelity=float(fidelity),
        oracle_fallback=impure,
    )


def retrieval_table(zeta_in_db, d: float):
    """Per-supermode reports for squeezing levels given in dB, at depth d.

    Each mode is taken as pure squeezed vacuum whose squeezed quadrature has
    variance 10^(-|dB|/10), the quadrature ``channel`` reports; all modes see
    the same efficiency eta = (1 - e^{-d})^2 because the cascade pumps each
    supermode identically.  Returns the reports ordered as given.
    """
    zetas = _squeezed_zeta(zeta_in_db)
    if zetas.size == 0:
        raise DimensionError("need at least one input squeezing level")
    if not d > 0:
        raise PhysicsError("optical depth must be positive")
    columns = _pure_retrieval(zetas, efficiency(d))
    return [
        SupermodeReport(m, float(z), float(z_out), float(p), float(f))
        for m, (z, z_out, p, f) in enumerate(zip(zetas, *columns))
    ]
