"""Per-supermode retrieval quality: squeezing transfer, purity, fidelity.

For a pure squeezed input mode with quadrature variances (1/zeta, zeta) the
beamsplitter-like channel C -> (1-k2) I + k2 C gives closed forms:

    zeta_out            = 1 - eta (1 - zeta_in)
    det C_out           = 1 + eta (1-eta) (Tr C_in - 2)
    F(in, out)          = 2 / sqrt(4 + (1 - eta^2) (Tr C_in - 2))

Tr C_in - 2 = zeta + 1/zeta - 2 equals 4 sinh^2 r for squeezing parameter r
and is rotation invariant, so squeezing angles drop out of purity and
fidelity.  The closed forms are written once, in ``_pure_retrieval``, which
broadcasts over arrays of zeta_in and eta.  Two entry points lead into it:
``retrieval_table`` takes squeezing levels in dB and ``report_from_block``
takes one pure single-mode covariance block; the CLI's depth sweep calls it
on arrays, and ``channel`` maps its spectrum through it.  The closed forms
hold for pure inputs only, so an impure block is rejected; the general
Gaussian-state oracles (covariance_map + gaussian_fidelity / purity) cover
mixed inputs, and the tests cross-check the closed forms against them.

dB levels become variances by ``gaussian.db_to_zeta``, one level at a time
(numpy's vectorized power rounds some levels differently), and variances
become dB by ``gaussian.zeta_to_db``; this module re-exports both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import efficiency
from .errors import DimensionError, PhysicsError
from .gaussian import CovarianceMatrix, db_to_zeta, zeta_to_db

__all__ = [
    "SupermodeReport",
    "db_to_zeta",
    "zeta_to_db",
    "overall_fidelity",
    "retrieval_table",
    "report_from_block",
]

PURE_DET_TOL = 1e-9  # |det C - 1| above this means the closed forms don't apply


@dataclass(frozen=True)
class SupermodeReport:
    """Retrieval summary for one supermode."""

    index: int
    zeta_in: float
    zeta_out: float
    purity_out: float
    fidelity: float

    def __post_init__(self):
        if not (self.zeta_in > 0 and self.zeta_out > 0):
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


def _squeezed_zeta(zeta_in_db) -> np.ndarray:
    """Squeezed-quadrature variances 10^(-|dB|/10) for levels in dB, one at a time."""
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
    """Report for one pure single-mode input block (CovarianceMatrix or 2x2 array).

    The closed forms need only the squeezed-quadrature variance
    zeta_in = eigvalsh(C)[0].  They hold for pure blocks alone, so a block
    with |det C - 1| > PURE_DET_TOL raises PhysicsError.
    """
    block = C_in_block if isinstance(C_in_block, CovarianceMatrix) else CovarianceMatrix(C_in_block)
    if block.mode_count != 1:
        raise DimensionError("per-supermode metrics take a single-mode 2x2 block")
    C = block.entries
    det = float(np.linalg.det(C))
    if abs(det - 1.0) > PURE_DET_TOL:
        raise PhysicsError(
            f"input block is impure (det = {det:.12g}); the closed forms need a pure block"
        )
    zeta_in = float(np.linalg.eigvalsh(C)[0])
    zeta_out, purity_out, fidelity = _pure_retrieval(zeta_in, eta)
    return SupermodeReport(index, zeta_in, float(zeta_out), float(purity_out), float(fidelity))


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
