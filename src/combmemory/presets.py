"""Synthetic demonstration states.

These are illustrative inputs for the demo configs, not measured spectra:

* ``epr`` — two -6 dB squeezed vacua mixed on a 50:50 beamsplitter, giving a
  two-mode entangled state whose supermodes are the +/-45 degree combinations;
* ``cluster-linear-4`` — four -6 dB p-squeezed modes entangled along a path
  graph by controlled-Z quadrature relations (x unchanged, p_j += sum of
  neighboring x), verified pure at construction.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .gaussian import (
    CovarianceMatrix,
    SqueezingSpectrum,
    apply_mode_unitary,
    blocked_indices,
    db_to_zeta,
    squeezed_vacuum,
)

__all__ = ["epr", "cluster_linear4", "get_preset", "PRESET_NAMES"]

_DB6 = db_to_zeta(-6.0)  # -6 dB quadrature variance


def epr() -> CovarianceMatrix:
    C = squeezed_vacuum(SqueezingSpectrum((_DB6, _DB6)), angles=(0.0, np.pi / 2))
    U = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
    return apply_mode_unitary(C, U)


def cluster_linear4() -> CovarianceMatrix:
    n = 4
    A = np.zeros((n, n))
    for j in range(n - 1):
        A[j, j + 1] = A[j + 1, j] = 1.0
    X = np.eye(n) / _DB6          # anti-squeezed x variances
    P = np.eye(n) * _DB6          # squeezed p variances
    # controlled-Z chain: x' = x, p' = p + A x, in xxpp ordering
    C_xxpp = np.block([[X, X @ A], [A @ X, A @ X @ A + P]])
    ix = np.argsort(blocked_indices(n))  # xxpp -> interleaved
    return CovarianceMatrix(C_xxpp[np.ix_(ix, ix)])


_PRESETS = {"epr": epr, "cluster-linear-4": cluster_linear4}
PRESET_NAMES = tuple(sorted(_PRESETS))


def _check_name(name: str) -> None:
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")


def get_preset(name: str) -> CovarianceMatrix:
    _check_name(name)
    return _PRESETS[name]()
