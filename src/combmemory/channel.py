"""Analytic memory channel: kernel, efficiency, covariance maps, cascades.

The write->read cycle acts on the stored comb subspace as multiplication by
the complex kernel K_omega = 1 - exp(-d*gamma_s/(gamma_s + i*omega)); its
zero-frequency squared magnitude is the retrieval efficiency
eta = (1 - e^{-d})^2.  On covariance matrices the cycle is the affine
contraction C_out = (1 - k2) I + k2 C_in with k2 = |K_omega|^2, applied to the
full state at once by a cascade of ensembles whose pumps span the signal
subspace.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, PhysicsError
from .gaussian import CovarianceMatrix, symplectic_embedding
from .modes import ModeBasis

__all__ = [
    "MemoryParams",
    "PhysicalParams",
    "KernelResponse",
    "derive_gamma_s",
    "kernel",
    "efficiency",
    "covariance_map",
    "apply_cascade",
    "frequency_response",
    "pulse_capacity",
]

K2_CLAMP = 1e-12          # float fuzz absorbed at the [0,1] boundary
NARROWBAND_FLATNESS = 2e-3
SPAN_TOL = 1e-8
# Largest `[kernel] n_points` a config may ask for.  `kernel` took 0.8 s and
# 50 MB peak RSS at 1e5 points and 8.0 s and 187 MB at 1e6 (2-vCPU x86-64,
# numpy 2.4); at 1e8 it passed 3.1 GB.
MAX_KERNEL_POINTS = 2**20


@dataclass(frozen=True)
class MemoryParams:
    """Memory working point.

    Parameters
    ----------
    d : float
        On-resonance optical depth (dimensionless), >= 0.
    gamma_s : float
        Pump-induced decay rate in rad/s; sets the memory bandwidth.
    T : float
        Write-pulse-train duration in seconds.
    rep_rate : float, optional
        Comb tooth spacing in Hz (pulse repetition rate).
    alpha : float, optional
        d * gamma_s * T; derived when omitted, checked for consistency when
        given.
    """

    d: float
    gamma_s: float
    T: float
    rep_rate: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        if not (0.0 <= self.d < np.inf):
            raise PhysicsError("optical depth d must be finite and >= 0")
        if not (0.0 < self.gamma_s < np.inf):
            raise PhysicsError("gamma_s must be finite and positive")
        if not (0.0 < self.T < np.inf):
            raise PhysicsError("write duration T must be finite and positive")
        if self.rep_rate is not None and not (0.0 < self.rep_rate < np.inf):
            raise PhysicsError("rep_rate must be finite and positive when given")
        derived = self.d * self.gamma_s * self.T
        if self.alpha is None:
            object.__setattr__(self, "alpha", derived)
        elif abs(self.alpha - derived) > 1e-12 * max(abs(derived), 1e-300):
            raise PhysicsError(
                f"alpha = {self.alpha!r} inconsistent with d*gamma_s*T = {derived!r}"
            )


@dataclass(frozen=True)
class PhysicalParams:
    """Microscopic parameters behind gamma_s (all angular frequencies, rad/s)."""

    Delta: float      # single-photon detuning
    gamma: float      # excited-state linewidth
    Omega_p: float    # pump Rabi frequency

    def __post_init__(self):
        if self.Delta == 0.0:
            raise PhysicsError("detuning Delta must be nonzero")
        if not (self.gamma > 0.0):
            raise PhysicsError("gamma must be positive")
        if self.Omega_p < 0.0:
            raise PhysicsError("Omega_p must be >= 0")
        if abs(self.Omega_p / self.Delta) > 0.1:
            warnings.warn(
                "adiabatic-elimination ratio |Omega_p/Delta| exceeds 0.1; "
                "the dispersive model is marginal here",
                UserWarning,
                stacklevel=2,
            )


def derive_gamma_s(p: PhysicalParams) -> float:
    """Induced decay rate gamma * |Omega_p / Delta|^2 (advisory; rad/s)."""
    return p.gamma * abs(p.Omega_p / p.Delta) ** 2


def kernel(params: MemoryParams, omega):
    """Complex memory kernel K = 1 - exp(-d*gamma_s/(gamma_s + i*omega)).

    ``omega`` (rad/s) may be a scalar or an array; the return matches.  A
    non-finite omega raises ``PhysicsError`` naming it, and so does a working
    point whose exponent cannot be formed: d * gamma_s overflows, or a
    subnormal gamma_s overflows the complex division (its reciprocal is not
    finite).
    """
    w = np.asarray(omega, dtype=float)
    finite = np.isfinite(w)
    if not finite.all():
        raise PhysicsError(f"omega must be finite, got {float(w[~finite].flat[0])!r} rad/s")
    if not params.d * params.gamma_s < np.inf:
        raise PhysicsError(f"d * gamma_s = {params.d!r} * {params.gamma_s!r} overflows a float")
    if params.gamma_s < np.finfo(float).tiny:
        raise PhysicsError(f"gamma_s = {params.gamma_s!r} is subnormal; the kernel overflows")
    K = 1.0 - np.exp(-params.d * params.gamma_s / (params.gamma_s + 1j * w))
    return complex(K) if np.isscalar(omega) or w.ndim == 0 else K


def efficiency(d: float) -> float:
    """Retrieval efficiency eta = (1 - e^{-d})^2."""
    if not d >= 0.0:  # NaN fails too
        raise PhysicsError("optical depth d must be >= 0")
    return float((1.0 - np.exp(-d)) ** 2)


@dataclass(frozen=True, eq=False)
class KernelResponse:
    """K_omega sampled on a frequency grid, with a flatness diagnostic.

    ``flatness`` is max over the grid of | |K|^2 / |K_0|^2 - 1 |; bands with
    flatness <= 0.2% may replace the omega-resolved |K|^2 by eta everywhere.
    """

    frequencies: np.ndarray
    values: np.ndarray
    flatness: float

    def __post_init__(self):
        f = np.array(self.frequencies, dtype=float)
        v = np.array(self.values, dtype=complex)
        if f.shape != v.shape or f.ndim != 1:
            raise DimensionError("frequency and value grids must be equal 1-d arrays")
        f.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "flatness", float(self.flatness))

    @property
    def narrowband(self) -> bool:
        return self.flatness <= NARROWBAND_FLATNESS


def frequency_response(params: MemoryParams, omega_max: float, n_points: int) -> KernelResponse:
    """Sample K on a symmetric grid over [-omega_max, omega_max].

    A zero band collapses to the single point omega = 0 (flatness 0).  A band
    whose width 2 omega_max overflows a float raises ``PhysicsError``.
    """
    if n_points < 2:
        raise PhysicsError("n_points must be >= 2")
    if omega_max < 0.0:
        raise PhysicsError("omega_max must be >= 0")
    if not 2.0 * omega_max < np.inf:
        raise PhysicsError(f"omega_max = {omega_max!r}: the grid width 2 omega_max overflows a float")
    if omega_max == 0.0:
        grid = np.zeros(1)
    else:
        grid = np.linspace(-omega_max, omega_max, int(n_points))
    K = kernel(params, grid)
    K0sq = abs(kernel(params, 0.0)) ** 2
    if K0sq == 0.0:  # d = 0: nothing retrieved at any frequency
        flat = 0.0
    else:
        flat = float(np.max(np.abs(np.abs(K) ** 2 / K0sq - 1.0)))
    return KernelResponse(grid, K, flat)


def _check_k2(k2: float) -> float:
    if -K2_CLAMP <= k2 < 0.0 or 1.0 < k2 <= 1.0 + K2_CLAMP:
        warnings.warn(
            f"k2 = {k2!r} clamped to the [0, 1] boundary", UserWarning, stacklevel=3
        )
        return min(max(k2, 0.0), 1.0)
    if not (0.0 <= k2 <= 1.0):
        raise PhysicsError(f"k2 = {k2!r} outside [0, 1]")
    return float(k2)


def covariance_map(C_in: CovarianceMatrix, k2: float) -> CovarianceMatrix:
    """Memory channel on covariances: C_out = (1 - k2) I + k2 C_in.

    ``k2`` is |K_omega|^2 for the band of interest (eta in the narrowband
    regime).  The map contracts toward vacuum and preserves physicality.
    """
    k2 = _check_k2(k2)
    n = C_in.entries.shape[0]
    return CovarianceMatrix((1.0 - k2) * np.eye(n) + k2 * C_in.entries)


def apply_cascade(
    C_in: CovarianceMatrix,
    supermodes: ModeBasis,
    pumps: ModeBasis,
    k2: float,
) -> CovarianceMatrix:
    """Cascade of ensembles, one per pump mode, spanning the signal subspace.

    ``C_in`` lives on the supermode basis.  The pumps, one per mode, must span
    the same subspace; the retrieved state is then basis independent and
    equals ``covariance_map(C_in, k2)``.  The output is computed through the
    pump projector in the supermode frame, H^H H with the M x M overlaps
    H = A Psi^H, symplectically embedded, rather than assumed, so span defects
    surface as output defects.  The span gap is the pump amplitude left
    outside the supermode span, max |A - H Psi|; nothing of teeth x teeth
    size is built.
    """
    k2 = _check_k2(k2)
    M = C_in.mode_count
    if len(supermodes) != M:
        raise DimensionError(
            f"state has {M} modes but supermode basis has {len(supermodes)}"
        )
    if len(pumps) != M:
        raise DimensionError(f"state has {M} modes but pump basis has {len(pumps)}")
    if (pumps.tooth_offset, pumps.tooth_count) != (supermodes.tooth_offset, supermodes.tooth_count):
        raise DimensionError("pump and supermode bases live on different tooth ranges")
    Psi = supermodes.matrix
    A = pumps.matrix
    H = A @ Psi.conj().T
    gap = np.abs(A - H @ Psi).max()
    if gap > SPAN_TOL:
        raise PhysicsError(
            f"pump basis does not span the supermode subspace "
            f"(span gap {gap:.3e}); the cascade would leak state"
        )
    S = symplectic_embedding(H.conj().T @ H)
    n = 2 * M
    out = np.eye(n) + k2 * (S @ (C_in.entries - np.eye(n)) @ S.T)
    return CovarianceMatrix(out)


def pulse_capacity(T: float, rep_rate: float) -> int:
    """Number of comb pulses stored in a write window: round(T * rep_rate)."""
    if T < 0.0:
        raise PhysicsError("T must be >= 0")
    if rep_rate <= 0.0:
        raise PhysicsError("rep_rate must be positive")
    pulses = T * rep_rate
    if not np.isfinite(pulses):
        raise PhysicsError(f"T * rep_rate = {pulses} pulses is not finite")
    return int(round(pulses))
