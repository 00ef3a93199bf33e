"""Space-time write/read dynamics and numerical kernel validation.

Two independent routes compute the same physics:

* analytic route — the closed-form Bessel-kernel integrals for the stored
  coherence profile (``write_analytic``) and the retrieved envelope (the
  transfer measurement's read), both evaluated by one Simpson quadrature.
  Each kernel is J0 on a small Chebyshev core (p x p nodes, p grown until
  the core's trailing coefficients vanish) times barycentric interpolation
  matrices for its rows and columns, so no grid-sized J0 table is built;
  row slices of the column matrix give the error estimate;
* PDE route — the coupled envelope equations
  (d/dt + gamma_s) b = sqrt(d gamma_s) a,  d/dz a = -sqrt(d gamma_s) b,
  discretized in z by a cumulative trapezoid: a = a(0, t) - sqrt(d) times
  the trapezoid prefix sum of b.  ``pde_write`` marches them in time, with
  the decay handled by an exact exponential factor per step and one
  corrector pass for second-order accuracy.  The march runs on a wavefront:
  z is cut into chunks of 4 cells, chunk j advances to sample q - j at
  macro step q, and a macro step is one product of the active chunks with
  a fixed (16 x 16) step matrix, with no prefix sum (time grids shorter
  than the chunk count step down all of z instead).  It marches one real
  drive from rest and hands back the traces the energy budget needs, taken
  once per ring of steps; ``pde_write`` marches a complex drive as two such
  marches, its real and imaginary parts.  No route keeps an (n_z, n_t)
  history.
  The transfer measurement solves the same z-discretized system exactly in
  time, with A = -I + sqrt(d) times the field's prefix sum as generator
  (``_prefix_sum``, the one such sum outside the march):
  db/dtau = A b + sqrt(d) a(0, tau).  Its probe write is the Taylor sum
  b = sqrt(d) sum_k (A^k 1) m_k over the moments m_k of the linearly
  interpolated probe samples, to degree 7 at most.  Its read has a dark
  boundary, so it is db/dtau = A b: the real one-sample propagator
  M = exp(h A), a Taylor series in that prefix sum, makes every read
  sample exact, and the read advances in blocks of 128 samples, each the
  rows r M^i (i < 128) times the state and the next state M^128 times it.
  Each power of M is its column 0 and one lower-triangular Toeplitz column,
  so each of the seven squarings is two convolutions of n_z vectors, and
  the setup costs O(n_z^2) per power, about 1.7 ms at n_z = 300 (d = 4,
  2-vCPU x86-64).  Probes are the columns of (n_z, k) arrays, so all
  probes of a measurement share one write sum and one read.  Both routes
  read their whole window, 5T unless set.

Everything internal runs in scaled units (tau = gamma_s t, z in [0,1]); the
public API speaks SI seconds.  Only the pump-projected scalar field is
simulated: comb components orthogonal to the pump never couple.

The end-to-end transfer function is measured with trailing probes: the
coherence decays at gamma_s during write, so only input arriving within the
last ~1/gamma_s of the window is stored.  A probe placed at the end of the
window has its whole composite response captured in the read record, and the
ratio of output to input spectral amplitudes reproduces the channel kernel.
Referenced to a read clock that restarts at the end of the write window, the
measured gain equals -K_omega * exp(i omega T); its grid defaults and
floors are ``transfer_function_estimate``'s.  One Richardson rule
(``_richardson``) estimates the error of the Bessel quadratures and of the
read clock's Fourier sum, whose Simpson sum over every read sample is the
gain's numerator.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import MemoryParams, kernel
from .errors import (
    DimensionError,
    PhysicsError,
    ProbeDesignError,
    ResolutionError,
    ResolutionWarning,
)

__all__ = [
    "StoredProfile",
    "WriteRecord",
    "bessel_j0",
    "simpson_weights",
    "write_analytic",
    "pde_write",
    "energy_budget",
    "transfer_function_estimate",
    "expected_gain",
]

QUAD_ERROR_LIMIT = 1e-6      # estimated relative quadrature error above this errors out
LEAKAGE_LIMIT = 1e-2         # capture-bias estimate above this is a probe-design error
PROBE_BAND_LIMIT = 0.3       # |omega| / gamma_s supported by the probe protocol
READ_SUM_ERROR_LIMIT = 1e-4  # estimated relative error of the read clock's Fourier sum
CFL_WARN = 0.1               # gamma_s * dt above this is under-resolved marching
# Largest [dynamics] n_z * n_t: a bound on write-march work, not on memory
# (``pde_write`` holds a ring of march steps, 1 MiB at n_z = 2000 and 6 MB at
# most, and O(n_z + n_t) values).  A real drive marches at 9-10 ns a cell at
# 4096 x 8192 and 1024 x 32768 (skewed), 10-14 at 8192 x 1024 and
# 131072 x 256 (full z; 2-vCPU x86-64), so 0.3-0.5 s at the cap.
MAX_GRID_CELLS = 2**25
_READ_BLOCK = 128            # PDE read samples per power of the one-sample propagator
_CHUNK = 4                   # z cells per chunk of the skewed write march
_MARCH_BYTES = 2**20         # size of a write march's ring of steps, its traces taken per ring
_MARCH_RING = 16             # fewest macro steps in a skewed ring: over 4 or fewer, its |b|^2
                             # einsum ran 8-9 ns a cell, against 2-3 over 16 (2-vCPU x86-64)
_TAYLOR_TOL = 1e-17          # remainder bound of the propagator's Taylor series
# Largest PDE transfer n_z: the read holds an n_z x n_z float64 matrix,
# 128 MiB at the cap.
_MAX_READ_N_Z = 4096


# ----------------------------------------------------------------------------
# special functions and quadrature weights

_SERIES_CUT = 12.0
_J0_BLOCK = 1 << 14          # elements per evaluation block (128 KiB of float64)


def _hankel_horner(n):
    """J0's Hankel expansion (A&S 9.2.5) as Horner coefficients in y = 1/x^2.

    P from the first n even terms, Q/x from the first n odd terms, highest
    power first.
    """
    c, ak = [1.0], 1.0
    for k in range(1, 2 * n):
        ak *= -((2 * k - 1) ** 2) / (8.0 * k)
        c.append(ak * (-1) ** (k // 2))
    return tuple(c[-2::-2]), tuple(c[::-2])


# Power series (A&S 9.1.12) in q = x^2/4 as Horner coefficients, highest
# power first: (-1)^k/(k!)^2 for k < 34, the last term below 1e-23 at x = 12.
_J0_SERIES = tuple((-1) ** k / math.factorial(k) ** 2 for k in range(34))[::-1]
_J0_P, _J0_Q = _hankel_horner(11)


def _horner(coeffs, y, out):
    out.fill(coeffs[0])
    for c in coeffs[1:]:
        out *= y
        out += c
    return out


def _j0_series(x, out):
    return _horner(_J0_SERIES, 0.25 * x * x, out)


def _j0_hankel(x, out):
    y = 1.0 / (x * x)
    p = _horner(_J0_P, y, np.empty_like(x))
    q = _horner(_J0_Q, y, np.empty_like(x))
    q /= x
    chi = x - 0.25 * np.pi
    p *= np.cos(chi)
    q *= np.sin(chi)
    p -= q
    return np.multiply(p, np.sqrt(2.0 / (np.pi * x)), out=out)


def bessel_j0(x):
    """Zeroth-order Bessel function of the first kind.

    Fixed-order Horner evaluation: the 34-term power series in x^2/4 below
    x = 12, the 22-term Hankel asymptotic expansion (A&S 9.2.5) at and beyond.
    The flattened |x| is evaluated in blocks of 2^14 elements written into
    the output, so temporaries stay block-sized whatever the input size.
    Measured absolute error against scipy.special.j0 for |x| <= 50 is below
    1e-12: at most 9.8e-13 just below the cut (series rounding), 5.7e-13 on
    the Hankel side.  The arguments 2*sqrt(...) used here stay well inside
    that range.  Accepts scalars or arrays of any shape; even in x.
    """
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xf = np.asarray(x, dtype=float)
    flat = xf.ravel()
    out = np.empty(flat.size)
    for start in range(0, flat.size, _J0_BLOCK):
        xb = np.abs(flat[start:start + _J0_BLOCK])
        ob = out[start:start + _J0_BLOCK]
        small = xb < _SERIES_CUT
        xs, xl = xb[small], xb[~small]
        ob[small] = _j0_series(xs, np.empty_like(xs))
        ob[~small] = _j0_hankel(xl, np.empty_like(xl))
    return float(out[0]) if scalar else out.reshape(xf.shape)


def simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights for n uniform samples with spacing h.

    An odd interval count is closed with a 3/8-rule tail, so any n >= 3 is
    integrated at full (fourth) order.
    """
    if n < 3:
        raise DimensionError("composite Simpson needs at least 3 samples")
    w = np.zeros(n)
    m = n - 1
    if m % 2 == 0:
        w[0] = w[-1] = 1.0
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= h / 3.0
    elif n == 4:
        w[:] = np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * h / 8.0)
    else:
        k = n - 3  # Simpson over samples [0, k-1], 3/8 tail over the last four
        w[0] = w[k - 1] = 1.0
        w[1:k - 1:2] = 4.0
        w[2:k - 1:2] = 2.0
        w *= h / 3.0
        w[k - 1:] += np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * h / 8.0)
    return w


def _richardson(simpson, n):
    """(S, est): S = simpson(n, 1), and Richardson's |S_h - S_2h| / 15 relative to max |S|.

    ``simpson(m, stride)`` sums the first m samples at that stride, so S
    takes all n samples (a 3/8 tail when n is even) and est the leading odd run.
    """
    S = simpson(n, 1)
    m = n - (n % 2 == 0)
    fine = S if m == n else simpson(m, 1)
    est = float(np.abs(fine - simpson(m, 2)).max()) / 15.0 / max(float(np.abs(S).max()), 1e-300)
    return S, est


def tukey_window(n: int) -> np.ndarray:
    """Tukey window of n samples: flat, with raised-cosine tapers over the first and last 5%."""
    t = np.linspace(0.0, 1.0, int(n))
    w = np.ones(int(n))
    edge = 0.1 / 2.0
    lo = t < edge
    hi = t > 1.0 - edge
    w[lo] = 0.5 * (1.0 + np.cos(np.pi * (t[lo] / edge - 1.0)))
    w[hi] = 0.5 * (1.0 + np.cos(np.pi * ((t[hi] - 1.0 + edge) / edge)))
    return w


# ----------------------------------------------------------------------------
# grids

@dataclass(frozen=True, eq=False)
class StoredProfile:
    """Coherence profile b(z, T) left in the ensemble after the write window."""

    z_points: np.ndarray
    b_T: np.ndarray

    def __post_init__(self):
        z = np.array(self.z_points, dtype=float)
        b = np.array(self.b_T, dtype=complex)
        if z.ndim != 1 or b.shape != z.shape:
            raise DimensionError("profile needs matching 1-d z and b arrays")
        if np.any(np.diff(z) <= 0):
            raise PhysicsError("z grid must be strictly ascending")
        if not np.all(np.isfinite(b.view(float))):
            raise PhysicsError("profile must be finite")
        z.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "z_points", z)
        object.__setattr__(self, "b_T", b)


@dataclass(frozen=True, eq=False)
class WriteRecord:
    """What ``pde_write`` keeps of a write march: b(., T) and three traces.

    ``a_in`` and ``a_out`` are a(0, t) and a(1, t) on ``t_points`` (SI
    amplitude units); ``b_sq_dt`` is the integral of |b|^2 over the window at
    each z point of ``profile``.  Every array is stored as a read-only copy.
    """

    profile: StoredProfile
    t_points: np.ndarray
    a_in: np.ndarray
    a_out: np.ndarray
    b_sq_dt: np.ndarray

    def __post_init__(self):
        t = np.array(self.t_points, dtype=float)
        a_in = np.array(self.a_in, dtype=complex)
        a_out = np.array(self.a_out, dtype=complex)
        b_sq_dt = np.array(self.b_sq_dt, dtype=float)
        if t.ndim != 1 or a_in.shape != t.shape or a_out.shape != t.shape:
            raise DimensionError("a_in and a_out must be 1-d traces matching t_points")
        if b_sq_dt.shape != self.profile.z_points.shape:
            raise DimensionError("b_sq_dt needs one value per profile z point")
        if not all(np.isfinite(x).all() for x in (a_in, a_out, b_sq_dt)):
            raise PhysicsError("fields must be finite everywhere")
        for name, arr in zip(("t_points", "a_in", "a_out", "b_sq_dt"), (t, a_in, a_out, b_sq_dt)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _uniform_spacing(x: np.ndarray, name: str) -> float:
    dx = np.diff(x)
    if dx.size == 0:
        raise DimensionError(f"{name} grid needs at least 2 samples")
    if np.abs(dx - dx[0]).max() > 1e-9 * abs(dx[0]):
        raise DimensionError(f"{name} grid must be uniform")
    return float(dx[0])


def _scaled_span(name, value, d):
    """``value``, a span of scaled time (tau = gamma_s t), checked where it is formed.

    PhysicsError names it unless it is a positive normal float (a zero step
    divides the march by zero) and 4 d value, the kernel's J0 argument squared,
    is finite.
    """
    if not np.finfo(float).tiny <= value < math.inf:
        state = "overflows a float" if value > 1.0 else "is below the smallest normal float"
        raise PhysicsError(f"{name} = {value!r} {state}")
    if not 4.0 * d * value < math.inf:
        raise PhysicsError(f"d * {name} = {d!r} * {value!r}: the kernel's J0 argument "
                           "overflows a float")
    return value


# ----------------------------------------------------------------------------
# analytic route

_CORE_START = 17             # first Chebyshev core size p; then 2p - 1 = 33, 65, ...
_CORE_TOL = 1e-13            # trailing core coefficients below this, relative, resolve it;
                             # J0's own error keeps the tail at 1e-14 .. 4e-14


def _core_nodes(x, p):
    """p Chebyshev-Lobatto points on [min x, max x], largest first; x itself if x.size <= p."""
    if x.size <= p:
        return x
    lo, hi = x.min(), x.max()
    return 0.5 * (hi + lo) + 0.5 * (hi - lo) * np.cos(np.pi / (p - 1) * np.arange(p))


def _interpolation(x, p):
    """(n, p) barycentric matrix from values at ``_core_nodes(x, p)`` to the samples x.

    Berrut & Trefethen, SIAM Rev. 46, 501 (2004), second form with the
    Chebyshev-Lobatto weights (-1)^k, halved at both ends.  A sample on a node
    takes that node's value exactly (all coincident nodes equally, when
    min x = max x); an axis of at most p samples is its own node set, and
    its matrix is the identity.
    """
    if x.size <= p:
        return np.eye(x.size)
    w = np.ones(p)
    w[1::2] = -1.0
    w[[0, -1]] *= 0.5
    # differences scaled by a power of two to unit size, so none overflows its reciprocal
    k = -np.frexp(np.abs(x).max())[1]
    diff = np.subtract.outer(np.ldexp(x, k), np.ldexp(_core_nodes(x, p), k))
    hit = diff == 0.0
    on_node = hit.any(axis=1)
    diff[hit] = 1.0
    A = w / diff
    A[on_node] = hit[on_node]
    A /= A.sum(axis=1, keepdims=True)
    return A


def _core_resolved(core, row_cheb, col_cheb):
    """Whether the core's last two Chebyshev coefficients per axis are negligible.

    The 2-D coefficients are a DCT-I of the core values (p x p cosine
    matrix); an axis on its own samples is exact and is not transformed.
    """
    p = max(core.shape)
    k = np.arange(p)
    dct = np.cos(np.pi / (p - 1) * (np.multiply.outer(k, k) % (2 * (p - 1))))
    dct[:, [0, -1]] *= 0.5
    dct[[0, -1]] *= 0.5
    coef = dct @ core if row_cheb else core
    coef = np.abs(coef @ dct.T if col_cheb else coef)
    tail = max(coef[-2:].max() if row_cheb else 0.0, coef[:, -2:].max() if col_cheb else 0.0)
    return tail <= _CORE_TOL * coef.max()


def _bessel_quadrature(rows, cols, d, samples, h, write):
    """(integral, relative error) of a memory kernel against sample columns.

    The write kernel sqrt(d) e^{-u} J0(2 sqrt(d z u)) takes rows z and lags
    u = Gamma - tau as columns; the read kernel -sqrt(d) e^{-tau}
    J0(2 sqrt(d tau (1 - z))) takes rows tau and columns 1 - z.  ``samples``
    is (n,) or (n, k) on a uniform grid of spacing h along the columns.

    J0(2 sqrt(d x)) is entire in x = rows * cols, so the kernel is
    A_rows F A_cols^T: F is J0 on a p x p core of Chebyshev-Lobatto nodes
    spanning the rows and the columns (Townsend & Trefethen, SISC 35, C495
    (2013)), and each A interpolates one axis with the decay factor folded
    in.  p grows as 17, 33, 65, ... until F's trailing Chebyshev
    coefficients are negligible; an axis reached by p keeps its own samples.
    The error is ``_richardson``'s, whose partial sums read row slices of
    A_cols: the write kernel depends only on the lag behind the last sample,
    so the leading samples meet its trailing columns.
    """
    p = _CORE_START
    while True:
        arg = np.multiply.outer(_core_nodes(rows, p), _core_nodes(cols, p)) * d
        core = bessel_j0(2.0 * np.sqrt(np.maximum(arg, 0.0)))
        row_cheb, col_cheb = rows.size > p, cols.size > p
        if not (row_cheb or col_cheb) or _core_resolved(core, row_cheb, col_cheb):
            break
        p = 2 * p - 1
    a_rows, a_cols = _interpolation(rows, p), _interpolation(cols, p)
    if write:
        a_cols *= (np.sqrt(d) * np.exp(-cols))[:, None]
    else:
        a_rows *= (-np.sqrt(d) * np.exp(-rows))[:, None]  # the read field's sign
    n = samples.shape[0]
    x = samples.reshape(n, -1)
    k = x.shape[1]

    def simpson(m, stride):
        start = n - m if write else 0
        xs = x[:m:stride]
        wx = simpson_weights(len(xs), stride * h)[:, None] * xs
        y = a_cols[start:start + m:stride].T @ np.hstack([wx.real, wx.imag])
        y = a_rows @ (core @ y)
        return y[:, :k] + 1j * y[:, k:]

    fine, est = _richardson(simpson, n)
    return fine.reshape(rows.size, *samples.shape[1:]), est


def _checked_quadrature(rows, cols, d, samples, h, write):
    """``_bessel_quadrature``'s integral; an error estimate above 1e-6 raises ResolutionError."""
    out, est = _bessel_quadrature(rows, cols, d, samples, h, write)
    if est > QUAD_ERROR_LIMIT:
        stage, what = ("write", "input") if write else ("read", "profile")
        raise ResolutionError(
            f"{stage} quadrature error estimate {est:.2e} exceeds {QUAD_ERROR_LIMIT:g}; "
            f"try at least {2 * samples.shape[0] - 1} {what} samples"
        )
    return out


def write_analytic(a_in, params: MemoryParams, n_z: int) -> StoredProfile:
    """Stored coherence profile b(z, T) from the closed-form write kernel.

    Parameters
    ----------
    a_in : array_like of complex
        Input envelope sampled uniformly on [0, T] (SI amplitude units).
    params : MemoryParams
    n_z : int
        Number of output positions on [0, 1].

    The kernel integral is evaluated by composite Simpson quadrature over the
    sample grid, checked against its stride-2 sub-grid over the leading odd
    run of samples; estimated relative error above 1e-6 raises ResolutionError.

    The profile matches the PDE route: b = sqrt(d gamma_s) * int e^{-gamma_s u}
    J0(2 sqrt(d gamma_s z u)) a(T-u) du, evaluated in scaled time with the
    input amplitude carried as a / sqrt(gamma_s).  A non-finite sample of
    ``a_in``, or a scaled window gamma_s T or step gamma_s dt out of float
    range, raises PhysicsError naming it before any quadrature.
    """
    a = np.asarray(a_in, dtype=complex)
    if a.ndim != 1 or a.size < 9:
        raise DimensionError("a_in must be a 1-d envelope with at least 9 samples")
    if not np.isfinite(a).all():
        raise PhysicsError("a_in must be finite at every sample")
    if n_z < 4:
        raise DimensionError("n_z must be at least 4")
    Gamma = _scaled_span("gamma_s * T", params.gamma_s * params.T, params.d)
    _scaled_span("gamma_s * dt", Gamma / (a.size - 1), params.d)
    tau = np.linspace(0.0, Gamma, a.size)
    z = np.linspace(0.0, 1.0, int(n_z))
    if params.d == 0.0:
        return StoredProfile(z, np.zeros(int(n_z), dtype=complex))
    b = _checked_quadrature(z, Gamma - tau, params.d, a / np.sqrt(params.gamma_s), tau[1] - tau[0],
                            write=True)
    return StoredProfile(z, b)


# ----------------------------------------------------------------------------
# PDE route

def _field_scale(d, n_z):
    """nc = -sqrt(d) / (2 (n_z - 1)): the field a is a(0) plus nc times b's trapezoid prefix sum."""
    return -(0.5 * np.sqrt(d) / (n_z - 1))


def _step_weights(h, d):
    """(e, sqrt(d) I0, sqrt(d) (I0 - I1), sqrt(d) I1) of one march step of scaled length h."""
    sq, e = np.sqrt(d), np.exp(-h)
    I0, I1 = 1.0 - e, (h - 1.0 + e) / h
    return e, sq * I0, sq * (I0 - I1), sq * I1


def _chunk_matrix(h, d, n_z):
    """The (3L + 4)-square float64 matrix of one march step of one chunk of L = _CHUNK cells.

    A row of inputs is the chunk's [b (for e b only), b, a] at the last
    sample and then the carries [b*, a*, b, a] of the cell above it at the
    new sample; the columns give the carries of the chunk's last cell and
    then [b, b, a] at the new sample, so a product's carries land in the
    next chunk's slots (see ``_skewed_march``).  The coefficients are
    composed in long double and rounded once, except e: it stays the exact
    float64 decay factor on its own input column, where a fused e + O(h)
    coefficient would round the dominant term of every step.
    """
    L, ld = _CHUNK, np.longdouble
    e, w0, w01, w1 = (ld(c) for c in _step_weights(h, d))
    nc = ld(_field_scale(d, n_z))
    x = np.eye(3 * L + 4, dtype=ld)  # row m: input m in terms of the inputs
    b_e, b, a = x[:L], x[L:2 * L], x[2 * L:3 * L]
    carry_b_star, carry_a_star, carry_b, carry_a = x[3 * L:]

    def field(a_above, b_above, b):
        # a_k = a_above + nc (b_above + 2 (b_0 + ... + b_{k-1}) + b_k)
        return a_above + nc * np.cumsum(np.vstack([b_above, b[:-1]]) + b, axis=0)

    b_star = e * b + w0 * a
    a_star = field(carry_a_star, carry_b_star, b_star)
    rest = w01 * a + w1 * a_star  # b at the new sample, less e b
    a_new = field(carry_a, carry_b, e * b + rest)
    b_new = e * b_e + rest
    return np.vstack([e * b_e[-1] + w0 * a[-1], a_star[-1], b_new[-1], a_new[-1],
                      b_new, b_new, a_new]).T.astype(float)


def _cell0(s, h, d):
    """Cell 0's carries [b*, a*, b, a] at every sample (b* from sample 1), from rest.

    Its field is the drive s, so its b is a scalar recurrence.
    """
    e, w0, w01, w1 = _step_weights(h, d)
    b = [0.0]
    for u in (w01 * s[:-1] + w1 * s[1:]).tolist():
        b.append(float(e) * b[-1] + u)
    carries = np.stack([np.zeros(len(s)), s, b, s], axis=1)
    carries[1:, 0] = e * carries[:-1, 2] + w0 * s[:-1]
    return carries


def _skewed_march(s, weights, h, d, n_z):
    """``_march`` on a time grid at least as long as its chunk count.

    Cells 1 .. n_z - 1 are cut into P chunks of L = _CHUNK cells (the last
    padded with cells past z = 1, which no real cell reads).  The march is
    Lamport's hyperplane schedule (CACM 17, 83 (1974)): at macro step q,
    chunk j advances to sample q - j with the carries chunk j - 1 left at
    macro step q - 1, so a macro step is one product of the active chunks'
    rows with ``_chunk_matrix`` and no prefix sum.  The rows sit in chunk
    order reversed, so each output row, written 4 entries before its input
    row, leaves its carries in the next chunk's slots; cell 0 is
    ``_cell0``'s.  Macro steps fill a ring of K row sets (about _MARCH_BYTES,
    _MARCH_RING at least: 6 MB at most, at P = 2896, the most chunks under
    MAX_GRID_CELLS), and the traces are taken once per ring: a(1, .) and
    b(., T) by index, and the weighted |b|^2 sums on the chunks active in it.
    """
    L, n_t = _CHUNK, len(s)
    P, W = -(-(n_z - 1) // L), 3 * L + 4
    K = max(2, min(n_t + P - 2, max(_MARCH_RING, _MARCH_BYTES // (8 * (P * W + 4)))))
    ring = np.zeros((K, P * W + 4))
    rows = ring[:, 4:].reshape(K, P, W)  # row P - 1 - j: chunk j
    outs = ring[:, :-4].reshape(K, P, W)
    rows[:, :, 2 * L:3 * L] = s[0]  # at rest: b = 0 and a = s[0] in every cell
    carry0 = _cell0(s, h, d)
    b_cell0 = carry0[:, 2]
    a_1, b_end, b_T, b_sq_out = np.empty(n_t), np.empty((P, L)), np.empty(n_z), np.empty(n_z)
    a_1[0] = s[0]
    last = 2 * L + (n_z - 2) % L  # cell n_z - 1's a in row 0
    b_sq, acc = np.zeros((P, L)), np.empty((P, L))  # rows' order
    # weight of row p at ring slot i of the ring starting at macro step q: w_at[q + i][p]
    wz = np.zeros(n_t + 3 * P + K)
    wz[P:P + n_t - 1] = weights[1:]
    w_at = np.lib.stride_tricks.sliding_window_view(wz, P)
    M = _chunk_matrix(h, d, n_z)  # built last: the loop allocates nothing field-sized
    q_end = n_t + P - 2
    for q0 in range(1, q_end + 1, K):
        k = min(K, q_end + 1 - q0)
        for i in range(k):
            q = q0 + i
            lo, hi = P - min(P, q), P - max(1, q - n_t + 2)  # rows of chunks q - n_t + 1 .. q - 1
            if hi == P - 1:
                rows[i - 1, P - 1, 3 * L:] = carry0[q]
            np.matmul(rows[i - 1, lo:hi + 1], M, out=outs[i, lo:hi + 1])
        t_lo, t_hi = max(1, q0 - P + 1), min(n_t - 1, q0 + k - P)
        if t_lo <= t_hi:  # chunk P - 1 at sample q - P + 1
            a_1[t_lo:t_hi + 1] = rows[t_lo + P - 1 - q0:t_hi + P - q0, 0, last]
        j = np.arange(max(0, q0 - n_t + 1), min(P, q0 + k - n_t + 1))
        b_end[j] = rows[j + n_t - 1 - q0, P - 1 - j, L:2 * L]  # chunks at sample n_t - 1
        lo, hi = P - min(P, q0 + k - 1), P - max(1, q0 - n_t + 2)
        n = hi + 1 - lo
        b = rows[:k, lo:hi + 1, L:2 * L]
        np.einsum("ip,ipl,ipl->pl", w_at[q0 + lo:q0 + lo + k, :n], b, b, out=acc[:n])
        np.add(b_sq[lo:hi + 1], acc[:n], out=b_sq[lo:hi + 1])
    del ring, rows, outs, b, acc
    b_T[0], b_T[1:] = b_cell0[-1], b_end.ravel()[:n_z - 1]
    # numpy's own sum: a BLAS dot of n_t terms would take its order from the thread count
    b_sq_out[0], b_sq_out[1:] = np.sum(weights * np.square(b_cell0)), b_sq[::-1].ravel()[:n_z - 1]
    return a_1, b_T, b_sq_out


def _prefix_matrices(h, d, n_z):
    """``_prefix_march``'s (2 x 2) products: [nc b*; e b + w01 a] from [b; a], then
    [b; nc b] from [a*; e b + w01 a], with (e, w0, w01, w1) = ``_step_weights``."""
    e, w0, w01, w1 = _step_weights(h, d)
    nc = _field_scale(d, n_z)
    return np.array([[nc * e, nc * w0], [e, w01]]), np.array([[w1, 1.0], [nc * w1, nc]])


def _prefix_march(s, weights, h, d, n_z):
    """``_march`` on a time grid shorter than its chunk count.

    Each step runs over all n_z cells: a (2 x 2) product for b* (times nc)
    and e b + sqrt(d) (I0 - I1) a, a field, a (2 x 2) product for b and
    nc b, and a field, each field one ``np.add.accumulate`` of the drive
    sample and the pair sums.  Steps fill a ring of K [b; a; nc b] rows
    (one at least; the b and a rows about _MARCH_BYTES), whose traces are
    taken per ring.
    """
    n_t = len(s)
    K = max(1, min(n_t, _MARCH_BYTES // (16 * n_z)))  # the nc b rows ride beyond the budget
    ring, p, w = np.empty((K, 3, n_z)), np.empty((2, n_z)), np.empty(n_z)
    a_1, b_T, b_sq = np.empty(n_t), np.empty(n_z), np.zeros(n_z)
    ring[0, 0], ring[0, 1] = 0.0, s[0]  # at rest
    predict, correct = _prefix_matrices(h, d, n_z)  # built last, as in _skewed_march
    for r in range(1, n_t + 1):
        i = r % K
        if not i or r == n_t:  # the traces of samples r - m .. r - 1
            m = i or K
            a_1[r - m:r] = ring[:m, 1, -1]
            np.square(ring[:m, 0], out=ring[:m, 2])
            np.matmul(weights[r - m:r], ring[:m, 2], out=w)
            b_sq += w
            if r == n_t:
                break
        prev, new = ring[i - 1], ring[i]
        w[0] = s[r]
        np.matmul(predict, prev[:2], out=p)        # [nc b*; e b + w01 a]
        np.add(p[0, 1:], p[0, :-1], out=w[1:])
        np.add.accumulate(w, out=p[0])             # [a*; e b + w01 a]
        np.matmul(correct, p, out=new[::2])        # [b; a; nc b] less a
        np.add(new[2, 1:], new[2, :-1], out=w[1:])
        np.add.accumulate(w, out=new[1])
    b_T[...] = ring[(n_t - 1) % K, 0]
    return a_1, b_T, b_sq


def _march(s, h, d, n_z, weights):
    """(a(1, .), b(., T), sum_t weights[t] |b(., t)|^2) of a march from rest driven by s.

    Exponential integrator in tau (exact decay factor e = e^{-h},
    predictor-corrector source weights I0 = 1-e^{-h}, I1 = (h-1+e^{-h})/h)
    with the field slaved to the coherence through a cumulative trapezoid
    in z at every stage: a = a(0) + nc * (pair sums of b accumulated down
    z), nc = ``_field_scale``.  ``s`` is the real boundary a(0, .) at every
    sample, and b = 0 before the first.  The kernel is chosen by grid
    shape: ``_skewed_march`` when n_t reaches the chunk count
    ceil((n_z - 1) / _CHUNK), else ``_prefix_march``, whose steps run down
    all of z.  A shorter grid leaves the wavefront a band of at most n_t
    chunks for n_t + P macro steps, and a ring that grows with P: at
    131072 x 9 it took 222 ns a cell against the full-z step's 17-22, and
    at 131072 x 256 it would hold 67 MB of ring (2-vCPU x86-64).  Each
    kernel holds a ring of about _MARCH_BYTES (at least _MARCH_RING skewed
    macro steps) and O(n_z + n_t) values, and no (n_z, n_t) history.
    ``pde_write`` is its one caller: the transfer solves the same
    z-discretized system exactly in time (``_exact_write``,
    ``_read_operator``), which the march approaches at second order in h.
    """
    kernel = _skewed_march if len(s) >= -(-(n_z - 1) // _CHUNK) else _prefix_march
    return kernel(s, weights, h, d, n_z)


def _join(re, im=None):
    """The traces of a drive from ``_march``'s traces of its real part and of its imaginary part.

    a(1, .) and b(., T) are complex with the bits of both parts, and the
    |b|^2 sums add; a real drive has no ``im`` and keeps its float64 traces.
    """
    if im is None:
        return re
    joined = [np.empty(x.shape, complex) for x in re[:2]]
    for z, x, y in zip(joined, re, im):
        z.real, z.imag = x, y
    return joined[0], joined[1], re[2] + im[2]


def _prefix_sum(v, scale, out):
    """``out`` = scale times v's trapezoid prefix sum down axis 0 from a zero row 0.

    The pair sums are scaled before they are accumulated; ``out`` must not overlap v.
    """
    out[0] = 0.0
    np.add(v[1:], v[:-1], out=out[1:])
    out[1:] *= scale
    return np.add.accumulate(out, axis=0, out=out)


def _taylor_degree(theta):
    """The smallest K with theta^{K+1} / (K+1)! <= _TAYLOR_TOL."""
    degree, remainder = 0, theta  # remainder = theta^(degree+1) / (degree+1)!
    while remainder > _TAYLOR_TOL:
        degree += 1
        remainder *= theta / (degree + 1)
    return degree


def _read_operator(h, d, n_z):
    """(R, P) of a dark read: R's rows are r M^i for i < _READ_BLOCK, and P = M^_READ_BLOCK.

    A dark read is db/dtau = A b with A = -I + sqrt(d) nc L, where L b is
    the trapezoid prefix sum of ``_march``'s field (pair sums accumulated
    down z from a zero row 0) and nc = -sqrt(d) / (2 (n_z - 1)).  M is its
    exact real propagator over one sample, e^{-h} exp(G) with
    G = h sqrt(d) nc L, so a read sample carries no time-step error; r is
    a(1, .) = nc L[-1] = nc [1, 2, ..., 2, 1].  Every column j >= 1 of L,
    and so of each power of M, is one lower-triangular Toeplitz column, so
    a power is carried as its column 0 and that Toeplitz column, and a
    product of two such matrices is two truncated convolutions (Bini & Pan,
    Polynomial and Matrix Computations, 1994): O(n_z^2) per product.
    exp(G) is a Taylor series on the unit columns e0 and e1, with L applied
    by ``_prefix_sum``.  Since ||G||_1 <= h d, the degree is the smallest K
    with (h d)^{K+1} / (K+1)! <= 1e-17; above h d = 1 the series is taken
    at G / 2^s and squared s times (Moler & Van Loan, SIAM Rev. 45, 3
    (2003)).  The powers come from repeated squaring, each squaring also
    doubling the rows of R through the dense power, so at most one
    n_z x n_z matrix is alive.
    """
    sq, nc = np.sqrt(d), _field_scale(d, n_z)
    halvings = math.ceil(math.log2(h * d)) if h * d > 1.0 else 0
    degree = _taylor_degree(h * d / 2**halvings)
    c = h / 2**halvings * sq * nc
    term, spare = np.eye(n_z, 2), np.empty((n_z, 2))
    col = term.copy()
    for k in range(1, degree + 1):
        term, spare = _prefix_sum(term, c / k, spare), term
        col += term
    power = col[:, 0], col[1:, 1]  # column 0 and the Toeplitz column of exp(G / 2^s)

    def square(x):
        x0, xi = x
        y0 = x0[0] * x0
        y0[1:] += np.convolve(xi, x0[1:])[:n_z - 1]
        return y0, np.convolve(xi, xi)[:n_z - 1]

    def dense(x):
        X = np.zeros((n_z, n_z))
        X[:, 0] = x[0]
        # window i of [0] * (n_z - 2) + xi, reversed, is row i of the Toeplitz block
        X[1:, 1:] = np.lib.stride_tricks.sliding_window_view(
            np.concatenate((np.zeros(n_z - 2), x[1])), n_z - 1)[:, ::-1]
        return X

    for _ in range(halvings):
        power = square(power)
    power = tuple(math.exp(-h) * v for v in power)
    R = np.empty((_READ_BLOCK, n_z))
    R[0] = 2.0 * nc
    R[0, [0, -1]] = nc
    n = 1
    while n < _READ_BLOCK:
        np.matmul(R[:n], dense(power), out=R[n:2 * n])
        power = square(power)
        n *= 2
    return R, dense(power)


def _read_march(b0, n_t, h, d, n_z):
    """a(1, .) of a dark read from b0: all n_t samples, from sample 0.

    The state b0 (n_z,) or (n_z, k) is carried as one real (n_z, 2k) array
    of its real and imaginary parts; each block of _READ_BLOCK samples is
    R @ B and the next state P @ B, with (R, P) from ``_read_operator``.
    """
    R, P = _read_operator(h, d, n_z)
    n_t = int(n_t)
    out = np.empty((n_t,) + np.shape(b0)[1:], dtype=complex)
    flat = out.reshape(n_t, -1)
    b = np.asarray(b0, dtype=complex).reshape(n_z, -1)
    k = b.shape[1]
    B = np.hstack([b.real, b.imag])
    for start in range(0, n_t, _READ_BLOCK):
        y = R[:n_t - start] @ B
        flat[start:start + _READ_BLOCK] = y[:, :k] + 1j * y[:, k:]
        B = P @ B
    return out


def _exact_write(drive, h, d, n_z):
    """b at the last sample of a write from rest, driven by the linear interpolant of ``drive``.

    The written system is db/dtau = A b + sqrt(d) s(tau) 1, with A the dark
    read's generator (``_read_operator``) and s the boundary a(0, .), so
    b = sqrt(d) sum_k (A^k 1) m_k with the moments
    m_k = int_0^w u^k / k! s(w - u) du over the lag u, w = h (n_t - 1).
    Each A^k 1 is the previous vector's trapezoid prefix sum, and the m_k
    of the interpolant are a (K+1, n_t) weight matrix of closed-form hat
    moments, sums of positive terms, times ``drive`` ((n_t,) or (n_t, k),
    as ``_march``'s boundary).  Since ||A||_1 <= 1 + d, the degree K is the
    smallest with theta^{K+1} / (K+1)! <= 1e-17 at theta = w (1 + d).  The
    series alternates in sign, so it is meant for theta of order 1 or less:
    the transfer's leakage check keeps theta <= 0.026, and K <= 7 there
    (Hochbruck & Ostermann, Acta Numerica 19, 209 (2010)).
    """
    n_t = np.shape(drive)[0]
    degree = _taylor_degree(h * (n_t - 1) * (1.0 + d))
    # on the lag interval [i h, (i + 1) h], u = h (i + x) and
    # u^k / k! = h^k sum_j i^(k-j) / (k-j)! x^j / j!, whose products with the
    # hat functions 1 - x and x integrate to 1 / (j+2)! and (j+1) / (j+2)!
    i = np.arange(n_t - 1.0)
    powers = np.cumprod(np.vstack([np.ones_like(i), i / np.arange(1.0, degree + 1)[:, None]]),
                        axis=0)               # row m is i^m / m!
    j = np.subtract.outer(np.arange(degree + 1), np.arange(degree + 1))  # k - m
    # near[k, m] = 1 / (j+2)!; tril drops the wrapped entries above the diagonal
    near = np.tril(1.0 / np.cumprod(np.arange(1.0, degree + 3))[j + 1])
    W = np.zeros((degree + 1, n_t))           # columns in lag order: sample n_t - 1 first
    W[:, :-1] = near @ powers
    W[:, 1:] += (near * (j + 1)) @ powers
    W *= (h ** np.arange(1, degree + 2))[:, None]
    sq = np.sqrt(d)
    c = -(0.5 * d / (n_z - 1))                 # sqrt(d) nc
    V = np.empty((n_z, degree + 1))            # column k is A^k 1
    V[:, 0] = 1.0
    for k in range(1, degree + 1):
        _prefix_sum(V[:, k - 1], c, V[:, k])
        V[:, k] -= V[:, k - 1]
    return sq * (V @ (W[:, ::-1] @ drive))


def _write_boundary(a_in, params: MemoryParams, n_z: int, n_t: int):
    """(t, a(0, t)) of a write stage: ``a_in`` as n_t finite samples on [0, T]."""
    if n_z < 4 or n_t < 4:
        raise DimensionError("n_z and n_t must be at least 4")
    t = np.linspace(0.0, params.T, int(n_t))
    bound = np.asarray(a_in, dtype=complex)
    if bound.shape != t.shape:
        raise DimensionError(f"a_in must provide exactly n_t = {n_t} samples")
    if not np.isfinite(bound).all():
        raise PhysicsError("a_in must be finite at every sample")
    return t, bound


def pde_write(a_in, params: MemoryParams, n_z: int, n_t: int) -> WriteRecord:
    """Integrate the write stage over [0, T] with all atoms initially unexcited.

    ``a_in`` is the boundary envelope a(0, t) as n_t uniform samples on
    [0, T].  Warns when gamma_s * dt exceeds 0.1.  No (n_z, n_t) history is
    kept: ``_march`` returns a(1, .), b(., T) and the Simpson-weighted |b|^2
    sums, each taken once per ring of steps, so the write holds one ring
    and O(n_z + n_t) values.  A non-finite sample of ``a_in`` raises
    PhysicsError naming it before anything is marched.  A field that
    overflows reaches a(1, .), that sum or b(., T), and raises PhysicsError,
    as does a sum that overflows a float in SI units while every field is
    finite.  A complex drive marches as its real and imaginary parts, two
    float64 marches joined; one whose imaginary part is all zero marches as
    its real part alone, with the same bits, and the record's fields are
    complex either way.  Its scaled window and step are checked as
    ``write_analytic`` does.
    """
    t, bound = _write_boundary(a_in, params, n_z, n_t)
    if not bound.imag.any():
        bound = bound.real
    Gamma = _scaled_span("gamma_s * T", params.gamma_s * params.T, params.d)
    h = _scaled_span("gamma_s * dt", Gamma / (n_t - 1), params.d)
    if h > CFL_WARN:
        warnings.warn(f"gamma_s * dt = {h:.3f} exceeds {CFL_WARN}; marching is under-resolved",
                      ResolutionWarning, stacklevel=2)
    wt = simpson_weights(t.size, t[1] - t[0])
    if params.d == 0.0:
        a_0, a_1, b, b_sq_dt = bound, bound, np.zeros(int(n_z), dtype=complex), np.zeros(int(n_z))
    else:
        # scaled field: a_tilde = a / sqrt(gamma_s); ratio-free quantities are
        # unaffected, b matches the analytic-kernel normalization
        sg = np.sqrt(params.gamma_s)
        drive = bound / sg
        parts = (drive.real, drive.imag) if np.iscomplexobj(drive) else (drive,)
        # |b|^2 carries 1 / gamma_s and wt is in seconds, so the sum can
        # overflow in SI units while every field is finite; an overflow is
        # found from the finished sum and fields, not warned of per ring
        with np.errstate(over="ignore"):
            a_1, b, b_sq_dt = _join(*(_march(x, h, params.d, int(n_z), wt) for x in parts))
        a_0, a_1 = drive * sg, a_1 * sg
        if not np.isfinite(b_sq_dt).all() and all(np.isfinite(x).all() for x in (a_0, a_1, b)):
            raise PhysicsError("the SI integral of |b|^2 dt over the write window overflows "
                               f"a float (gamma_s = {params.gamma_s:g}, T = {params.T:g} s)")
    z = np.linspace(0.0, 1.0, int(n_z))
    return WriteRecord(StoredProfile(z, b), t, a_0, a_1, b_sq_dt)


def energy_budget(record: WriteRecord, params: MemoryParams) -> dict:
    """Write-stage energy bookkeeping: input = transmitted + stored + decayed.

    Returns the four terms plus the relative residual.  The decayed term is
    2 gamma_s * double integral of |b|^2 (coherence loss during the window).
    """
    t, z = record.t_points, record.profile.z_points
    wt = simpson_weights(t.size, _uniform_spacing(t, "t"))
    wz = simpson_weights(z.size, _uniform_spacing(z, "z"))
    e_in = float(np.sum(wt * np.abs(record.a_in) ** 2))
    e_out = float(np.sum(wt * np.abs(record.a_out) ** 2))
    e_stored = float(np.sum(wz * np.abs(record.profile.b_T) ** 2))
    e_decay = float(2.0 * params.gamma_s * wz @ record.b_sq_dt)
    resid = abs(e_in - e_out - e_stored - e_decay) / max(e_in, 1e-300)
    return {
        "input": e_in,
        "transmitted": e_out,
        "stored": e_stored,
        "decayed": e_decay,
        "residual": resid,
    }


# ----------------------------------------------------------------------------
# transfer-function measurement

def expected_gain(params: MemoryParams, omega):
    """Channel prediction for the measured gain: -K_omega * exp(i omega T)."""
    w = np.asarray(omega, dtype=float)
    g = -kernel(params, w) * np.exp(1j * w * params.T)
    return complex(g) if np.isscalar(omega) or w.ndim == 0 else g


def transfer_function_estimate(
    params: MemoryParams,
    probe_frequencies,
    T_read: float | None = None,
    *,
    path: str = "analytic",
    probe_width: float | None = None,
    n_probe: int | None = None,
    n_z: int | None = None,
    n_read: int | None = None,
) -> np.ndarray:
    """Measure the end-to-end write->read gain at the given frequencies.

    A smoothly windowed complex sinusoid occupying the trailing
    ``probe_width`` seconds of the write window is stored and retrieved; the
    output spectral amplitude on the read clock divided by the input spectral
    amplitude gives the complex gain, to be compared against
    ``expected_gain``: -K_omega * exp(i omega T).

    Frequencies are limited to |omega| <= 0.3 gamma_s.  The default probe
    width 0.002 |K_0| / (d gamma_s) keeps the capture-bias estimate
    d <gamma_s (T - t)> / |K_0| around 0.1%; probes whose estimate exceeds 1%
    raise ProbeDesignError, and so does a width too narrow for the probe
    samples to have distinct times at the end of the window.  ``path``
    selects the analytic quadrature route or the PDE route, exact in time for
    the z-discretized equations.  The analytic route checks its write and
    read quadratures as ``write_analytic`` checks its own: an estimated
    relative error above 1e-6 raises ResolutionError.

    The grids default per path.  ``analytic``: n_z = 1200 ensemble positions
    and n_probe = 1601 probe samples; ``pde``: n_z = 300 and n_probe = 401,
    where twofold finer grids move its gains by about 1e-6 relative.  Both
    paths read n_read = 6001 samples unless set.  A grid below its path's
    floor raises DimensionError naming it before any grid is built: on
    ``pde`` n_z below 4, n_probe below 3 or n_read below 5; on ``analytic``
    any of the three below 5, since each error estimate takes a stride-2
    Simpson sum over an odd run of samples.  Both paths read the whole
    window, 5T unless ``T_read`` is set.

    The PDE write is the exact solution of the z-discretized write from
    rest, driven by the linear interpolant of the probe samples (about
    0.3 ms at the default grids, 2-vCPU x86-64), and the PDE read the exact
    one-sample propagator of the dark read, advanced in blocks of 128
    samples (both as the module docstring says), so no sample carries a
    time-step error.  ``path="pde"`` with n_z above 4096 (128 MiB per
    matrix) raises DimensionError before any grid is built.

    Both paths check the read clock's Fourier sum: a Richardson estimate
    above 1e-4 raises ResolutionError with an n_read to try (the default
    6001 samples hold at the ``dynamics.ini`` working point to about
    d = 100).  When the estimate fails at the default n_read, the read is
    taken once more at the hinted n_read, and only a second failure raises
    (d = 100 passes on both paths; on the analytic path d = 400 passes and
    d = 800 raises); an explicit ``n_read`` raises on the first.  A scaled
    window gamma_s T or read horizon gamma_s T_read out of float range raises
    PhysicsError naming it before any probe is written.
    """
    omegas = np.atleast_1d(np.asarray(probe_frequencies, dtype=float))
    if not np.all(np.abs(omegas) <= PROBE_BAND_LIMIT * params.gamma_s):  # NaN fails too
        raise PhysicsError(
            f"probe frequencies must satisfy |omega| <= {PROBE_BAND_LIMIT} gamma_s"
        )
    if path not in ("analytic", "pde"):
        raise PhysicsError(f"unknown dynamics path {path!r}")
    if T_read is not None and not 0.0 < T_read < math.inf:
        raise PhysicsError(f"T_read must be positive and finite, got {T_read!r}")
    pde = path == "pde"
    follow_hint = n_read is None  # a default read retries once at its own hint
    n_z = int(n_z if n_z is not None else 300 if pde else 1200)
    n_probe = int(n_probe if n_probe is not None else 401 if pde else 1601)
    n_read = int(n_read if n_read is not None else 6001)
    # each read-sum and analytic error estimate is a stride-2 Simpson sum
    # over an odd run of samples: 5 of them
    floors = (4, 3, 5) if pde else (5, 5, 5)
    for name, n, least in zip(("n_z", "n_probe", "n_read"), (n_z, n_probe, n_read), floors):
        if n < least:
            raise DimensionError(f"{name} must be at least {least}, got {n}")
    if pde and n_z > _MAX_READ_N_Z:
        raise DimensionError(f"the PDE read needs n_z <= {_MAX_READ_N_Z} (one n_z x n_z "
                             f"matrix of 8 n_z^2 bytes), got n_z = {n_z}")
    if omegas.size == 0:
        return np.zeros(0, dtype=complex)
    if params.d == 0.0:
        return np.zeros(omegas.size, dtype=complex)

    Gamma = _scaled_span("gamma_s * T", params.gamma_s * params.T, params.d)
    horizon = 5.0 * params.T if T_read is None else float(T_read)
    span_r = _scaled_span("gamma_s * T_read", params.gamma_s * horizon, params.d)
    K0 = abs(kernel(params, 0.0))
    if probe_width is None:
        probe_width = 0.002 * K0 / (params.d * params.gamma_s)
    w_hat = params.gamma_s * float(probe_width)
    if not (0.0 < w_hat <= Gamma):
        raise ProbeDesignError(
            f"probe width {probe_width:g} s does not fit in the write window"
        )
    tau_p = np.linspace(Gamma - w_hat, Gamma, n_probe)
    if not np.all(np.diff(tau_p) > 0.0):
        raise ProbeDesignError(
            f"probe width {probe_width:g} s is below the write window's resolution: "
            f"its {n_probe} probe samples do not all have distinct times"
        )
    env = tukey_window(n_probe)
    wts_p = simpson_weights(tau_p.size, tau_p[1] - tau_p[0])
    centroid = float(np.sum(wts_p * env * (Gamma - tau_p)) / np.sum(wts_p * env))
    leakage = params.d * centroid / K0
    if leakage > LEAKAGE_LIMIT:
        raise ProbeDesignError(
            f"capture-bias estimate {leakage:.3f} exceeds {LEAKAGE_LIMIT}; "
            "narrow the probe or raise the optical depth"
        )

    om_hat = omegas[:, None] / params.gamma_s
    probes = env * np.exp(1j * om_hat * tau_p)
    # one write and one read of all probes at once, probes as columns
    if pde:
        # fields vanish before the probe support: the write starts at its left edge
        b = _exact_write(probes.T, tau_p[1] - tau_p[0], params.d, n_z)
    else:
        z = np.linspace(0.0, 1.0, n_z)
        b = _checked_quadrature(z, Gamma - tau_p, params.d, probes.T, tau_p[1] - tau_p[0], True)
    while True:
        tau_r = np.linspace(0.0, span_r, n_read)
        h_r = tau_r[1] - tau_r[0]
        if pde:
            out = _read_march(b, n_read, h_r, params.d, n_z).T
        else:
            out = _checked_quadrature(tau_r, 1.0 - z, params.d, b, z[1] - z[0], False).T
        phase = np.exp(-1j * om_hat * tau_r)

        def simpson(m, stride):
            x = out[:, :m:stride]
            return np.sum(simpson_weights(x.shape[1], stride * h_r) * x * phase[:, :m:stride], 1)

        A_out, est = _richardson(simpson, n_read)  # A_out: the gains' numerator
        if est <= READ_SUM_ERROR_LIMIT:
            break
        # the sum's error falls as h^4; the hint aims at half the limit
        need = 1 + math.ceil((n_read - 1) * (2.0 * est / READ_SUM_ERROR_LIMIT) ** 0.25)
        if not follow_hint:
            raise ResolutionError(
                f"read-clock Fourier sum error estimate {est:.2e} exceeds "
                f"{READ_SUM_ERROR_LIMIT:g}; try n_read >= {need}"
            )
        n_read, follow_hint = need, False
    A_in = np.sum(wts_p * probes * np.exp(-1j * om_hat * tau_p), axis=1)
    return A_out / A_in
