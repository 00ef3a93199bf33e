"""Shared helpers for the test suite."""

import math

import numpy as np

from combmemory import SqueezingSpectrum, apply_mode_unitary, dynamics, squeezed_vacuum


def random_unitary(M, rng):
    if M == 1:  # QR phase convention degenerates for 1x1
        return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * np.eye(1)
    Z = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
    Q, R = np.linalg.qr(Z)
    ph = np.diag(R) / np.abs(np.diag(R))
    return Q * ph[None, :]


def random_pure_state(M, rng, r_max=1.5):
    """Random pure M-mode Gaussian state: squeezed vacua under a random mixer."""
    zetas = np.exp(-2.0 * rng.uniform(0.0, r_max, size=M))
    angles = rng.uniform(0.0, np.pi, size=M)
    C = squeezed_vacuum(SqueezingSpectrum(zetas), angles=angles)
    return apply_mode_unitary(C, random_unitary(M, rng))


def oracle_march(b0, boundary, h, d, n_z):
    """The write march's scheme in plain per-step form: (b, a) at every sample, from sample 0.

    The accuracy oracle for ``dynamics._march``: every coefficient and field
    is computed in long double, each stage as the scheme states it, with
    fresh arrays: b* = e b + sqrt(d) I0 a, then
    a* = a(0) + nc * cumsum of the pair sums of b*, then
    b = e b + sqrt(d) ((I0 - I1) a + I1 a*) and its field, with
    nc = -sqrt(d) / (2 (n_z - 1)).  ``b0`` is (n_z,) or (n_z, k) and
    ``boundary`` (n_t,) or (n_t, k), real or complex.
    """
    real = np.longdouble
    cplx = np.iscomplexobj(b0) or np.iscomplexobj(boundary)
    kind = np.result_type(real, complex) if cplx else np.dtype(real)
    h, sq = real(h), np.sqrt(real(d))
    nc = -sq / (2 * (n_z - 1))
    e = np.exp(-h)
    I0 = 1 - e
    I1 = (h - 1 + e) / h
    s = np.asarray(boundary).astype(kind)

    def field(j, b):
        pairs = np.concatenate([np.zeros((1,) + b.shape[1:], kind), b[1:] + b[:-1]])
        return s[j] + nc * np.cumsum(pairs, axis=0)

    b = np.asarray(b0).astype(kind)
    a = field(0, b)
    yield b, a
    for j in range(1, len(s)):
        b_star = e * b + sq * I0 * a
        a_star = field(j, b_star)
        b = e * b + sq * ((I0 - I1) * a + I1 * a_star)
        a = field(j, b)
        yield b, a


def oracle_traces(b0, boundary, h, d, n_z, weights):
    """``dynamics._march``'s traces (a(1, .), b(., T), sum_t weights[t] |b(., t)|^2) from
    ``oracle_march`` in long double."""
    a_1, b_sq = [], 0
    for w, (b, a) in zip(np.asarray(weights, np.longdouble), oracle_march(b0, boundary, h, d, n_z)):
        a_1.append(a[-1])
        b_sq = b_sq + w * np.abs(b) ** 2
    return np.array(a_1), b, b_sq


def oracle_write(a_in, params, n_z, n_t):
    """A ``WriteRecord`` of ``pde_write``'s inputs from the long-double oracle, rounded once."""
    bound, _, h = dynamics._write_boundary(a_in, params, n_z, n_t)
    t = np.linspace(0.0, params.T, n_t)
    sg = np.sqrt(np.longdouble(params.gamma_s))
    wt = dynamics.simpson_weights(n_t, t[1] - t[0])
    a_1, b_T, b_sq = oracle_traces(np.zeros(n_z), bound.astype(np.clongdouble) / sg, h, params.d,
                                   n_z, wt)
    z = np.linspace(0.0, 1.0, n_z)
    return dynamics.WriteRecord(dynamics.StoredProfile(z, b_T.astype(complex)), t, bound,
                                (a_1 * sg).astype(complex), b_sq.astype(float))


def grid_write(a_in, params, n_z, n_t):
    """Reference for ``pde_write``: (z, t, a, b) with the full (n_z, n_t) SI histories.

    The march's scheme from ``oracle_march`` in long double, every sample
    rounded to complex128 into the history arrays.
    """
    bound, _, h = dynamics._write_boundary(a_in, params, n_z, n_t)
    t = np.linspace(0.0, params.T, n_t)
    z = np.linspace(0.0, 1.0, n_z)
    if params.d == 0.0:
        a = np.broadcast_to(bound, (n_z, n_t)).copy()
        return z, t, a, np.zeros_like(a)
    sg = np.sqrt(np.longdouble(params.gamma_s))
    a = np.empty((n_z, n_t), dtype=complex)
    b = np.empty_like(a)
    for j, (b_j, a_j) in enumerate(oracle_march(np.zeros(n_z), bound.astype(np.clongdouble) / sg,
                                                h, params.d, n_z)):
        b[:, j] = b_j
        a[:, j] = a_j * sg
    return z, t, a, b


def stepped_read(b0, n_t, h, d, n_z):
    """a(1, .) of a dark read from b0 stepped one sample at a time by the march's scheme.

    ``oracle_march`` with a dark boundary over the whole window, each sample
    rounded once: it approaches ``dynamics._read_march``, the exact read, at
    second order in h.
    """
    dark = np.zeros(n_t, dtype=complex)
    return np.array([a[-1] for _, a in oracle_march(b0, dark, h, d, n_z)]).astype(complex)


def dense_read_operator(h, d, n_z):
    """Reference for ``dynamics._read_operator``: the same (R, P) from dense n_z x n_z powers.

    The same Taylor series and degree rule, run on every unit column, 32 at
    a time; each halving and each doubling of R's rows squares the dense
    power by a matrix product.
    """
    sq = np.sqrt(d)
    nc = -(0.5 * sq / (n_z - 1))
    halvings = math.ceil(math.log2(h * d)) if h * d > 1.0 else 0
    degree = dynamics._taylor_degree(h * d / 2**halvings)
    c = h / 2**halvings * sq * nc
    P = np.zeros((n_z, n_z))     # exp(G / 2^s), then squared in its place
    R = np.empty((dynamics._READ_BLOCK, n_z))
    R[0] = 2.0 * nc
    R[0, [0, -1]] = nc
    pairs, sums = np.empty((n_z, 32)), np.empty((n_z, 32))
    for s in range(0, n_z, 32):
        # L is lower triangular, so columns s.. of exp(G) vanish above row s
        m = min(32, n_z - s)
        term, w, col = np.eye(n_z - s, m), pairs[s:, :m], sums[s:, :m]
        col[...] = term
        for k in range(1, degree + 1):
            # row s pairs with the zero above it; row 0 is the dark boundary
            w[0] = term[0] if s else 0.0
            np.add(term[1:], term[:-1], out=w[1:])
            w *= c / k
            np.add.accumulate(w, axis=0, out=term)
            col += term
        P[s:, s:s + m] = col
    for _ in range(halvings):
        P = P @ P
    P *= math.exp(-h)
    n = 1
    while n < dynamics._READ_BLOCK:
        np.matmul(R[:n], P, out=R[n:2 * n])
        P = P @ P
        n *= 2
    return R, P


def laguerre_table(n, x):
    """L_0(x) .. L_{n-1}(x) along a last axis, by the difference form of the
    three-term recurrence that ``scipy.special.eval_laguerre`` runs for each
    degree alone (the same float64 steps, so the same bits): O(n) per x, where
    the per-degree calls cost O(n^2)."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape + (n,))
    p, step = np.ones_like(x), np.zeros_like(x)
    for k in range(n):
        out[..., k] = p
        step = (-x / (k + 1)) * p + (k / (k + 1)) * step
        p = p + step
    return out


def grid_budget(z, t, a, b, params, rows=64):
    """Reference for ``energy_budget`` from full histories: |b|^2 summed over t in row blocks."""
    wt = dynamics.simpson_weights(t.size, t[1] - t[0])
    wz = dynamics.simpson_weights(z.size, z[1] - z[0])
    per_z = np.empty(z.size)
    for s in range(0, z.size, rows):
        per_z[s:s + rows] = np.abs(b[s:s + rows]) ** 2 @ wt
    e_in = float(np.sum(wt * np.abs(a[0]) ** 2))
    e_out = float(np.sum(wt * np.abs(a[-1]) ** 2))
    e_stored = float(np.sum(wz * np.abs(b[:, -1]) ** 2))
    e_decay = float(2.0 * params.gamma_s * wz @ per_z)
    return {
        "input": e_in,
        "transmitted": e_out,
        "stored": e_stored,
        "decayed": e_decay,
        "residual": abs(e_in - e_out - e_stored - e_decay) / max(e_in, 1e-300),
    }
