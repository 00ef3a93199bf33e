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


def grid_write(a_in, params, n_z, n_t):
    """Reference for ``pde_write``: (z, t, a, b) with the full (n_z, n_t) SI histories.

    The same march as ``pde_write``, with every block's fields copied into
    the history arrays.
    """
    t, bound = dynamics._write_boundary(a_in, params, n_z, n_t)
    h = params.gamma_s * params.T / (n_t - 1)
    z = np.linspace(0.0, 1.0, n_z)
    if params.d == 0.0:
        a = np.broadcast_to(bound, (n_z, n_t)).copy()
        return z, t, a, np.zeros_like(a)
    sg = np.sqrt(params.gamma_s)
    a = np.empty((n_z, n_t), dtype=complex)
    b = np.empty_like(a)
    j = 0
    for block in dynamics._march(np.zeros(n_z), bound / sg, h, params.d, n_z):
        b[:, j:j + len(block)] = block[:, 0].T
        a[:, j:j + len(block)] = block[:, 1].T
        j += len(block)
    a *= dynamics._field_scale(params.d, n_z) * sg
    return z, t, a, b


def reference_march(b0, boundary, h, d, n_z):
    """Reference for ``dynamics._march``: its step in plain form, one [b; a / nc] per sample.

    Every stage makes fresh arrays: each field is an ``np.cumsum`` of the
    boundary sample over nc and the pair sums, and each (2 x 2) product is
    an explicit ``coef @ np.stack(...)`` on the real view of the stacked
    rows.  It yields one (2,) + b0.shape array per sample, from sample 0.
    """
    sq, nc = np.sqrt(d), dynamics._field_scale(d, n_z)
    e = np.exp(-h)
    I0 = 1.0 - e
    I1 = (h - 1.0 + e) / h
    predict = np.array([[e, nc * sq * I0], [e, nc * sq * (I0 - I1)]])
    correct = np.array([[nc * sq * I1, 1.0], [nc * sq * I1, 1.0]])
    dtype = np.result_type(b0, boundary, float)
    s = (np.array(boundary, dtype).view(float) / nc).view(dtype)

    def product(coef, rows):
        x = np.stack(rows)
        real = x.view(float)
        return (coef @ real.reshape(2, -1)).reshape(real.shape).view(dtype).reshape(x.shape)

    def field(j, b):
        return np.cumsum(np.concatenate([s[j:j + 1], b[1:] + b[:-1]]), axis=0)

    b = np.array(b0, dtype)
    f = field(0, b)
    yield np.stack([b, f])
    for j in range(1, len(s)):
        b_star, partial = product(predict, [b, f])
        b = product(correct, [field(j, b_star), partial])[0]
        f = field(j, b)
        yield np.stack([b, f])


def march_rows(b0, boundary, h, d, n_z):
    """Every block of ``dynamics._march`` copied into one (n_t, 2) + b0.shape array."""
    return np.concatenate([block.copy() for block in dynamics._march(b0, boundary, h, d, n_z)])


def stepped_read(b0, n_t, h, d, n_z):
    """a(1, .) of a dark read stepped one sample at a time by the marcher.

    Every step of ``_march`` with a dark boundary, over the whole window: it
    approaches ``dynamics._read_march``, the exact read, at second order in h.
    """
    dark = np.zeros((n_t,) + np.shape(b0)[1:], dtype=complex)
    out, j = np.empty_like(dark), 0
    for block in dynamics._march(b0, dark, h, d, n_z):
        out[j:j + len(block)] = block[:, 1, -1]
        j += len(block)
    return out * dynamics._field_scale(d, n_z)


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
