import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.signal
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from combmemory import dynamics
from combmemory import (
    DimensionError,
    MemoryParams,
    PhysicsError,
    ProbeDesignError,
    ResolutionError,
    ResolutionWarning,
    StoredProfile,
    WriteRecord,
    bessel_j0,
    efficiency,
    energy_budget,
    expected_gain,
    kernel,
    pde_write,
    simpson_weights,
    transfer_function_estimate,
    write_analytic,
)
from combmemory.dynamics import tukey_window
from support import (dense_read_operator, grid_budget, grid_write, laguerre_table, oracle_traces,
                     oracle_write, stepped_read)

GAMMA_S = 2.0 * np.pi * 18e3
T10 = 10.0 / GAMMA_S  # write window spanning ten decay times


def params10(d=4.0):
    return MemoryParams(d=d, gamma_s=GAMMA_S, T=T10)


def kernel_table(rows, cols, d, write):
    """The write or read kernel on every (row, column) pair."""
    table = bessel_j0(2.0 * np.sqrt(np.maximum(d * np.multiply.outer(rows, cols), 0.0)))
    return table * np.sqrt(d) * (np.exp(-cols) if write else -np.exp(-rows)[:, None])


def table_quadrature(rows, cols, d, samples, h, write):
    """Reference for ``dynamics._bessel_quadrature``: Simpson sums of the full kernel table."""
    table = kernel_table(rows, cols, d, write)
    n = samples.shape[0]
    x = samples.reshape(n, -1)

    def simpson(m, stride):
        start = n - m if write else 0
        xs = x[:m:stride]
        part = table[:, start:start + m:stride]
        wx = simpson_weights(len(xs), stride * h)[:, None] * xs
        return part @ wx.real + 1j * (part @ wx.imag)

    fine = simpson(n, 1)
    m = n if n % 2 == 1 else n - 1
    sub_fine = fine if m == n else simpson(m, 1)
    peak = max(float(np.abs(fine).max()), 1e-300)
    est = float(np.abs(sub_fine - simpson(m, 2)).max()) / 15.0 / peak
    return fine.reshape(rows.size, *samples.shape[1:]), est


@pytest.fixture
def march_calls(monkeypatch):
    """[b0 shape, boundary samples] of each ``dynamics._march`` call, in call order."""
    calls = []
    march = dynamics._march

    def counted(b0, boundary, *args, **kwargs):
        calls.append([np.shape(b0), np.shape(boundary)[0]])
        return march(b0, boundary, *args, **kwargs)

    monkeypatch.setattr(dynamics, "_march", counted)
    return calls


def march(b0, boundary, h=0.01, d=4.0, weights=None):
    """``dynamics._march``'s traces, its weights the Simpson weights of the boundary's samples."""
    n_t = np.shape(boundary)[0]
    w = simpson_weights(n_t, h) if weights is None else weights
    return dynamics._march(b0, boundary, h, d, np.shape(b0)[0], w)


def smallest_ring(monkeypatch):
    """Make every ``_march`` ring its smallest: 2 skewed macro steps, or 1 full-z step."""
    monkeypatch.setattr(dynamics, "_MARCH_BYTES", 1)
    monkeypatch.setattr(dynamics, "_MARCH_RING", 2)


def assert_near_oracle(got, b0, boundary, h, d, weights, tol):
    """``_march``'s traces within tol (a(1, .), b(., T), the |b|^2 sums), relative to each
    trace's largest value, of ``support.oracle_traces``."""
    want = oracle_traces(b0, boundary, h, d, np.shape(b0)[0], weights)
    for x, y, bound in zip(got, want, tol):
        assert x.shape == y.shape
        assert np.abs(x - y).max() <= bound * np.abs(y).max()


@pytest.fixture
def read_calls(monkeypatch):
    """[b0 shape, samples returned, read operators built] of each ``dynamics._read_march`` call."""
    calls = []
    read_march, read_operator = dynamics._read_march, dynamics._read_operator

    def counted_operator(*args, **kwargs):
        calls[-1][2] += 1
        return read_operator(*args, **kwargs)

    def counted(b0, *args, **kwargs):
        calls.append([np.shape(b0), None, 0])
        out = read_march(b0, *args, **kwargs)
        calls[-1][1] = out.shape[0]
        return out

    monkeypatch.setattr(dynamics, "_read_operator", counted_operator)
    monkeypatch.setattr(dynamics, "_read_march", counted)
    return calls


def dark_read_generator(d, n_z):
    """(A, r) of a dark read as dense arrays: db/dtau = A b and a(1, tau) = r b.

    A = -I + sqrt(d) nc L and r = nc L[-1], with L the trapezoid prefix-sum
    matrix of the marcher's field (row 0 zero; row i weights 1, 2, ..., 2, 1
    over columns 0..i) and nc = -sqrt(d) / (2 (n_z - 1)).
    """
    nc = -(0.5 * np.sqrt(d) / (n_z - 1))
    L = np.tril(np.full((n_z, n_z), 2.0))
    L[:, 0] = 1.0
    L[np.diag_indices(n_z)] = 1.0
    L[0] = 0.0
    return -np.eye(n_z) + np.sqrt(d) * nc * L, nc * L[-1]


def exact_read(b0, n_t, h, d, n_z):
    """Reference for ``dynamics._read_march``: one sample at a time by expm(h A)."""
    A, r = dark_read_generator(d, n_z)
    M = scipy.linalg.expm(h * A).astype(complex)  # cast once, not at every product
    b = np.asarray(b0, dtype=complex)
    out = np.empty((n_t,) + b.shape[1:], dtype=complex)
    for j in range(n_t):
        out[j] = r @ b
        b = M @ b
    return out


def expm_write(drive, h, d, n_z):
    """Reference for ``dynamics._exact_write``: expm steps of the augmented system.

    Over each sample interval the drive s is linear, so (b, s, ds/dtau)
    obeys d/dtau [b; s; s'] = [[A, sqrt(d) 1, 0], [0, 0, 1], [0, 0, 0]] [b; s; s'],
    which expm(h G) steps exactly from b = 0 at the first sample.
    """
    A, _ = dark_read_generator(d, n_z)
    G = np.zeros((n_z + 2, n_z + 2))
    G[:n_z, :n_z] = A
    G[:n_z, n_z] = np.sqrt(d)
    G[n_z, n_z + 1] = 1.0
    E = scipy.linalg.expm(h * G)[:n_z]
    s = np.asarray(drive, dtype=complex)
    b = np.zeros((n_z,) + s.shape[1:], dtype=complex)
    for j in range(s.shape[0] - 1):
        b = (E[:, :n_z] @ b + np.multiply.outer(E[:, n_z], s[j])
             + np.multiply.outer(E[:, n_z + 1], (s[j + 1] - s[j]) / h))
    return b


class TestBesselJ0:
    def test_matches_reference_on_kernel_range(self):
        # arguments up to 2*sqrt(d*Gamma) ~ 13 for d=4, Gamma=10; test well past
        x = np.linspace(0.0, 50.0, 5001)
        assert np.abs(bessel_j0(x) - scipy.special.j0(x)).max() < 2e-12

    def test_even(self):
        x = np.linspace(0.1, 30.0, 97)
        assert np.array_equal(bessel_j0(-x), bessel_j0(x))

    def test_scalar_input(self):
        v = bessel_j0(2.404825557695773)  # first zero
        assert isinstance(v, float)
        assert abs(v) < 1e-12

    def test_at_origin(self):
        assert bessel_j0(0.0) == 1.0

    def test_dense_across_branch_cut(self):
        x = np.linspace(11.9, 12.1, 20001)
        assert np.abs(bessel_j0(x) - scipy.special.j0(x)).max() < 2e-12

    def test_block_seams_match_scalar_calls(self):
        # two full blocks and a partial one, each straddling the series/Hankel cut
        B = dynamics._J0_BLOCK
        n = 2 * B + 777
        x = np.random.default_rng(5).uniform(11.0, 13.0, n)
        x[::3] *= -1.0
        got = bessel_j0(x)
        idx = np.r_[0:5, B - 3:B + 3, 2 * B - 3:2 * B + 3, n - 5:n]
        ref = np.array([bessel_j0(float(v)) for v in x[idx]])
        assert np.abs(got[idx] - ref).max() <= 1e-15
        assert np.abs(got - scipy.special.j0(x)).max() < 2e-12

    def test_non_contiguous_2d_input(self):
        base = np.linspace(0.0, 40.0, 60 * 80).reshape(60, 80)
        view = base[:, ::2]
        got = bessel_j0(view)
        assert got.shape == view.shape
        assert np.array_equal(got, bessel_j0(np.ascontiguousarray(view)))
        assert np.abs(got - scipy.special.j0(view)).max() < 2e-12

    def test_temporaries_stay_bounded(self):
        x = np.linspace(0.0, 40.0, 1_000_000)
        tracemalloc.start()
        try:
            bessel_j0(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * x.nbytes


class TestSimpsonWeights:
    def test_exact_on_cubics(self):
        # composite Simpson and the 3/8 tail share cubic exactness
        for n in range(3, 14):
            x = np.linspace(0.0, 1.0, n)
            w = simpson_weights(n, x[1] - x[0])
            assert np.sum(w * x**3) == pytest.approx(0.25, abs=1e-14)
            assert np.sum(w) == pytest.approx(1.0, abs=1e-13)

    def test_matches_reference_quadrature(self):
        x = np.linspace(0.0, 2.0, 21)
        f = np.exp(-x) * np.cos(3 * x)
        w = simpson_weights(x.size, x[1] - x[0])
        ref = scipy.integrate.simpson(f, x=x)
        assert np.sum(w * f) == pytest.approx(ref, rel=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(DimensionError, match="at least 3"):
            simpson_weights(2, 0.1)


class TestRichardson:
    def test_even_n_sums_all_samples_and_estimates_the_odd_run(self):
        # at n = 10 the sum takes Simpson over samples 0..6 and the 3/8 rule
        # over 6..9; the estimate compares Simpson sums over samples 0..8 at
        # h and 2h, relative to the larger |S| of the two rows
        n, h = 10, 0.1
        x = h * np.arange(n)
        f = np.stack([np.exp(-x) * np.cos(3.0 * x), 2.0 + np.sin(x)])
        calls = []

        def simpson(m, stride):
            calls.append((m, stride))
            xs = f[:, :m:stride]
            return np.sum(simpson_weights(xs.shape[1], stride * h) * xs, axis=1)

        S, est = dynamics._richardson(simpson, n)
        assert calls == [(10, 1), (9, 1), (9, 2)]

        def c(*w):  # sum of w[i] f[:, i] over the leading len(w) samples
            return f[:, :len(w)] @ np.array(w, dtype=float)

        want_S = (h / 3 * c(1, 4, 2, 4, 2, 4, 1)
                  + 3 * h / 8 * f[:, 6:] @ np.array([1.0, 3.0, 3.0, 1.0]))
        fine = h / 3 * c(1, 4, 2, 4, 2, 4, 2, 4, 1)
        coarse = 2 * h / 3 * c(1, 0, 4, 0, 2, 0, 4, 0, 1)
        assert S == pytest.approx(want_S, rel=1e-14)
        want_est = np.abs(fine - coarse).max() / 15.0 / np.abs(want_S).max()
        assert est == pytest.approx(want_est, rel=1e-9)
        # the full sum is not the odd run's: the tail's sample 9 counts
        assert np.abs(S - fine).max() > 1e3 * np.abs(fine - coarse).max() / 15.0


class TestTukeyWindow:
    def test_matches_reference(self):
        for n, taper in [(64, 0.1), (65, 0.25), (33, 1.0)]:
            ref = scipy.signal.windows.tukey(n, alpha=taper, sym=True)
            assert np.abs(tukey_window(n, taper) - ref).max() < 1e-12

    def test_zero_taper_is_rectangular(self):
        assert np.array_equal(tukey_window(17, 0.0), np.ones(17))

    def test_taper_bounds(self):
        with pytest.raises(PhysicsError, match="taper"):
            tukey_window(16, 1.5)
        with pytest.raises(PhysicsError, match="taper"):
            tukey_window(16, -0.1)


class TestContainers:
    def test_write_record_shapes_and_values(self):
        prof = StoredProfile(np.linspace(0, 1, 4), np.zeros(4, dtype=complex))
        t = np.linspace(0, 1e-3, 5)
        a = np.zeros(5, dtype=complex)
        WriteRecord(prof, t, a, a, np.zeros(4))
        with pytest.raises(DimensionError, match="t_points"):
            WriteRecord(prof, t, a[:4], a, np.zeros(4))
        with pytest.raises(DimensionError, match="z point"):
            WriteRecord(prof, t, a, a, np.zeros(5))
        bad = a.copy()
        bad[3] = np.nan
        with pytest.raises(PhysicsError, match="finite"):
            WriteRecord(prof, t, a, bad, np.zeros(4))
        with pytest.raises(PhysicsError, match="finite"):
            WriteRecord(prof, t, a, a, np.full(4, np.inf))

    def test_stored_profile_mismatch(self):
        with pytest.raises(DimensionError, match="matching"):
            StoredProfile(np.linspace(0, 1, 5), np.zeros(4, dtype=complex))

    @pytest.mark.parametrize("z", [np.linspace(1, 0, 4), np.array([0.0, 0.5, 0.5, 1.0])],
                             ids=["descending", "repeated"])
    def test_stored_profile_grid_must_ascend(self, z):
        with pytest.raises(PhysicsError, match="strictly ascending"):
            StoredProfile(z, np.zeros(4, dtype=complex))

    @pytest.mark.parametrize("t, message", [
        (np.zeros(1), "t grid needs at least 2 samples"),
        (np.array([0.0, 1e-4, 3e-4, 4e-4]), "t grid must be uniform"),
    ], ids=["one-sample", "non-uniform"])
    def test_energy_budget_needs_uniform_t_grid(self, t, message):
        prof = StoredProfile(np.linspace(0, 1, 4), np.zeros(4, dtype=complex))
        a = np.ones(t.size, dtype=complex)
        with pytest.raises(DimensionError, match=message):
            energy_budget(WriteRecord(prof, t, a, a, np.zeros(4)), params10())


class TestWriteAnalytic:
    def test_stored_fraction_flat_input(self):
        # flat drive at Gamma = 10: stored energy fraction approaches
        # (1 - e^{-2d}) / (2 Gamma); quadrature value pinned
        p = params10()
        prof = write_analytic(np.ones(2001, dtype=complex), p, 401)
        ratio = np.trapezoid(np.abs(prof.b_T) ** 2, prof.z_points) / p.T
        assert ratio == pytest.approx(0.049984903207108404, abs=1e-12)
        assert ratio == pytest.approx((1 - np.exp(-8.0)) / 20.0, rel=1e-3)

    def test_zero_depth_stores_nothing(self):
        prof = write_analytic(np.ones(101, dtype=complex), params10(d=0.0), 16)
        assert np.array_equal(prof.b_T, np.zeros(16))

    def test_under_resolved_input_rejected(self):
        p = params10()
        t = np.linspace(0.0, p.T, 9)
        spike = np.exp(-(((t - 0.5 * p.T) / (0.02 * p.T)) ** 2)).astype(complex)
        with pytest.raises(ResolutionError, match="quadrature error"):
            write_analytic(spike, p, 16)

    def test_under_resolved_even_length_input_rejected(self):
        # an even sample count takes the estimate from a sliced sub-grid
        p = params10()
        t = np.linspace(0.0, p.T, 10)
        spike = np.exp(-(((t - 0.5 * p.T) / (0.02 * p.T)) ** 2)).astype(complex)
        with pytest.raises(ResolutionError, match="write quadrature error"):
            write_analytic(spike, p, 16)

    def test_input_length_floor(self):
        with pytest.raises(DimensionError, match="9 samples"):
            write_analytic(np.ones(5, dtype=complex), params10(), 16)

    def test_grid_floor(self):
        with pytest.raises(DimensionError, match="n_z must be at least 4"):
            write_analytic(np.ones(9, dtype=complex), params10(), 3)


class TestPdeMarch:
    def test_matches_analytic_kernel(self):
        # independent routes agree: marched b(z, T) against the closed-form
        # quadrature on a shared 601-point grid
        p = params10()
        n = 601
        a = np.ones(n, dtype=complex)
        run = pde_write(a, p, n, n)
        prof = write_analytic(a, p, n)
        l2 = np.linalg.norm(run.profile.b_T - prof.b_T) / np.linalg.norm(prof.b_T)
        assert l2 < 1e-5
        assert l2 == pytest.approx(2.6068e-06, rel=1e-2)

    def test_zero_depth_passthrough(self):
        p = params10(d=0.0)
        run = pde_write(np.ones(128, dtype=complex), p, 16, 128)
        assert np.array_equal(run.profile.b_T, np.zeros(16))
        assert np.array_equal(run.b_sq_dt, np.zeros(16))
        assert np.array_equal(run.a_in, np.ones(128))
        assert np.array_equal(run.a_out, np.ones(128))

    def test_coarse_time_step_warns(self):
        with pytest.warns(ResolutionWarning, match="under-resolved") as caught:
            pde_write(np.ones(51, dtype=complex), params10(), 16, 51)
        assert caught[0].filename == __file__

    @staticmethod
    def check_record(run, p, drive):
        """``run`` against the march's traces of ``drive``: exact a(0, .) (the drive in SI
        units), a(1, .), b(., T) and b_sq_dt."""
        n_t, n_z = len(drive), len(run.profile.b_T)
        sg = np.sqrt(p.gamma_s)
        t = np.linspace(0.0, p.T, n_t)
        a_1, b_T, b_sq = march(np.zeros(n_z), drive / sg, p.gamma_s * p.T / (n_t - 1), p.d,
                               simpson_weights(n_t, t[1] - t[0]))
        assert np.array_equal(run.a_in, drive / sg * sg)
        assert np.array_equal(run.a_out, a_1 * sg)
        assert np.array_equal(run.profile.b_T, b_T)
        assert np.array_equal(run.b_sq_dt, b_sq)
        assert np.array_equal(run.t_points, t)

    def test_write_record_is_the_stepper_output(self):
        p = params10()
        self.check_record(pde_write(np.exp(1j * np.linspace(0.0, 3.0, 120)), p, 40, 120), p,
                          np.exp(1j * np.linspace(0.0, 3.0, 120)))

    # worst relative error of the march before the skewed schedule against
    # support.oracle_traces over these cases: 8.4e-14, 1.2e-13 and 2.2e-13
    # (a(1, .), b(., T), |b|^2 sums; n_z = 9, n_t = 200, complex drive),
    # held to four times that
    SEAM_TOL = (4e-13, 5e-13, 9e-13)

    @pytest.mark.parametrize("n_z, n_t", [(40, 60), (41, 33), (5, 20), (4, 12), (40, 9),
                                          (33, 9), (37, 9), (9, 200)],
                             ids=["ramps", "chunks-fill-z", "one-chunk", "one-chunk-padded",
                                  "chunks-above-n_t", "n_t-9", "chunks-equal-n_t", "tall-t"])
    @pytest.mark.parametrize("kind", ["real", "complex", "dark"])
    @pytest.mark.parametrize("ring", [False, True], ids=["ring", "smallest-ring"])
    def test_seams_match_the_oracle(self, monkeypatch, n_z, n_t, kind, ring):
        # the skewed march's ramp-up and ramp-down (macro steps before every
        # chunk is active and after the first has finished), one chunk,
        # a last chunk padded past z = 1 ((n_z - 1) % 4 != 0), the full-z
        # kernel when the chunks outnumber the samples, and n_t = 9; with the
        # smallest ring every ring seam falls inside them (2 macro steps or
        # 1 full-z step), and a(1, .) and b(., T) keep their bits.
        # gamma_s T = 0.3 keeps gamma_s dt <= 0.1 at n_t = 4
        h, d = 0.3 / (n_t - 1), 4.0
        t, z = np.linspace(0.0, 1.0, n_t), np.linspace(0.0, 1.0, n_z)
        if kind == "dark":
            b0, bound = np.cos(3.0 * z) + 0.5j * z, np.zeros(n_t, dtype=complex)
        else:
            b0 = np.zeros(n_z)
            bound = np.exp(-((t - 0.6) ** 2) / 0.05) * (1.0 if kind == "real" else np.exp(3j * t))
        w = simpson_weights(n_t, h)
        got = march(b0, bound, h, d, w)
        if ring:
            smallest_ring(monkeypatch)
            small = march(b0, bound, h, d, w)
            assert np.array_equal(small[0], got[0]) and np.array_equal(small[1], got[1])
            assert np.abs(small[2] - got[2]).max() <= 1e-13 * np.abs(got[2]).max()
            got = small
        assert got[0].dtype == got[1].dtype == (np.float64 if kind == "real" else np.complex128)
        assert_near_oracle(got, b0, bound, h, d, w, self.SEAM_TOL)

    @pytest.mark.parametrize("n_t", [4, 31, 32, 33, 65])
    @pytest.mark.parametrize("n_z", [4, 5, 40])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_block_seams_match_the_reference(self, monkeypatch, n_t, n_z, real):
        # records of one chunk (n_z = 4, 5) and of ten, marched skewed or, at
        # n_t = 4, down all of z, against the long-double oracle; with the
        # smallest ring (2 macro steps, or 1 full-z step) every ring seam
        # falls inside them and a(1, .) and b(., T) keep their bits.  The march
        # before the skewed schedule was off by at most 3.5e-14, 5.1e-14 and
        # 8.9e-14 over these cases; SEAM_TOL holds all seam tests.
        # gamma_s T = 0.3 keeps gamma_s dt <= 0.1 at n_t = 4
        p = MemoryParams(d=4.0, gamma_s=GAMMA_S, T=0.3 / GAMMA_S)
        t = np.linspace(0.0, 1.0, n_t)
        drive = np.exp(-((t - 0.6) ** 2) / 0.05) * (1.0 if real else np.exp(3j * t))
        run = pde_write(drive, p, n_z, n_t)
        self.check_record(run, p, drive)
        ref = oracle_write(drive, p, n_z, n_t)
        for x, y, bound in zip((run.a_out, run.profile.b_T, run.b_sq_dt),
                               (ref.a_out, ref.profile.b_T, ref.b_sq_dt), self.SEAM_TOL):
            assert np.abs(x - y).max() <= bound * np.abs(y).max()
        smallest_ring(monkeypatch)
        small = pde_write(drive, p, n_z, n_t)
        assert np.array_equal(small.a_out, run.a_out)
        assert np.array_equal(small.profile.b_T, run.profile.b_T)
        assert np.abs(small.b_sq_dt - run.b_sq_dt).max() <= 1e-13 * run.b_sq_dt.max()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n_t", [400, 9], ids=["skewed", "full-z"])
    def test_drive_near_the_float_range_stays_finite(self, n_t):
        # the field is kept as a itself: stored as a / nc, a drive of 1e200
        # at d = 1e-300 (nc about 6e-153) overflowed into a non-finite profile
        p = MemoryParams(d=1e-300, gamma_s=GAMMA_S, T=0.8 / GAMMA_S)
        run = pde_write(np.full(n_t, 1e200), p, 40, n_t)
        for x in (run.profile.b_T, run.a_out, run.b_sq_dt):
            assert np.isfinite(x).all()

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_corner_peak_is_the_step_by_step_one(self, real):
        # at n_t = 9 the chunks outnumber the samples, so the march runs its
        # full-z kernel, as at the MAX_GRID_CELLS corner (n_z = 2**25 // 9).
        # The step-by-step march and its traces peaked at 9.13 (real drive)
        # and 14.00 (complex) n_z-long float64 arrays, here and at the
        # corner; this march peaks at 9.01 and 12.00 (a complex drive
        # marches as its real and imaginary parts, one after the other)
        n_z, n_t = 2**17, 9
        p = MemoryParams(d=4.0, gamma_s=GAMMA_S, T=0.8 / GAMMA_S)
        drive = np.ones(n_t) if real else np.exp(1j * np.linspace(0.0, 1.0, n_t))
        tracemalloc.start()
        try:
            pde_write(drive, p, n_z, n_t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (9.13 if real else 14.0) * 8 * n_z

    def test_energy_budget_closes(self):
        p = params10()
        n = 601
        bud = energy_budget(pde_write(np.ones(n, dtype=complex), p, n, n), p)
        assert set(bud) == {"input", "transmitted", "stored", "decayed", "residual"}
        total = bud["transmitted"] + bud["stored"] + bud["decayed"]
        assert abs(total - bud["input"]) / bud["input"] < 1e-4
        assert bud["residual"] < 1e-4

    def test_energy_budget_holds_no_grid_temporary(self):
        rng = np.random.default_rng(3)
        n_z, n_t = 300, 400
        noise = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        t = np.linspace(0.0, T10, n_t)
        z = np.linspace(0.0, 1.0, n_z)
        a0, a1, b_T, b_sq_dt = noise(n_t), noise(n_t), noise(n_z), rng.random(n_z)
        record = WriteRecord(StoredProfile(z, b_T), t, a0, a1, b_sq_dt)
        p = params10()
        tracemalloc.start()
        try:
            bud = energy_budget(record, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n_z * n_t * 8
        wt = simpson_weights(n_t, t[1] - t[0])
        wz = simpson_weights(n_z, z[1] - z[0])
        e_in = float(np.sum(wt * np.abs(a0) ** 2))
        e_out = float(np.sum(wt * np.abs(a1) ** 2))
        e_stored = float(np.sum(wz * np.abs(b_T) ** 2))
        e_decay = float(2.0 * p.gamma_s * wz @ b_sq_dt)
        assert bud == {
            "input": e_in,
            "transmitted": e_out,
            "stored": e_stored,
            "decayed": e_decay,
            "residual": abs(e_in - e_out - e_stored - e_decay) / e_in,
        }


class TestScaledSpans:
    """Both writes check the scaled window gamma_s T, the step gamma_s dt and
    the kernel argument 4 d gamma_s T where each is formed."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("path", ["analytic", "pde"])
    @pytest.mark.parametrize("params, match", [
        (MemoryParams(d=1e308, gamma_s=GAMMA_S, T=T10), r"d \* gamma_s \* T = 1e\+308 \* 10"),
        (MemoryParams(d=4.0, gamma_s=GAMMA_S, T=1e308), r"gamma_s \* T = inf overflows"),
        (MemoryParams(d=4.0, gamma_s=5e-324, T=T10), r"gamma_s \* T = 0.0 is below"),
        (MemoryParams(d=4.0, gamma_s=1e-308, T=T10), r"gamma_s \* T = \S+e-313 is below"),
        (MemoryParams(d=4.0, gamma_s=GAMMA_S, T=1e-307 / GAMMA_S), r"gamma_s \* dt = \S+ is below"),
    ], ids=["kernel-argument", "window-inf", "window-zero", "window-subnormal", "step-subnormal"])
    def test_out_of_range_span_raises(self, path, params, match):
        with pytest.raises(PhysicsError, match=match):
            if path == "pde":
                pde_write(np.ones(40, dtype=complex), params, 40, 40)
            else:
                write_analytic(np.ones(40, dtype=complex), params, 40)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("Gamma", [1e-306, 3.4e-306])
    def test_tiny_window_writes_without_overflow(self, Gamma):
        # 1 / (x - node) in the barycentric weights overflowed for windows
        # below about 1e-292 before the differences were scaled to unit size
        p = MemoryParams(d=4.0, gamma_s=GAMMA_S, T=Gamma / GAMMA_S)
        assert write_analytic(np.ones(40, dtype=complex), p, 40).b_T.shape == (40,)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_interpolation_is_scale_free(self):
        x = np.linspace(0.0, 10.0, 2000)
        A = dynamics._interpolation(x, 33)
        for e in (-1010, 1000):  # the nodes scale exactly: the same bits
            assert np.array_equal(dynamics._interpolation(x * 2.0**e, 33), A)
        # nodes near 1e-307 lose bits to subnormal products, but no weight overflows
        np.testing.assert_allclose(dynamics._interpolation(x * 2.0**-1018, 33), A, atol=1e-15)


class TestTransferFunction:
    def test_read_clock_gain_identity(self):
        p = params10()
        for w in (0.0, 0.05 * GAMMA_S, -0.1 * GAMMA_S):
            g = expected_gain(p, w)
            assert g == pytest.approx(-kernel(p, w) * np.exp(1j * w * p.T), abs=1e-15)
        assert expected_gain(p, 0.0).imag == 0.0

    def test_probe_band_limit(self):
        with pytest.raises(PhysicsError, match="0.3 gamma_s"):
            transfer_function_estimate(params10(), [0.5 * GAMMA_S])

    def test_unknown_path_rejected(self):
        with pytest.raises(PhysicsError, match="unknown dynamics path"):
            transfer_function_estimate(params10(), [0.0], path="magic")

    def test_probe_must_fit_window(self):
        with pytest.raises(ProbeDesignError, match="does not fit"):
            transfer_function_estimate(params10(), [0.0], probe_width=2.0 * T10)

    def test_wide_probe_capture_bias_rejected(self):
        # a probe spanning 0.01 decay times at d = 4 biases the gain by
        # ~d w / 2 = 2%, past the 1% guard
        with pytest.raises(ProbeDesignError, match="capture-bias"):
            transfer_function_estimate(params10(), [0.0], probe_width=0.01 / GAMMA_S)

    def test_zero_depth_yields_zero_gain(self):
        g = transfer_function_estimate(params10(d=0.0), [0.0, 0.05 * GAMMA_S])
        assert np.array_equal(g, np.zeros(2, dtype=complex))

    @pytest.mark.parametrize("T_read", [0.0, -1e-3])
    def test_read_window_must_be_positive(self, T_read):
        with pytest.raises(PhysicsError, match="T_read"):
            transfer_function_estimate(params10(), [0.0], T_read, path="pde")

    @pytest.mark.parametrize("path", ["analytic", "pde"])
    @pytest.mark.parametrize("omegas, T_read, match", [
        ([0.0, np.nan], None, "0.3 gamma_s"), ([0.0], np.inf, "T_read must be positive and finite"),
        ([0.0], 1e302, r"d \* gamma_s \* T_read = 4.0 \* "),
        ([0.0], 1e-320, r"gamma_s \* T_read = \S+ is below the smallest normal float"),
    ], ids=["nan-frequency", "inf-window", "read-kernel-argument", "read-window-subnormal"])
    def test_non_finite_inputs_checked_first(self, monkeypatch, march_calls, path, omegas,
                                             T_read, match):
        # |nan| > limit is False and inf > 0 is True, so both passed their
        # checks and ended in "cannot convert float NaN to integer" from the
        # read-sum hint; now they raise before any grid is built
        writes = []
        for name in ("_checked_quadrature", "_exact_write"):
            stage = getattr(dynamics, name)
            monkeypatch.setattr(dynamics, name, lambda *args, stage=stage: (
                writes.append(args), stage(*args))[1])
        with pytest.raises(PhysicsError, match=match):
            transfer_function_estimate(params10(), omegas, T_read, path=path)
        assert march_calls == [] and writes == []

    def test_empty_probe_list(self):
        assert transfer_function_estimate(params10(), []).size == 0

    def test_chunk_rule_needs_default_window(self):
        # any n_read of at least 5 is read whole, on the default and an
        # explicit PDE window and on the analytic route
        p = params10()
        for kw in (dict(path="pde"), dict(T_read=5.0 * p.T, path="pde"), dict(path="analytic")):
            g = transfer_function_estimate(p, [0.0], n_probe=201, n_z=100, n_read=600, **kw)
            assert np.isfinite(g).all()

    @pytest.mark.parametrize("name, n, path", [
        (name, n, path)
        for name, n in [("n_z", 1), ("n_z", 2), ("n_z", 3), ("n_probe", 0), ("n_probe", 1),
                        ("n_probe", 2), ("n_read", 1), ("n_read", 2), ("n_read", 3),
                        ("n_read", 4)]
        for path in ("analytic", "pde")
    ] + [("n_z", 4, "analytic"), ("n_probe", 3, "analytic"), ("n_probe", 4, "analytic")])
    def test_grid_sizes_checked_first(self, monkeypatch, march_calls, name, n, path):
        # on the PDE path n_z below 4 (the write stages' floor) or n_probe
        # below 3 (Simpson's) raise before any march; unchecked, they raised
        # IndexError or returned gains of 0 (n_z = 1) or |g(0)| = 1.33
        # (n_z = 2).  The error estimates take stride-2 Simpson sums over an
        # odd run: the read-clock sum's on both paths, so n_read needs 5
        # samples there, and the analytic quadratures', so that path needs 5
        # per axis and raises before any quadrature; n = 3 or 4 raised an
        # unnamed DimensionError
        least = 5 if path == "analytic" or name == "n_read" else 4 if name == "n_z" else 3
        quadratures = []
        monkeypatch.setattr(dynamics, "_checked_quadrature", lambda *args: quadratures.append(args))
        with pytest.raises(DimensionError, match=f"{name} must be at least {least}, got {n}"):
            transfer_function_estimate(params10(), [0.0], path=path, **{name: n})
        assert march_calls == [] and quadratures == []

    @pytest.mark.parametrize("n_z, n_probe, stage",
                             [(100, 9, "write"), (9, 201, "read"), (10, 201, "read")])
    def test_analytic_quadrature_error_raises(self, n_z, n_probe, stage):
        # 9 probe samples (estimate 6.1e-3), or 9 or 10 z points (1.9e-5, and
        # 8.6e-6 from the sliced odd sub-grid) under-resolve a quadrature; the stages' 1e-6 limit holds here too, instead of a
        # plausible |g(0)| of 0.98
        with pytest.raises(ResolutionError, match=f"{stage} quadrature error"):
            transfer_function_estimate(params10(), [0.0], n_z=n_z, n_probe=n_probe, n_read=601)

    def test_read_sum_error_raises_at_high_depth(self):
        # at d = 400, 6001 read samples put |g(0)|^2 5.5e-2 off eta; the read
        # clock's Fourier sum estimates its own error (2.4e-2) and raises
        p = MemoryParams(d=400.0, gamma_s=GAMMA_S, T=88.42e-6)
        with pytest.raises(ResolutionError, match=r"Fourier sum error estimate 2\.36e-02 "
                                                  r"exceeds 0\.0001; try n_read >= \d+"):
            transfer_function_estimate(p, [0.0, 0.1 * GAMMA_S], n_read=6001)

    def test_read_sum_hint_resolves(self):
        # d = 100 estimates 1.24e-4 at 6001 samples; the hinted count passes
        p = MemoryParams(d=100.0, gamma_s=GAMMA_S, T=88.42e-6)
        with pytest.raises(ResolutionError, match="n_read") as caught:
            transfer_function_estimate(p, [0.0], n_read=6001)
        n_read = int(re.search(r">= (\d+)", str(caught.value)).group(1))
        g = transfer_function_estimate(p, [0.0], n_read=n_read)
        assert abs(abs(g[0]) ** 2 - efficiency(100.0)) <= 5e-3

    @pytest.mark.parametrize("d", [100.0, 200.0])
    def test_default_read_follows_its_hint(self, monkeypatch, d):
        # the default 6001 read samples fail the sum's estimate; the read is
        # taken again at the hinted count, once, and its gains pass
        p = MemoryParams(d=d, gamma_s=GAMMA_S, T=88.42e-6)
        omegas = TestPdeTransfer.OMEGAS
        with pytest.raises(ResolutionError, match="n_read") as caught:
            transfer_function_estimate(p, omegas, n_read=6001)
        hint = int(re.search(r">= (\d+)", str(caught.value)).group(1))
        reads = []
        quadrature = dynamics._checked_quadrature
        monkeypatch.setattr(dynamics, "_checked_quadrature", lambda rows, *args: (
            reads.append(rows.size), quadrature(rows, *args))[1])
        g = transfer_function_estimate(p, omegas)
        assert reads[1:] == [6001, hint]
        want = expected_gain(p, omegas)
        assert np.abs(g - want).max() <= 2e-3 * np.abs(want).max()

    def test_default_read_raises_on_second_failure(self):
        # at d = 800 the 6001 default read samples estimate 1.5e-1; the hinted
        # 44631 estimate 1.5e-4 in turn, and that raises
        p = MemoryParams(d=800.0, gamma_s=GAMMA_S, T=88.42e-6)
        with pytest.raises(ResolutionError, match=r"estimate 1\.49e-04 exceeds 0\.0001; "
                                                  r"try n_read >= 58673"):
            transfer_function_estimate(p, [0.0])

    def test_resolved_read_sum_keeps_gains(self):
        # d = 4 (estimate 1.9e-9) returns the gains measured before the estimate existed
        before = [-0.9807031487773924 + 0j, -0.536453519241191 - 0.821883565994989j,
                  0.7782253624795664 + 0.6047112609403783j,
                  0.9743949553725382 - 0.1618280608979077j,
                  0.11416999119745672 - 0.976267732135941j]
        got = transfer_function_estimate(TestPdeTransfer.params(4.0), TestPdeTransfer.OMEGAS)
        assert np.abs(got - before).max() <= 1e-12


class TestPdeTransfer:
    """The PDE probe read: the whole window, and per-path grid defaults."""

    OMEGAS = np.array([0.0, 0.1, -0.25, 0.3, 0.17]) * GAMMA_S

    @staticmethod
    def params(d):
        return MemoryParams(d=d, gamma_s=GAMMA_S, T=88.42e-6)  # configs/dynamics.ini

    @staticmethod
    def rel(got, want):
        return np.abs(got - want).max() / np.abs(want).max()

    @pytest.mark.parametrize("d", [4.0, 12.0, 30.0])
    def test_stop_matches_full_window(self, d):
        # the default read stops at the end of its 5T window
        p = self.params(d)
        default = transfer_function_estimate(p, self.OMEGAS, path="pde")
        explicit = transfer_function_estimate(p, self.OMEGAS, 5.0 * p.T, path="pde")
        assert np.array_equal(default, explicit)

    @pytest.mark.parametrize("d", [4.0, 12.0])
    def test_default_window_reads_whole(self, march_calls, read_calls, d):
        # the default read returns every sample of its window; the write is
        # the exact one and marches nothing
        p = self.params(d)
        transfer_function_estimate(p, self.OMEGAS, path="pde")
        assert march_calls == []
        assert read_calls == [[(300, 5), 6001, 1]]

    def test_explicit_window_reads_whole(self, march_calls, read_calls):
        p = self.params(4.0)
        transfer_function_estimate(p, self.OMEGAS, 3.0 * p.T, path="pde")
        assert march_calls == []
        assert read_calls == [[(300, 5), 6001, 1]]

    def test_defaults_against_refined_grid(self):
        p = self.params(4.0)
        default = transfer_function_estimate(p, self.OMEGAS, path="pde")
        fine = transfer_function_estimate(p, self.OMEGAS, path="pde", n_z=600, n_probe=801)
        assert self.rel(default, fine) <= 1e-5

    @pytest.mark.parametrize("d", [4.0, 30.0])
    def test_defaults_against_analytic_reference(self, d):
        # every read sample is exact, so the default 6001 samples leave the
        # gains 1.35e-6 (d = 4) and 1.31e-6 (d = 30) off a fine analytic
        # run; the stepped read was 4.2e-5 off at d = 4 and, at 18001
        # samples, 5.3e-4 at d = 30
        p = self.params(d)
        default = transfer_function_estimate(p, self.OMEGAS, path="pde")
        ref = transfer_function_estimate(p, self.OMEGAS, n_z=2400, n_probe=3201, n_read=24001)
        assert self.rel(default, ref) <= 1e-5

    def test_default_read_follows_its_hint(self, read_calls):
        # at d = 100 the default 6001 read samples estimate the read-clock
        # sum's error at 1.24e-4; the PDE read is taken again at the hinted
        # count, as the analytic read is, and its gains pass
        p = self.params(100.0)
        with pytest.raises(ResolutionError, match="n_read") as caught:
            transfer_function_estimate(p, self.OMEGAS, path="pde", n_read=6001)
        hint = int(re.search(r">= (\d+)", str(caught.value)).group(1))
        read_calls.clear()
        g = transfer_function_estimate(p, self.OMEGAS, path="pde")
        assert read_calls == [[(300, 5), 6001, 1], [(300, 5), hint, 1]]
        want = expected_gain(p, self.OMEGAS)
        assert np.abs(g - want).max() <= 2e-3 * np.abs(want).max()

    def test_analytic_defaults_unchanged(self):
        p = self.params(4.0)
        default = transfer_function_estimate(p, self.OMEGAS)
        explicit = transfer_function_estimate(p, self.OMEGAS, n_z=1200, n_probe=1601, n_read=6001)
        assert np.array_equal(default, explicit)

    def test_coarse_read_raises(self):
        # gamma_s * dt = 0.5: the stepped read warned and returned |g(0)| 25%
        # off |K_0|; the exact read's Fourier sum estimates 1.5e-2 and raises
        with pytest.raises(ResolutionError, match=r"estimate 1\.50e-02 exceeds 0\.0001; "
                                                  r"try n_read >= 418"):
            transfer_function_estimate(self.params(4.0), [0.0], path="pde", n_read=101)

    @pytest.mark.parametrize("d", [4.0, 30.0])
    def test_default_grids_do_not_warn(self, recwarn, d):
        transfer_function_estimate(self.params(d), self.OMEGAS[:2], path="pde")
        assert not [w for w in recwarn if issubclass(w.category, ResolutionWarning)]

    def test_read_operator_size_checked_first(self):
        # past n_z = 4096 one n_z x n_z operator would exceed 128 MiB; the
        # check comes before the write march or any grid-sized array
        tracemalloc.start()
        try:
            with pytest.raises(DimensionError,
                               match=r"n_z <= 4096 \(one n_z x n_z matrix of 8 n_z\^2 bytes\)"):
                transfer_function_estimate(self.params(4.0), self.OMEGAS, path="pde", n_z=4097)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestOperatorRead:
    """The block read of the exact one-sample propagator against scipy's expm."""

    H = 5.0 * GAMMA_S * 88.42e-6 / 6000  # the default read step at the dynamics.ini point

    @pytest.mark.parametrize("d, h", [(4.0, H), (30.0, H), (4.0, 0.5)],
                             ids=["d4", "d30", "hd2"])
    def test_operator_matches_expm(self, d, h):
        # R's rows are r expm(h A)^i and P is expm(128 h A); at h d = 2 the
        # series is taken at h / 2 and squared once
        n_z = 300
        A, r = dark_read_generator(d, n_z)
        R, P = dynamics._read_operator(h, d, n_z)
        assert R.dtype == P.dtype == np.float64
        M = scipy.linalg.expm(h * A)
        want_R = np.empty_like(R)
        want_R[0] = r
        for i in range(1, dynamics._READ_BLOCK):
            want_R[i] = want_R[i - 1] @ M
        want_P = scipy.linalg.expm(dynamics._READ_BLOCK * h * A)
        assert np.abs(R - want_R).max() <= 1e-13 * np.abs(want_R).max()
        assert np.abs(P - want_P).max() <= 1e-13 * np.abs(want_P).max()

    @staticmethod
    def check(d, k, n_t):
        """The first n_t samples of a read at the default step from k written
        profiles, against a read stepped one sample at a time by expm(h A)."""
        p, n_z = TestPdeTransfer.params(d), 300
        t = np.linspace(0.0, 1.0, 2000)
        b0 = np.stack([write_analytic(np.exp(8j * w * t), p, n_z).b_T
                       for w in np.linspace(-1.0, 1.0, k)], axis=1)
        b0 = b0[:, 0] if k == 1 else b0
        got = dynamics._read_march(b0, n_t, TestOperatorRead.H, d, n_z)
        want = exact_read(b0, n_t, TestOperatorRead.H, d, n_z)
        assert got.shape == want.shape == (n_t,) + b0.shape[1:]
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("explicit", [False, True], ids=["default", "explicit"])
    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("d", [4.0, 30.0])
    def test_matches_stepped_read(self, d, k, explicit):
        # the default 5T window of 6001 samples, or an explicit 3T one
        self.check(d, k, 3601 if explicit else 6001)

    @pytest.mark.parametrize("n_t", [3, 127, 128, 129, 257])
    def test_block_boundaries_match_stepped_read(self, n_t):
        # windows ending in, at and just past a block's last sample
        self.check(4.0, 5, n_t)

    def test_stepped_read_converges_at_second_order(self):
        # the marcher's read (support.stepped_read) reaches the exact read
        # with its second-order step error: halving h quarters it (4.07 and
        # 4.03 for h = 0.04, 0.02, 0.01)
        d, n_z = 4.0, 60
        z = np.linspace(0.0, 1.0, n_z)
        b0 = np.cos(3.0 * z) + 0.5j * z
        errs = []
        for h in (0.04, 0.02, 0.01):
            n_t = round(2.0 / h) + 1
            want = dynamics._read_march(b0, n_t, h, d, n_z)
            errs.append(np.abs(stepped_read(b0, n_t, h, d, n_z) - want).max())
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / fine == pytest.approx(4.0, abs=0.5)

    @pytest.mark.parametrize("n_z, hd", [(n_z, hd) for n_z in (4, 5, 300)
                                         for hd in (0.033, 2.0, 8.0, 20.0)] + [(1200, 0.033)])
    def test_operator_matches_dense_squarings(self, n_z, hd):
        # the structured powers against dense matrix squarings of the same
        # series; above h d = 1 both take it at h / 2^s and square s times.
        # The dense reference takes about 0.2 s at n_z = 1200: one case there
        h = hd / 4.0
        R, P = dynamics._read_operator(h, 4.0, n_z)
        want_R, want_P = dense_read_operator(h, 4.0, n_z)
        assert np.abs(R - want_R).max() <= 1e-13 * np.abs(want_R).max()
        assert np.abs(P - want_P).max() <= 1e-13 * np.abs(want_P).max()

    @pytest.mark.parametrize("d, h", [(4.0, H), (30.0, H), (4.0, 5.0)], ids=["d4", "d30", "hd20"])
    def test_power_is_toeplitz_past_column_0(self, d, h):
        # every column j >= 1 of M^128 is one lower-triangular Toeplitz column
        P = dynamics._read_operator(h, d, 300)[1]
        assert np.array_equal(P[2:, 2:], P[1:-1, 1:-1])
        assert not P[0, 1:].any()

    @pytest.mark.parametrize("d, n_z", [(4.0, 300), (30.0, 300), (4.0, 1200)])
    def test_rows_match_laguerre_closed_form(self, d, n_z):
        # columns j >= 1 of r M^i are nc e^{-tau + t} (L_K(x) + L_{K-1}(x)),
        # tau = i h, K = n_z - 1 - j, x = d tau / (n_z - 1), t = -x / 2 and
        # L_{-1} = 0: the Laguerre generating function of the prefix sum's
        # Toeplitz part (Abramowitz & Stegun ch. 22).  Rows 0-127 are R's own;
        # rows 128-255 are R P, the next block of the read through P = M^128.
        # Measured off by at most 4.6e-15 / 8.8e-15 (R / R P; d = 4, n_z = 300),
        # 8.8e-15 / 1.7e-14 (d = 30) and 1.7e-14 / 3.1e-14 (n_z = 1200) of each
        # row's max, and held to about four times that.  Column 0, the
        # rank-one part, follows from them: e^{-tau} (r_0 - r[1:] . u) +
        # sum_{j >= 1} u_{j-1} R[j] with u = [1, -1, 1, ...].  Its alternating
        # sum of n_z - 1 terms loses about n_z rounding errors: measured at
        # most 7.3e-14 at n_z = 300 and 4.9e-13 at 1200, so it is held to
        # n_z * 1e-15
        tol = {(4.0, 300): 4e-14, (30.0, 300): 7e-14, (4.0, 1200): 1.2e-13}[d, n_z]
        h = self.H
        R, P = dynamics._read_operator(h, d, n_z)
        rows = np.vstack([R, R @ P])
        r = dark_read_generator(d, n_z)[1]
        nc = -(0.5 * np.sqrt(d) / (n_z - 1))
        tau = h * np.arange(2 * dynamics._READ_BLOCK)[:, None]
        x = d * tau / (n_z - 1)
        lag = laguerre_table(n_z - 1, x[:, 0])[:, ::-1]  # column j - 1 holds L_K of column j
        K = np.arange(0, n_z - 1, 97)
        assert np.array_equal(lag[:, -1 - K], scipy.special.eval_laguerre(K, x))
        lag[:, :-1] += lag[:, 1:]
        want = nc * np.exp(-tau - 0.5 * x) * lag
        row_max = np.abs(rows).max(axis=1)
        assert (np.abs(rows[:, 1:] - want).max(axis=1) <= tol * row_max).all()
        u = (-1.0) ** np.arange(n_z - 1)
        want_0 = np.exp(-tau[:, 0]) * (r[0] - r[1:] @ u) + want @ u
        assert (np.abs(rows[:, 0] - want_0) <= n_z * 1e-15 * row_max).all()

    def test_operator_holds_one_matrix(self):
        # the powers are carried as two n_z vectors, and the one dense power
        # each doubling of R and the returned P need is built at a time:
        # 1.5 n_z x n_z matrices bound the peak (R is 0.21 of one at
        # n_z = 600), where a second dense power would not fit
        n_z = 600
        tracemalloc.start()
        try:
            R, P = dynamics._read_operator(1e-2, 4.0, n_z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert R.shape == (dynamics._READ_BLOCK, n_z) and P.shape == (n_z, n_z)
        assert peak < 1.5 * n_z * n_z * 8


class TestExactWrite:
    """The PDE transfer's probe write, the exact sum over the drive's moments."""

    @pytest.fixture
    def writes(self, monkeypatch):
        """[(args, b)] of each ``dynamics._exact_write`` call."""
        calls = []
        write = dynamics._exact_write

        def recorded(*args):
            calls.append((args, write(*args)))
            return calls[-1][1]

        monkeypatch.setattr(dynamics, "_exact_write", recorded)
        return calls

    @staticmethod
    def widest(d):
        """The probe width at the leakage limit: the centroid of the
        symmetric window is half its width, so d w / (2 K_0) = 1e-2."""
        return 2.0 * dynamics.LEAKAGE_LIMIT * abs(kernel(TestPdeTransfer.params(d), 0.0)) / (
            d * GAMMA_S)

    @pytest.mark.parametrize("d, widest", [(4.0, False), (30.0, False), (0.05, True)],
                             ids=["d4", "d30", "d0.05-widest"])
    def test_matches_expm_oracle(self, writes, d, widest):
        # the default grids (300 z points, 401 probe samples); a 401-step
        # march of the same drive sits 4.1e-10 (d = 4) and 4.1e-9 (d = 30) off
        width = self.widest(d) * (1.0 - 1e-9) if widest else None
        transfer_function_estimate(TestPdeTransfer.params(d), TestPdeTransfer.OMEGAS,
                                   path="pde", probe_width=width)
        [((drive, h, dd, n_z), got)] = writes
        assert (drive.shape, n_z, dd) == ((401, 5), 300, d)
        want = expm_write(drive, h, d, n_z)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_march_converges_at_second_order(self):
        # the marcher on the same piecewise-linear drive, its samples at
        # h, h/2, h/4 and h/8 (the midpoints by np.interp): halving h
        # quarters its distance to the exact write (4.03, 4.01, 4.01)
        d, n_z = 4.0, 60
        t = np.linspace(0.0, 0.2, 21)
        drive = np.cos(20.0 * t) + 2.5j * t
        want = dynamics._exact_write(drive, t[1] - t[0], d, n_z)
        errs = []
        for n in (21, 41, 81, 161):
            tf = np.linspace(0.0, 0.2, n)
            fine = np.interp(tf, t, drive.real) + 1j * np.interp(tf, t, drive.imag)
            b_T = march(np.zeros(n_z), fine, tf[1] - tf[0], d)[1]
            errs.append(np.abs(b_T - want).max())
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / fine == pytest.approx(4.0, abs=0.5)

    def test_degree_bound_at_widest_probe(self, monkeypatch, writes):
        # the leakage check runs before the write and bounds its probe width
        # by 0.02 K_0 / d, so theta = w (1 + d) <= 0.026 (at most 0.02597,
        # near d = 1.8); theta^8 / 8! <= 1e-17 there, so the Taylor series
        # stops by degree 7 and needs no scaling and squaring.  The read is
        # stubbed: only the write's arguments are looked at
        monkeypatch.setattr(dynamics, "_read_march", lambda b0, n_t, *args: np.zeros(
            (n_t,) + np.shape(b0)[1:], dtype=complex))
        for d in np.geomspace(1e-2, 1e3, 41):
            p, width = TestPdeTransfer.params(d), self.widest(d)
            with pytest.raises(ProbeDesignError, match="capture-bias"):
                transfer_function_estimate(p, [0.0], path="pde", probe_width=width * (1.0 + 1e-6))
            transfer_function_estimate(p, [0.0], path="pde", probe_width=width * (1.0 - 1e-9))
            (drive, h, _, _), _ = writes[-1]
            theta = h * (drive.shape[0] - 1) * (1.0 + d)
            assert theta <= 0.026
            assert theta**8 / math.factorial(8) <= dynamics._TAYLOR_TOL
        assert len(writes) == 41


class TestBesselTables:
    """J0 is evaluated on small square cores per kernel, whatever the probe count."""

    SMALL = dict(n_probe=201, n_z=100, n_read=601)

    @pytest.fixture
    def j0_calls(self, monkeypatch):
        calls = []

        def counted(x):
            calls.append(np.shape(x))
            return bessel_j0(x)

        monkeypatch.setattr(dynamics, "bessel_j0", counted)
        return calls

    def test_write_evaluates_square_cores(self, j0_calls):
        write_analytic(np.ones(800, dtype=complex), params10(), 50)
        assert j0_calls and all(len(s) == 2 and s[0] == s[1] for s in j0_calls)
        assert sum(np.prod(s) for s in j0_calls) < 50 * 800

    @pytest.mark.parametrize("n_probes", [1, 3])
    def test_transfer_builds_two_tables(self, j0_calls, n_probes):
        """One J0 core per kernel, write and read, each grown from the smallest size."""
        omegas = np.linspace(-0.1, 0.1, n_probes) * GAMMA_S
        transfer_function_estimate(params10(), omegas, **self.SMALL)
        sizes = [max(s) for s in j0_calls]
        start = dynamics._CORE_START
        assert sizes.count(start) == 2
        assert all(b > a or b == start for a, b in zip(sizes, sizes[1:]))

    def test_transfer_cores_do_not_depend_on_probe_count(self, j0_calls):
        transfer_function_estimate(params10(), [0.0], **self.SMALL)
        one = list(j0_calls)
        j0_calls.clear()
        transfer_function_estimate(params10(), np.linspace(-0.1, 0.1, 3) * GAMMA_S, **self.SMALL)
        assert j0_calls == one
        assert all(len(s) == 2 and s[0] == s[1] for s in one)

    @pytest.mark.parametrize("path", ["analytic", "pde"])
    def test_stacked_probes_match_single_runs(self, path):
        p = params10()
        omegas = [0.0, 0.05 * GAMMA_S, -0.1 * GAMMA_S]
        together = transfer_function_estimate(p, omegas, path=path, **self.SMALL)
        alone = np.array([
            transfer_function_estimate(p, [w], path=path, **self.SMALL)[0]
            for w in omegas
        ])
        assert np.abs(together - alone).max() <= 1e-12 * np.abs(alone).max()


class TestBesselCore:
    """The Chebyshev-core quadrature against the full J0 table."""

    @staticmethod
    def case(d, gamma, n_rows, n, k, seed, write, on_nodes):
        rng = np.random.default_rng(seed)
        span = 1.0 if write else 5.0 * gamma  # write rows are z, read rows are tau
        rows = np.sort(rng.uniform(0.0, span, n_rows))
        if on_nodes and n_rows > 1:
            # add rows on the core nodes of the first sizes tried; the clip keeps
            # the span, so the interior ones are exact nodes of the longer axis
            span = np.linspace(rows[0], rows[-1], 65)
            nodes = [dynamics._core_nodes(span, p) for p in (17, 33)]
            rows = np.clip(np.concatenate([rows] + nodes), rows[0], rows[-1])
        if write:
            tau = np.linspace(0.0, gamma, n)
            cols, h = gamma - tau, tau[1] - tau[0]
        else:
            z = np.linspace(0.0, 1.0, n)
            cols, h = 1.0 - z, z[1] - z[0]
        shape = (n,) if k == 1 else (n, k)
        samples = 1.0 + 0.5 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        return rows, cols, d, samples, h, write

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        d=st.floats(0.1, 40.0),
        gamma=st.floats(1.0, 20.0),
        n_rows=st.one_of(st.integers(1, 3), st.integers(4, 300)),
        n=st.integers(9, 120),
        k=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
        write=st.booleans(),
        on_nodes=st.booleans(),
    )
    def test_matches_table(self, d, gamma, n_rows, n, k, seed, write, on_nodes):
        args = self.case(d, gamma, n_rows, n, k, seed, write, on_nodes)
        got, est = dynamics._bessel_quadrature(*args)
        want, est_want = table_quadrature(*args)
        assert got.shape == want.shape
        # relative to the integral of |kernel x sample|: a read row far out in
        # tau cancels its oscillating kernel down to ~1/50 of that scale
        rows, cols, d, samples, h, write = args
        wx = simpson_weights(n, h)[:, None] * np.abs(samples.reshape(n, -1))
        scale = (np.abs(kernel_table(rows, cols, d, write)) @ wx).max()
        assert np.abs(got - want).max() <= 1e-12 * scale
        assert abs(est - est_want) <= 1e-9 * est_want

    def test_read_times_on_core_nodes(self):
        # every read time is a node of the 17-, 33- or 65-point core on [0, 25]
        span = np.linspace(0.0, 25.0, 200)
        tau = np.concatenate([dynamics._core_nodes(span, p) for p in (17, 33, 65)])
        assert np.isin(dynamics._core_nodes(tau, 33), tau).all()
        z = np.linspace(0.0, 1.0, 201)
        b = np.cos(3.0 * z) + 0.5j
        got, _ = dynamics._bessel_quadrature(tau, 1.0 - z, 4.0, b, z[1] - z[0], write=False)
        want, _ = table_quadrature(tau, 1.0 - z, 4.0, b, z[1] - z[0], write=False)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_repeated_read_time(self):
        # min = max on a row axis longer than the core: every row is every node
        z = np.linspace(0.0, 1.0, 201)
        tau = np.full(40, 3.0)
        got, _ = dynamics._bessel_quadrature(tau, 1.0 - z, 4.0, np.ones(201), z[1] - z[0], False)
        want, _ = table_quadrature(tau, 1.0 - z, 4.0, np.ones(201), z[1] - z[0], False)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestBatchedMarch:
    """Independent runs march together as the columns of one marcher."""

    @pytest.mark.parametrize("driven", [True, False], ids=["write", "read"])
    def test_columns_match_single_runs(self, driven):
        rng = np.random.default_rng(5)
        n_z, n_t, k = 40, 120, 3
        if driven:
            b0 = np.zeros((n_z, k))
            bound = rng.standard_normal((n_t, k)) + 1j * rng.standard_normal((n_t, k))
        else:
            b0 = rng.standard_normal((n_z, k)) + 1j * rng.standard_normal((n_z, k))
            bound = np.zeros((n_t, k), dtype=complex)

        traces = march(b0, bound)
        assert [x.shape for x in traces] == [(n_t, k), (n_z, k), (n_z, k)]
        for i in range(k):
            for x, y in zip(traces, march(b0[:, i], bound[:, i])):
                assert np.array_equal(x[..., i], y)

    @pytest.mark.parametrize("n_probes", [1, 3])
    def test_transfer_reads_once(self, march_calls, read_calls, n_probes):
        # one exact write sum and one read of all probes, whose operator is
        # built once, whatever the probe count; nothing marches
        omegas = np.linspace(-0.1, 0.1, n_probes) * GAMMA_S
        transfer_function_estimate(params10(), omegas, path="pde", **TestBesselTables.SMALL)
        n_z = TestBesselTables.SMALL["n_z"]
        assert march_calls == []
        assert read_calls == [[(n_z, n_probes), TestBesselTables.SMALL["n_read"], 1]]


class TestMarchReference:
    """``_march`` against ``support.oracle_traces``, its scheme in plain form in long double."""

    @pytest.mark.parametrize("n_z", [4, 5, 40])
    @pytest.mark.parametrize("k", [None, 3], ids=["1-d", "columns"])
    @pytest.mark.parametrize("driven", [True, False], ids=["driven", "dark"])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_every_yield_is_bit_identical(self, monkeypatch, n_z, k, driven, real):
        # each ring of macro steps yields its traces: a(1, .) and b(., T) keep
        # their bits whatever the ring size (the smallest ring: 2 macro
        # steps), and every trace lies within the oracle's bounds
        rng = np.random.default_rng(22)
        shape = () if k is None else (k,)
        n_t = 60

        def draw(n):
            x = rng.standard_normal((n,) + shape)
            return x if real else x + 1j * rng.standard_normal((n,) + shape)

        if driven:
            b0, bound = np.zeros((n_z,) + shape), draw(n_t)
        else:
            b0, bound = draw(n_z), np.zeros((n_t,) + shape)
        got = march(b0, bound)
        assert [x.shape for x in got] == [(n_t,) + shape, (n_z,) + shape, (n_z,) + shape]
        assert got[0].dtype == got[1].dtype == (np.float64 if real else np.complex128)
        assert got[2].dtype == np.float64
        # random drives: the worst case over these runs for the march
        # before the skewed schedule was 2.6e-14, 1.6e-13 and 1.1e-13
        assert_near_oracle(got, b0, bound, 0.01, 4.0, simpson_weights(n_t, 0.01),
                           (1.1e-13, 6.2e-13, 4.5e-13))
        smallest_ring(monkeypatch)
        small = march(b0, bound)
        assert np.array_equal(small[0], got[0]) and np.array_equal(small[1], got[1])
        assert np.abs(small[2] - got[2]).max() <= 1e-13 * np.abs(got[2]).max()

    @staticmethod
    def loop_peak(monkeypatch, n_z, n_t):
        """How far tracemalloc's peak rose past what a march held once its step matrices were built."""
        held = []
        for name in ("_chunk_matrix", "_prefix_matrices"):
            def last(*args, build=getattr(dynamics, name)):
                out = build(*args)
                held.append(tracemalloc.get_traced_memory()[0])
                tracemalloc.reset_peak()
                return out
            monkeypatch.setattr(dynamics, name, last)
        monkeypatch.setattr(dynamics, "_MARCH_BYTES", 2**16)  # several rings
        tracemalloc.start()
        try:
            march(np.zeros(n_z), np.ones(n_t))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(held) == 1
        return peak - held[0]

    def test_steps_allocate_no_field_sized_array(self, monkeypatch):
        # each kernel, skewed (n_t = n_z / 2) and down all of z (n_t = 40),
        # builds its step matrices last; from then on every step and every
        # ring's traces work in place: a stray product or a prefix sum without
        # out= would allocate an array that grows with n_z.  What the loop
        # does allocate, numpy's iteration buffers for the strided squares
        # (at most 8192 elements each), is the same at n_z = 2000 and 8000
        for n_t in (None, 40):
            peaks = []
            for n_z in (2000, 8000):
                with monkeypatch.context() as patch:
                    peaks.append(self.loop_peak(patch, n_z, n_t or n_z // 2))
            assert abs(peaks[1] - peaks[0]) < 2000 * 8


class TestMarchOracle:
    """``pde_write`` against the long-double oracle (``support.oracle_write``) at d = 4 and 30.

    Each bound is four times the largest error of the march before the
    skewed schedule at that grid, over both depths and both drives:
    relative to each trace's largest value, a(1, .) 2.4e-13 and 4.5e-13
    (the chirped drive at d = 30), b(., T) 2.3e-15 and 2.6e-15, the |b|^2
    sums 4.2e-15 and 2.5e-15, and the budget residual 3.1e-16 and 1.5e-16
    absolute, at 60 x 200 and 300 x 400.
    """

    TOL = {(60, 200): (1e-12, 9e-15, 1.7e-14, 1.2e-15),
           (300, 400): (1.8e-12, 1.1e-14, 1.1e-14, 6.1e-16)}

    @pytest.mark.parametrize("n_z, n_t", list(TOL))
    @pytest.mark.parametrize("d", [4.0, 30.0])
    @pytest.mark.parametrize("chirp", [False, True], ids=["flat", "chirp"])
    def test_write_matches_the_oracle(self, n_z, n_t, d, chirp):
        p = params10(d)
        t = np.linspace(0.0, 1.0, n_t)
        a_in = np.exp(-((t - 0.6) ** 2) / 0.05 + 3j * t) if chirp else np.ones(n_t)
        run, ref = pde_write(a_in, p, n_z, n_t), oracle_write(a_in, p, n_z, n_t)
        tol = self.TOL[n_z, n_t]
        for x, y, bound in zip((run.a_out, run.profile.b_T, run.b_sq_dt),
                               (ref.a_out, ref.profile.b_T, ref.b_sq_dt), tol):
            assert np.abs(x - y).max() <= bound * np.abs(y).max()
        assert abs(energy_budget(run, p)["residual"] - energy_budget(ref, p)["residual"]) <= tol[3]


class TestRealMarch:
    """A real state and boundary march in float64, with the bits of a complex march's parts."""

    @pytest.mark.parametrize("real_b0, real_bound, dtype", [
        (True, True, np.float64), (False, True, np.complex128),
        (True, False, np.complex128), (False, False, np.complex128),
    ])
    def test_dtype_rule(self, real_b0, real_bound, dtype):
        b0 = np.zeros(40, dtype=float if real_b0 else complex)
        bound = np.ones(6, dtype=float if real_bound else complex)
        assert [x.dtype for x in march(b0, bound)] == [dtype, dtype, np.float64]

    @pytest.mark.parametrize("k", [None, 3], ids=["1-d", "columns"])
    @pytest.mark.parametrize("driven", [True, False], ids=["driven", "dark"])
    def test_complex_march_is_two_real_marches(self, driven, k):
        # a complex march runs its real and imaginary parts as two float64
        # marches, so its traces are theirs, bit for bit, and its |b|^2
        # sums their sum
        rng = np.random.default_rng(21)
        shape = () if k is None else (k,)
        n_z, n_t = 40, 120

        def draw(n):
            return rng.standard_normal((n,) + shape) + 1j * rng.standard_normal((n,) + shape)

        if driven:
            b0, bound = np.zeros((n_z,) + shape), draw(n_t)
        else:
            b0, bound = draw(n_z), np.zeros((n_t,) + shape)
        both = march(b0, bound)
        x, y = (march(part(b0), part(bound)) for part in (np.real, np.imag))
        for i in range(2):
            assert both[i].dtype == np.complex128 and x[i].dtype == y[i].dtype == np.float64
            assert np.array_equal(both[i].real, x[i]) and np.array_equal(both[i].imag, y[i])
        assert np.array_equal(both[2], x[2] + y[2])

    @pytest.mark.parametrize("d", [4.0, 0.0])
    def test_zero_imaginary_drive_gives_the_same_record(self, monkeypatch, d):
        p = params10(d)
        n_z, n_t = 60, 200
        t = np.linspace(0.0, 1.0, n_t)
        drive = np.exp(-((t - 0.6) ** 2) / 0.05) - 0.3 * t
        dtypes = []
        original = dynamics._march

        def recorded(*args):
            traces = original(*args)
            dtypes.append(traces[0].dtype)
            return traces

        def fields(run):
            return run.profile.b_T, run.t_points, run.a_in, run.a_out, run.b_sq_dt

        monkeypatch.setattr(dynamics, "_march", recorded)
        real = pde_write(drive, p, n_z, n_t)
        cplx = pde_write(drive + 0j, p, n_z, n_t)
        for got, want in zip(fields(cplx), fields(real)):
            assert np.array_equal(got, want) and got.dtype == want.dtype
            assert not got.flags.writeable and not want.flags.writeable
        assert real.profile.b_T.dtype == real.a_in.dtype == real.a_out.dtype == np.complex128
        # both drives march in float64; one with an imaginary part marches complex
        pde_write(drive + 1e-3j, p, n_z, n_t)
        assert dtypes == ([np.float64] * 2 + [np.complex128] if d else [])


class TestWriteBudget:
    """The history-free write march against the full-history grid route."""

    @staticmethod
    def case(n_z, n_t):
        if (n_z, n_t) == (2000, 2000):  # configs/dynamics.ini: flat drive, gamma_s T = 10
            p = MemoryParams(d=4.0, gamma_s=GAMMA_S, T=88.42e-6)
            return p, np.ones(n_t, dtype=complex)
        t = np.linspace(0.0, 1.0, n_t)
        return params10(), np.exp(-((t - 0.6) ** 2) / 0.05 + 3j * t)

    @pytest.mark.parametrize("n_z, n_t", [(300, 400), (2000, 2000)])
    def test_matches_grid_route(self, n_z, n_t):
        p, a_in = self.case(n_z, n_t)
        run = pde_write(a_in, p, n_z, n_t)
        bud = energy_budget(run, p)
        z, t, a, b = grid_write(a_in, p, n_z, n_t)
        # the grid route's histories come from the long-double oracle: b(., T)
        # within four times the largest error of the march before the skewed
        # schedule at 1000 x 1000 and 2000 x 2000 (8.7e-15, flat drive, d = 30)
        assert np.abs(run.profile.b_T - b[:, -1]).max() <= 3.5e-14 * np.abs(b[:, -1]).max()
        ref = grid_budget(z, t, a, b, p)
        assert set(bud) == set(ref)
        for key in ("input", "transmitted", "stored", "decayed"):
            assert bud[key] == pytest.approx(ref[key], rel=1e-12, abs=0.0)
        assert abs(bud["residual"] - ref["residual"]) <= 1e-12

    def test_zero_depth_matches_grid_route(self):
        p, a_in = self.case(300, 400)
        p = MemoryParams(d=0.0, gamma_s=p.gamma_s, T=p.T)
        run = pde_write(a_in, p, 300, 400)
        z, t, a, b = grid_write(a_in, p, 300, 400)
        assert np.array_equal(run.profile.b_T, b[:, -1])
        assert energy_budget(run, p) == grid_budget(z, t, a, b, p)

    @pytest.mark.parametrize("d", [4.0, 0.0])
    def test_nan_boundary_raises(self, d):
        p = params10(d)
        a_in = np.ones(400, dtype=complex)
        a_in[200] = np.nan
        with pytest.raises(PhysicsError, match="finite"):
            pde_write(a_in, p, 300, 400)

    def test_grid_size_checks(self):
        p = params10()
        with pytest.raises(DimensionError, match="at least 4"):
            pde_write(np.ones(400), p, 3, 400)
        with pytest.raises(DimensionError, match="n_t = 400"):
            pde_write(np.ones(399), p, 300, 400)

    def test_keeps_no_history(self):
        n_z, n_t = 300, 400
        p, a_in = self.case(n_z, n_t)
        one_array = n_z * n_t * 16  # one (n_z, n_t) complex128 array

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(lambda: energy_budget(pde_write(a_in, p, n_z, n_t), p)) < one_array
        # the grid route holds two such arrays, so the bound separates the routes
        assert peak(lambda: grid_budget(*grid_write(a_in, p, n_z, n_t), p)) > 2 * one_array
