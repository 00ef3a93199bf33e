import re
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
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
    tukey_window,
    write_analytic,
)
from support import grid_budget, grid_write, stepped_read

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
    """[b0 shape, yields taken] of each ``dynamics._march`` call, in call order."""
    calls = []
    march = dynamics._march

    def counted(b0, *args, **kwargs):
        calls.append([np.shape(b0), 0])
        call = calls[-1]
        for step in march(b0, *args, **kwargs):
            call[1] += 1
            yield step

    monkeypatch.setattr(dynamics, "_march", counted)
    return calls


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


def operator_builds(n_z):
    """``march_calls`` entries of one read operator: one step on each 32 unit columns."""
    return [[(n_z, min(32, n_z - s)), 2] for s in range(0, n_z, 32)]


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

    def test_write_record_is_the_stepper_output(self):
        p = params10()
        n_z, n_t = 40, 120
        a_in = np.exp(1j * np.linspace(0.0, 3.0, n_t))
        run = pde_write(a_in, p, n_z, n_t)
        sg = np.sqrt(p.gamma_s)
        h = p.gamma_s * p.T / (n_t - 1)
        steps = dynamics._march(np.zeros(n_z), a_in / sg, h, p.d, n_z)
        b_sq = np.empty((n_z, n_t))
        for j, (a, b) in enumerate(steps):
            assert run.a_in[j] == a[0] * sg and run.a_out[j] == a[-1] * sg
            b_sq[:, j] = np.abs(b) ** 2
        assert j == n_t - 1
        assert np.array_equal(run.profile.b_T, b)
        assert np.array_equal(run.t_points, np.linspace(0.0, p.T, n_t))
        want = b_sq @ simpson_weights(n_t, p.T / (n_t - 1))
        assert np.abs(run.b_sq_dt - want).max() <= 1e-13 * want.max()

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

    def test_empty_probe_list(self):
        assert transfer_function_estimate(params10(), []).size == 0

    def test_chunk_rule_needs_default_window(self):
        # any n_read of at least 3 is read whole, on the default and an
        # explicit PDE window and on the analytic route
        p = params10()
        for kw in (dict(path="pde"), dict(T_read=5.0 * p.T, path="pde"), dict(path="analytic")):
            g = transfer_function_estimate(p, [0.0], n_probe=201, n_z=100, n_read=600, **kw)
            assert np.isfinite(g).all()

    @pytest.mark.parametrize("name, n, path", [
        (name, n, path)
        for name, n in [("n_z", 1), ("n_z", 2), ("n_z", 3), ("n_probe", 0), ("n_probe", 1),
                        ("n_probe", 2), ("n_read", 1), ("n_read", 2)]
        for path in ("analytic", "pde")
    ] + [("n_z", 4, "analytic"), ("n_probe", 3, "analytic"), ("n_probe", 4, "analytic"),
         ("n_read", 3, "analytic"), ("n_read", 4, "analytic")])
    def test_grid_sizes_checked_first(self, monkeypatch, march_calls, name, n, path):
        # on the PDE path n_z below 4 (the write stages' floor) or n_probe,
        # n_read below 3 (Simpson's) raise before any march; unchecked, they
        # raised IndexError or returned gains of 0 (n_z = 1) or |g(0)| = 1.33
        # (n_z = 2).  The analytic error estimates take stride-2 Simpson sums
        # over an odd run, so that path needs 5 samples per axis and raises
        # before any quadrature; n = 3 or 4 raised an unnamed DimensionError
        least = 5 if path == "analytic" else 4 if name == "n_z" else 3
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
    def test_stop_lands_near_half_the_window(self, march_calls, read_calls, d):
        # the default read returns every sample of its window
        p = self.params(d)
        transfer_function_estimate(p, self.OMEGAS, path="pde")
        assert march_calls == [[(300, 5), 401]] + operator_builds(300)
        assert read_calls == [[(300, 5), dynamics._pde_read_samples(d), 1]]

    def test_explicit_window_marches_whole(self, march_calls, read_calls):
        p = self.params(4.0)
        transfer_function_estimate(p, self.OMEGAS, 3.0 * p.T, path="pde")
        assert march_calls == [[(300, 5), 401]] + operator_builds(300)
        assert read_calls == [[(300, 5), 6001, 1]]

    def test_defaults_against_refined_grid(self):
        p = self.params(4.0)
        default = transfer_function_estimate(p, self.OMEGAS, path="pde")
        fine = transfer_function_estimate(p, self.OMEGAS, path="pde", n_z=600, n_probe=801)
        assert self.rel(default, fine) <= 1e-5

    def test_analytic_defaults_unchanged(self):
        p = self.params(4.0)
        default = transfer_function_estimate(p, self.OMEGAS)
        explicit = transfer_function_estimate(p, self.OMEGAS, n_z=1200, n_probe=1601, n_read=6001)
        assert np.array_equal(default, explicit)

    def test_coarse_read_step_warns(self):
        # gamma_s * dt = 0.5: |g(0)| comes out 25% off |K_0|
        with pytest.warns(ResolutionWarning, match="under-resolved") as caught:
            transfer_function_estimate(self.params(4.0), [0.0], path="pde", n_read=101)
        assert caught[0].filename == __file__

    @pytest.mark.parametrize("d", [4.0, 30.0])
    def test_default_grids_do_not_warn(self, recwarn, d):
        transfer_function_estimate(self.params(d), self.OMEGAS[:2], path="pde")
        assert not [w for w in recwarn if issubclass(w.category, ResolutionWarning)]

    def test_read_operator_size_checked_first(self):
        # past n_z = 4096 one n_z x n_z operator would exceed 128 MiB; the
        # check comes before the write march or any grid-sized array
        tracemalloc.start()
        try:
            with pytest.raises(DimensionError, match="n_z <= 4096"):
                transfer_function_estimate(self.params(4.0), self.OMEGAS, path="pde", n_z=4097)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("d, n_read", [(0.0, 6001), (4.0, 6001), (12.0, 6001),
                                           (12.5, 12001), (30.0, 18001)])
    def test_read_samples_scale_with_depth(self, d, n_read):
        assert dynamics._pde_read_samples(d) == n_read


class TestOperatorRead:
    """The block read of the one-step matrix against a plain stepped read."""

    @staticmethod
    def check(d, k, n_t):
        """The first n_t samples of a read at the default 5T step from k written profiles."""
        p = TestPdeTransfer.params(d)
        n_z = 300
        h = p.gamma_s * 5.0 * p.T / (dynamics._pde_read_samples(d) - 1)
        t = np.linspace(0.0, 1.0, 2000)
        b0 = np.stack([write_analytic(np.exp(8j * w * t), p, n_z).b_T
                       for w in np.linspace(-1.0, 1.0, k)], axis=1)
        b0 = b0[:, 0] if k == 1 else b0
        got = dynamics._read_march(b0, n_t, h, d, n_z)
        want = stepped_read(b0, n_t, h, d, n_z)
        assert got.shape == want.shape == (n_t,) + b0.shape[1:]
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("explicit", [False, True], ids=["default", "explicit"])
    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("d", [4.0, 30.0])
    def test_matches_stepped_read(self, d, k, explicit):
        # the default 5T window, or an explicit 3T one
        n_read = dynamics._pde_read_samples(d)
        self.check(d, k, (n_read - 1) * 3 // 5 + 1 if explicit else n_read)

    @pytest.mark.parametrize("n_t", [3, 127, 128, 129, 257])
    def test_block_boundaries_match_stepped_read(self, n_t):
        # windows ending in, at and just past a block's last sample
        self.check(4.0, 5, n_t)

    def test_operator_holds_two_matrices(self):
        # the unit columns go through the marcher 32 at a time, and squaring
        # keeps at most the power and its square: 2.5 n_z x n_z matrices
        # bound the peak, where a third matrix or a whole complex identity
        # marched at once would not fit
        n_z = 600
        tracemalloc.start()
        try:
            R, P = dynamics._read_operator(1e-2, 4.0, n_z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert R.shape == (dynamics._READ_BLOCK, n_z) and P.shape == (n_z, n_z)
        assert peak < 2.5 * n_z * n_z * 8


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

        def history(b0, bound):
            steps = [(a.copy(), b.copy()) for a, b in dynamics._march(b0, bound, 0.01, 4.0, n_z)]
            return np.array([a for a, _ in steps]), np.array([b for _, b in steps])

        a, b = history(b0, bound)
        assert a.shape == b.shape == (n_t, n_z, k)
        for i in range(k):
            a_i, b_i = history(b0[:, i], bound[:, i])
            assert np.abs(a[..., i] - a_i).max() <= 1e-13 * np.abs(a_i).max()
            assert np.abs(b[..., i] - b_i).max() <= 1e-13 * np.abs(b_i).max()

    @pytest.mark.parametrize("n_probes", [1, 3])
    def test_transfer_marches_twice(self, march_calls, read_calls, n_probes):
        # one write march and one read of all probes; the read operator's
        # one-step builds do not depend on the probe count
        omegas = np.linspace(-0.1, 0.1, n_probes) * GAMMA_S
        transfer_function_estimate(params10(), omegas, path="pde", **TestBesselTables.SMALL)
        n_z = TestBesselTables.SMALL["n_z"]
        assert march_calls == [[(n_z, n_probes), 201]] + operator_builds(n_z)
        assert read_calls == [[(n_z, n_probes), TestBesselTables.SMALL["n_read"], 1]]


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
        assert np.array_equal(run.profile.b_T, b[:, -1])
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
