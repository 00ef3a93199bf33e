import csv
import hashlib
import json
import os
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from combmemory import (CombMemoryError, CovarianceMatrix, ModeBasis, StoredProfile,
                        __version__, cli)
from combmemory.channel import MAX_KERNEL_POINTS, efficiency, pulse_capacity
from combmemory.cli import main
from combmemory.config import MAX_SWEEP_DEPTHS, load_config
from combmemory.tables import write_csv
from support import grid_budget, grid_write, random_pure_state

DEMO = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "demo.ini")
EPR = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "channel_epr.ini")
SHIPPED_DYNAMICS = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "dynamics.ini")

BASE = """\
[memory]
d = 4
gamma_s = 2pi*18 kHz
T = 1 ms
rep_rate = 80 MHz

[state]
squeezing_db = -6, -3, -1
teeth = 32

[output]
seed = 0
"""

DYNAMICS = """\
[memory]
d = 4
gamma_s = 2pi*18 kHz
T = 88.42 us

[state]
squeezing_db = -6

[dynamics]
n_z = 600
n_t = 600
probe_omegas = 0
"""


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(tmp_path, command, text=BASE, extra=()):
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    rc = main([command, "--config", cfg, "--out", str(out), *extra])
    return rc, out


def csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def sweep_rows_at(out, d):
    """The sweep's per-mode rows at depth ``d``, without the d and eta columns."""
    return [row[2:] for row in csv_rows(out / "sweep_curves.csv") if float(row[0]) == d]


class TestKernelCommand:
    def test_outputs(self, tmp_path):
        rc, out = run(tmp_path, "kernel")
        assert rc == 0
        csv_lines = (out / "kernel_response.csv").read_text().splitlines()
        assert csv_lines[0] == "omega_rad_s,re_K,im_K,absK2"
        assert len(csv_lines) == 202
        summary = json.loads((out / "kernel_summary.json").read_text())
        assert summary["efficiency"] == pytest.approx(0.9637041848504341)
        assert summary["flatness"] <= 2e-3
        assert summary["narrowband"] is True
        assert len(summary["response"]) == 201

    def test_zero_depth_is_flat(self, tmp_path):
        # at d = 0 nothing is retrieved at any frequency, so no band is uneven
        rc, out = run(tmp_path, "kernel", BASE.replace("d = 4", "d = 0"))
        assert rc == 0
        summary = json.loads((out / "kernel_summary.json").read_text())
        assert summary["flatness"] == 0.0 and summary["efficiency"] == 0.0

    @pytest.mark.parametrize("line, key, code", [
        ("n_points = 0", "n_points", 2),
        ("n_points = 1", "n_points", 2),
        ("n_points = 2", None, 0),
        ("omega_max = -2pi*1 kHz", "omega_max", 2),
        ("omega_max = 0", None, 0),  # a zero band collapses to omega = 0
    ])
    def test_kernel_key_floors(self, tmp_path, capsys, line, key, code):
        rc, _ = run(tmp_path, "kernel", BASE + f"\n[kernel]\n{line}\n")
        assert rc == code
        if key is not None:
            assert f"[kernel] {key}" in capsys.readouterr().err

    def test_point_count_bound(self, tmp_path, capsys, monkeypatch):
        # one point over channel.MAX_KERNEL_POINTS exits 2 at load, before any sampling
        def never(*args):
            raise AssertionError("frequency_response ran")

        monkeypatch.setattr(cli, "frequency_response", never)
        rc, _ = run(tmp_path, "kernel", BASE + f"\n[kernel]\nn_points = {MAX_KERNEL_POINTS + 1}\n")
        assert rc == 2
        assert "[kernel] n_points" in capsys.readouterr().err

    def test_manifest(self, tmp_path):
        rc, out = run(tmp_path, "kernel")
        man = json.loads((out / "manifest.json").read_text())
        assert man["command"] == "kernel"
        assert man["seed"] == 0
        assert len(man["config_sha256"]) == 64
        assert "kernel_response.csv" in man["files"]
        assert man["derived"]["pulse_capacity"] == 80000


class TestMetricsCommand:
    def test_table_values(self, tmp_path):
        rc, out = run(tmp_path, "metrics")
        assert rc == 0
        data = json.loads((out / "metrics_table.json").read_text())
        fids = [row["fidelity"] for row in data["rows"]]
        assert data["fidelity_vector"] == fids
        assert fids[0] == pytest.approx(0.9806864506695876, abs=1e-9)
        assert fids == sorted(fids)
        assert data["overall_fidelity"] == pytest.approx(np.prod(fids), rel=1e-12)

    def test_csv_header(self, tmp_path):
        rc, out = run(tmp_path, "metrics")
        header = (out / "metrics_table.csv").read_text().splitlines()[0]
        assert header == "mode_index,zeta_in_dB,zeta_out_dB,purity,fidelity"


class TestChannelCommand:
    def test_preset_with_random_pumps(self, tmp_path):
        text = BASE.replace("squeezing_db = -6, -3, -1", "preset = epr") + (
            "\n[pumps]\nbasis = random-unitary\n"
        )
        rc, out = run(tmp_path, "channel", text)
        assert rc == 0
        summary = json.loads((out / "channel_summary.json").read_text())
        assert summary["pump_basis"] == "random-unitary"
        assert summary["basis_independence_max_abs"] < 1e-10
        assert (out / "channel_c_out.csv").exists()

    def test_spectrum_rows(self, tmp_path):
        rc, out = run(tmp_path, "channel")
        assert rc == 0
        rows = (out / "channel_spectra.csv").read_text().splitlines()
        assert rows[0] == "index,zeta_in,zeta_out"
        assert len(rows) == 4

    @pytest.mark.parametrize("source", ["spectrum", "file"])
    def test_more_modes_than_teeth_rejected_before_building(self, tmp_path, monkeypatch,
                                                            capsys, source):
        # three modes on two teeth: the check must come before any 2M x 2M
        # covariance (and its eigenvalue check) exists, whose cost grows as M^3
        def unbuilt(*args, **kwargs):
            raise AssertionError("a covariance was built before the teeth check")

        monkeypatch.setattr(cli, "squeezed_vacuum", unbuilt)
        monkeypatch.setattr(cli, "CovarianceMatrix", SimpleNamespace(from_json=unbuilt))
        text = BASE.replace("teeth = 32", "teeth = 2")
        if source == "file":
            state = tmp_path / "state.json"
            state.write_text(json.dumps({"mode_count": 3, "rows": np.eye(6).tolist()}))
            text = text.replace("squeezing_db = -6, -3, -1", f"file = {state}")
        rc, _ = run(tmp_path, "channel", text)
        assert rc == 2
        assert "state has 3 modes but only 2 teeth configured" in capsys.readouterr().err

    def test_preset_with_more_modes_than_teeth_rejected(self, tmp_path, capsys):
        text = BASE.replace("squeezing_db = -6, -3, -1", "preset = epr").replace(
            "teeth = 32", "teeth = 1")
        rc, _ = run(tmp_path, "channel", text)
        assert rc == 2
        assert "state has 2 modes but only 1 teeth configured" in capsys.readouterr().err

    def test_teeth_only_bound_the_mode_count(self, tmp_path, monkeypatch):
        # every tooth past M would be zero in both bases, so the cascade runs
        # on M teeth whatever `teeth` is, and no data file depends on it
        shapes, post_init = [], ModeBasis.__post_init__

        def recorded(basis):
            post_init(basis)
            shapes.append(basis.matrix.shape)

        monkeypatch.setattr(ModeBasis, "__post_init__", recorded)
        levels = ", ".join(str(-0.75 * (k + 1)) for k in range(8))
        text = BASE.replace("-6, -3, -1", levels).replace("seed = 0", "seed = 3\nformat = both")
        text += "\n[pumps]\nbasis = random-unitary\n"
        files = {}
        for teeth in (8, 65536):
            cfg = write_config(tmp_path, text.replace("teeth = 32", f"teeth = {teeth}"))
            out = tmp_path / str(teeth)
            assert main(["channel", "--config", cfg, "--out", str(out)]) == 0
            files[teeth] = written(out)[0]
        assert files[8] == files[65536]
        assert len(files[8]) == 4
        assert shapes == [(8, 8)] * 4  # supermodes and pumps, per run


class TestSweepCommand:
    def test_curves(self, tmp_path):
        text = BASE + "\n[sweep]\nd_values = 1, 4, 14\n"
        rc, out = run(tmp_path, "sweep", text)
        assert rc == 0
        data = json.loads((out / "sweep_curves.json").read_text())
        assert [pt["d"] for pt in data["overall"]] == [1.0, 4.0, 14.0]
        # deeper memory always helps
        overall = [pt["overall_fidelity"] for pt in data["overall"]]
        assert overall == sorted(overall)
        assert len(data["curves"]) == 9  # 3 depths x 3 modes

    def test_deterministic_reruns(self, tmp_path):
        text = BASE + "\n[sweep]\nd_values = 1, 2\n"
        cfg = write_config(tmp_path, text)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
            outs.append((out / "sweep_curves.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_demo_row_at_metrics_depth_is_the_metrics_table(self, tmp_path):
        # configs/demo.ini sets d = 4 and sweeps d = 1..20
        outs = {}
        for command in ("metrics", "sweep"):
            outs[command] = tmp_path / command
            assert main([command, "--config", DEMO, "--out", str(outs[command])]) == 0
        table = csv_rows(outs["metrics"] / "metrics_table.csv")
        assert sweep_rows_at(outs["sweep"], 4.0) == table
        assert len(table) == 6

    @pytest.mark.parametrize("spectrum", ["3, -3", "-6, 2.5, -1", "4"])
    def test_positive_db_agrees_across_commands(self, tmp_path, spectrum):
        # +x dB and -x dB name one mode; every command reports its squeezed quadrature
        text = BASE.replace("-6, -3, -1", spectrum) + "\n[sweep]\nd_values = 1, 4\n"
        cfg = write_config(tmp_path, text)
        outs = {}
        for command in ("metrics", "sweep", "channel"):
            outs[command] = tmp_path / command
            assert main([command, "--config", cfg, "--out", str(outs[command])]) == 0
        table = csv_rows(outs["metrics"] / "metrics_table.csv")
        assert sweep_rows_at(outs["sweep"], 4.0) == table
        levels = [-abs(float(db)) for db in spectrum.split(",")]
        assert [float(row[1]) for row in table] == pytest.approx(levels, abs=1e-12)
        spectra = np.array(csv_rows(outs["channel"] / "channel_spectra.csv"), dtype=float)
        table_db = np.array([[float(row[1]), float(row[2])] for row in table])
        # channel lists the spectrum in ascending order of zeta_in
        np.testing.assert_allclose(np.sort(10.0 * np.log10(spectra[:, 1:]), axis=0),
                                   np.sort(table_db, axis=0), rtol=0, atol=1e-12)

    def test_non_positive_depth_rejected(self, tmp_path):
        # same contract as metrics: the closed forms need d > 0
        text = BASE + "\n[sweep]\nd_values = 0, 1\n"
        rc, _ = run(tmp_path, "sweep", text)
        assert rc == 3


class TestDynamicsCommand:
    def test_checks_pass(self, tmp_path, capsys):
        rc, out = run(tmp_path, "dynamics", DYNAMICS)
        assert rc == 0
        report = json.loads((out / "dynamics_report.json").read_text())
        assert report["all_pass"] is True
        by_name = {c["check"]: c for c in report["checks"]}
        assert by_name["pde_vs_analytic_l2"]["value"] <= 1e-3
        assert by_name["energy_budget_residual"]["value"] <= 1e-4
        assert by_name["gain_zero_magnitude"]["value"] <= 5e-3
        lines = capsys.readouterr().out.splitlines()
        assert all("pass" in ln for ln in lines if ln.startswith("dynamics:"))

    def test_report_matches_grid_route(self, tmp_path, monkeypatch):
        # the same run with the stored profile and budget taken from the full
        # (n_z, n_t) field history, as the command once computed them
        small = DYNAMICS.replace("n_z = 600", "n_z = 300").replace("n_t = 600", "n_t = 400")
        rc, out = run(tmp_path, "dynamics", small)
        report = json.loads((out / "dynamics_report.json").read_text())

        def grid_route(a_in, params, n_z, n_t):
            z, t, a, b = grid_write(a_in, params, n_z, n_t)
            return SimpleNamespace(profile=StoredProfile(z, b[:, -1]),
                                   budget=grid_budget(z, t, a, b, params))

        monkeypatch.setattr(cli, "pde_write", grid_route)
        monkeypatch.setattr(cli, "energy_budget", lambda run, params: run.budget)
        rc_ref = main(["dynamics", "--config", str(tmp_path / "exp.ini"),
                       "--out", str(tmp_path / "ref")])
        ref = json.loads((tmp_path / "ref" / "dynamics_report.json").read_text())
        assert rc == rc_ref
        assert report["gains"] == ref["gains"]
        checks = {c["check"]: c for c in report["checks"]}
        ref_checks = {c["check"]: c for c in ref["checks"]}
        # the grid route's b(., T) is the long-double oracle's, within 3.5e-14 of
        # the march's largest |b| at each point (TestWriteBudget in
        # tests/test_dynamics.py); the l2 value moves by that over rms |b| at most
        l2, ref_l2 = checks["pde_vs_analytic_l2"], ref_checks["pde_vs_analytic_l2"]
        assert l2["value"] == pytest.approx(ref_l2["value"], rel=0.0, abs=1e-12)
        assert {**l2, "value": 0} == {**ref_l2, "value": 0}
        bud, ref_bud = report["energy_budget"], ref["energy_budget"]
        for key in ("input", "transmitted", "stored", "decayed"):
            assert bud[key] == pytest.approx(ref_bud[key], rel=1e-12, abs=0.0)
        assert abs(bud["residual"] - ref_bud["residual"]) <= 1e-12
        assert checks["energy_budget_residual"]["value"] == bud["residual"]

    def test_pde_path_at_depth_30(self, tmp_path):
        # the default 6,001 read samples pass: every read sample is exact,
        # and efficiency_measured is 2.0e-3, the probe protocol's capture
        # bias, where the stepped read at 6,001 samples left it 8.0e-3
        # against its 5e-3 tolerance
        text = DYNAMICS.replace("d = 4", "d = 30").replace("= 600", "= 1000")
        rc, out = run(tmp_path, "dynamics", text + "path = pde\n")
        report = json.loads((out / "dynamics_report.json").read_text())
        assert rc == 0 and report["all_pass"] is True
        for c in report["checks"]:
            assert c["status"] == "pass" and c["value"] <= c["tolerance"], c

    def test_analytic_path_at_depth_100(self, tmp_path):
        # the default 6,001 read samples estimate the read-clock sum's error
        # at 1.2e-4; the read is taken again at the hinted 7,528 and passes,
        # where the command exited 4.  n_z = 4000 keeps the energy budget
        # under its 1e-4 (1.6e-4 at n_z = 2000)
        text = DYNAMICS.replace("d = 4", "d = 100").replace("n_z = 600", "n_z = 4000")
        rc, out = run(tmp_path, "dynamics", text.replace("n_t = 600", "n_t = 4001"))
        report = json.loads((out / "dynamics_report.json").read_text())
        assert rc == 0 and report["all_pass"] is True

    def test_tolerance_failure_exits_4(self, tmp_path, capsys):
        # the shipped working point at n_z = 10 fails two checks: the PDE
        # profile is 9.6e-3 off (tol 1e-3) and the energy budget 1.0e-2 (tol 1e-4)
        with open(SHIPPED_DYNAMICS) as fh:
            text = fh.read().replace("n_z = 2000", "n_z = 10")
        rc, out = run(tmp_path, "dynamics", text)
        assert rc == 4
        report = json.loads((out / "dynamics_report.json").read_text())
        assert report["all_pass"] is False
        failed = {c["check"] for c in report["checks"] if c["status"] == "FAIL"}
        assert failed == {"pde_vs_analytic_l2", "energy_budget_residual"}
        assert (out / "dynamics_report.csv").exists()
        assert "dynamics: tolerance failure" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, codes", [
        ("n_z", 3, (2,)),
        ("n_t", 5, (2,)),
        ("n_t", 8, (2,)),
        ("n_t", 9, (0, 4)),   # valid; a coarse grid may fail a resolution check
        ("n_z", 10**5, (2,)),  # 6e7 cells, over dynamics.MAX_GRID_CELLS; nothing allocated
    ])
    def test_grid_size_floor(self, tmp_path, capsys, key, value, codes):
        rc, _ = run(tmp_path, "dynamics", DYNAMICS.replace(f"{key} = 600", f"{key} = {value}"))
        assert rc in codes
        if rc == 2:
            assert key in capsys.readouterr().err

    @pytest.mark.parametrize("value, code", [
        ("0 s", 2),
        ("-0 s", 2),
        ("-1 ms", 2),
        ("0.45 ms", 0),  # about 5T, the default horizon
    ])
    def test_read_horizon_must_be_positive(self, tmp_path, capsys, value, code):
        rc, _ = run(tmp_path, "dynamics", DYNAMICS + f"t_read = {value}\n")
        assert rc == code
        if code == 2:
            assert "[dynamics] t_read" in capsys.readouterr().err


class TestStateFile:
    @pytest.mark.parametrize("body", [
        '{"rows": [[1, 0], [0, 1]',          # invalid JSON
        '{"mode_count": 1}',                 # no rows
        '{"rows": [["a", 0], [0, 1]]}',      # non-numeric rows
        '{"rows": [[1, 0], [0]]}',           # ragged rows
        '{"mode_count": "one", "rows": [[1, 0], [0, 1]]}',
        '{"rows": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}',
        '{"mode_count": 2, "rows": [[1, 0], [0, 1]]}',
        # each of these three ended in a traceback, exit 1
        '{"rows": [[1, 0], [0, 1' + "0" * 400 + ']]}',  # an integer past the float range
        '{"mode_count": Infinity, "rows": [[1, 0], [0, 1]]}',
        "[\n" * 100000,                                 # 200 KB, nested past the parser's limit
    ], ids=["invalid-json", "no-rows", "non-numeric", "ragged", "mode-count",
            "odd-size", "mode-count-mismatch", "huge-integer", "infinite-mode-count",
            "deep-nesting"])
    def test_malformed_file_is_config_error(self, tmp_path, capsys, body):
        state = tmp_path / "state.json"
        state.write_text(body)
        text = BASE.replace("squeezing_db = -6, -3, -1", f"file = {state}")
        rc, _ = run(tmp_path, "metrics", text)
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_too_many_rows_rejected_before_building(self, tmp_path, monkeypatch, capsys):
        # a compact file can hold more modes than MAX_MODE_COUNT within the byte
        # bound; its row count exits 2 before any covariance exists
        def unbuilt(*args, **kwargs):
            raise AssertionError("a covariance was built before the mode-count check")

        monkeypatch.setattr(cli, "CovarianceMatrix", SimpleNamespace(from_json=unbuilt))
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"rows": [[0]] * (2 * cli.MAX_MODE_COUNT + 2)}))
        text = BASE.replace("squeezing_db = -6, -3, -1", f"file = {state}")
        rc, _ = run(tmp_path, "metrics", text)
        assert rc == 2
        assert "[state] file" in capsys.readouterr().err

    def test_valid_file_runs(self, tmp_path):
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"mode_count": 1, "rows": [[0.5, 0.0], [0.0, 2.0]]}))
        text = BASE.replace("squeezing_db = -6, -3, -1", f"file = {state}")
        rc, out = run(tmp_path, "metrics", text)
        assert rc == 0
        assert (out / "metrics_table.csv").exists()

    def test_dft_rotated_vacuum_file_runs(self, tmp_path):
        # the DFT spreads every vacuum supermode over all five modes
        M = 5
        F = np.exp(-2j * np.pi * np.outer(np.arange(M), np.arange(M)) / M) / np.sqrt(M)
        S = np.empty((2 * M, 2 * M))
        S[0::2, 0::2], S[0::2, 1::2] = F.real, -F.imag
        S[1::2, 0::2], S[1::2, 1::2] = F.imag, F.real
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"mode_count": M, "rows": (S @ S.T).tolist()}))
        text = BASE.replace("squeezing_db = -6, -3, -1", f"file = {state}")
        rc, out = run(tmp_path, "metrics", text)
        assert rc == 0
        assert len(csv_rows(out / "metrics_table.csv")) == M


class TestStateFileErrorLine:
    """A malformed state file exits 2 (configuration), an unphysical one 3 (physics)."""

    def test_unphysical_file_is_physics_error(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"mode_count": 1, "rows": [[0.5, 0.0], [0.0, 0.5]]}))
        text = BASE.replace("squeezing_db = -6, -3, -1", f"file = {state}")
        for command in ("metrics", "channel"):
            rc, _ = run(tmp_path, command, text)
            assert rc == 3
            assert "physics error: unphysical covariance" in capsys.readouterr().err

    def test_non_finite_file_is_physics_error(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"mode_count": 1, "rows": [[np.nan, 0.0], [0.0, 1.0]]}))
        text = BASE.replace("squeezing_db = -6, -3, -1", f"file = {state}")
        rc, _ = run(tmp_path, "metrics", text)
        assert rc == 3
        assert "physics error: covariance entries must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, codes, message", [
        # C + C.T overflowed to inf with a RuntimeWarning: channel then failed
        # on the inf it stored, and metrics on its purity.  The state is a
        # physical thermal one: channel runs it, and metrics rejects it as mixed
        ([[1e308, 0.0], [0.0, 1e308]], (0, 3), "state is not pure"),
        # C - C.T overflowed with a RuntimeWarning in the symmetry check
        ([[1.0, 1e308], [-1e308, 1.0]], (3, 3), "covariance is not symmetric"),
    ], ids=["huge-diagonal", "huge-antisymmetric"])
    def test_huge_entries_raise_no_runtime_warning(self, tmp_path, capsys, rows, codes, message):
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"mode_count": 1, "rows": rows}))
        text = BASE.replace("squeezing_db = -6, -3, -1", f"file = {state}")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # as -W error::RuntimeWarning
            rcs = tuple(run(tmp_path, command, text)[0] for command in ("channel", "metrics"))
        assert rcs == codes
        assert f"physics error: {message}" in capsys.readouterr().err
        if codes[0] == 0:
            summary = json.loads((tmp_path / "out" / "channel_summary.json").read_text())
            assert summary["c_in"]["rows"] == rows

    def test_malformed_file_keeps_its_message(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"mode_count": 2, "rows": [[1, 0], [0, 1]]}))
        text = BASE.replace("squeezing_db = -6, -3, -1", f"file = {state}")
        rc, _ = run(tmp_path, "channel", text)
        assert rc == 2
        assert capsys.readouterr().err == (f"config error: state file {state} is malformed: "
                                           "covariance JSON 'mode_count' inconsistent with "
                                           "matrix size\n")


class TestUnknownPreset:
    @pytest.mark.parametrize("command", ["kernel", "dynamics", "metrics", "channel", "sweep"])
    def test_exits_2_at_load(self, tmp_path, capsys, command):
        # checked when the config loads, as an unknown pump basis or format is,
        # so commands that never build the state reject it too
        text = BASE.replace("squeezing_db = -6, -3, -1", "preset = nope")
        rc, _ = run(tmp_path, command, text)
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error: [state] preset: must be one of cluster-linear-4, epr; got 'nope'\n")


class TestConfigErrorExits:
    """Each config fault exits 2, and its message names the key or section at fault."""

    @pytest.mark.parametrize("command, text, name", [
        ("metrics", BASE.replace("-6, -3, -1", ","), "squeezing_db"),
        ("dynamics", DYNAMICS.replace("probe_omegas = 0", "probe_omegas = ,"), "probe_omegas"),
        ("sweep", BASE + "\n[sweep]\nd_values =\n", "d_values"),
        ("kernel", BASE + "\n[memory]\nd = 5\n", "memory"),
        ("kernel", BASE.replace("T = 1 ms", "T = 1 ms\nd = 5"), "'d'"),
        ("kernel", BASE[BASE.index("[state]"):], "[memory]"),
    ], ids=["empty-squeezing_db", "empty-probe_omegas", "empty-d_values",
            "duplicate-section", "duplicate-key", "no-memory-section"])
    def test_exits_2_naming_the_fault(self, tmp_path, capsys, command, text, name):
        rc, out = run(tmp_path, command, text)
        err = capsys.readouterr().err
        assert rc == 2 and name in err and "Traceback" not in err
        assert not out.exists()

    def test_missing_state_file(self, tmp_path, capsys):
        missing = tmp_path / "nowhere.json"
        rc, _ = run(tmp_path, "metrics", BASE.replace("squeezing_db = -6, -3, -1", f"file = {missing}"))
        assert rc == 2
        assert f"[state] file: not found: {missing}" in capsys.readouterr().err


class TestOverflowingLevel:
    def test_channel_exits_3(self, tmp_path, capsys):
        # 10^(4000/10) overflows a float: a physics error, not a traceback
        rc, _ = run(tmp_path, "channel", BASE.replace("-6, -3, -1", "4000, -3"))
        assert rc == 3
        assert "4000 dB overflows a float variance" in capsys.readouterr().err


def run_without_runtime_warning(tmp_path, command, text):
    """``run``, asserting that no RuntimeWarning (numpy overflow, invalid value) was raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out = run(tmp_path, command, text)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return rc, out


class TestKernelOverflow:
    """A kernel whose grid or exponent overflows exits 3: before, each case
    exited 0 after a RuntimeWarning, and omega_max = 1e308 wrote nan rows."""

    @pytest.mark.parametrize("text, message", [
        (BASE + "\n[kernel]\nomega_max = 1e308\n", "grid width 2 omega_max overflows"),
        (BASE.replace("d = 4", "d = 1e308"), "d * gamma_s = 1e+308 * "),
        (BASE.replace("gamma_s = 2pi*18 kHz", "gamma_s = 1e308"), "d * gamma_s = 4.0 * 1e+308"),
        (BASE.replace("gamma_s = 2pi*18 kHz", "gamma_s = 5e-324"), "gamma_s = 5e-324 is subnormal"),
    ], ids=["omega_max-1e308", "d-1e308", "gamma_s-1e308", "gamma_s-5e-324"])
    def test_exits_3_before_writing(self, tmp_path, capsys, text, message):
        rc, out = run_without_runtime_warning(tmp_path, "kernel", text)
        err = capsys.readouterr().err
        assert rc == 3 and message in err and "Traceback" not in err
        assert not any(out.iterdir())  # no data file, so no nan in one

    @pytest.mark.parametrize("text", [
        BASE + "\n[kernel]\nomega_max = 8.9e307\n",
        BASE.replace("gamma_s = 2pi*18 kHz", "gamma_s = 2.3e-308"),
    ], ids=["widest-grid", "smallest-normal-gamma_s"])
    def test_edge_runs_finite(self, tmp_path, text):
        rc, out = run_without_runtime_warning(tmp_path, "kernel", text)
        assert rc == 0
        table = np.loadtxt(out / "kernel_response.csv", delimiter=",", skiprows=1)
        assert table.shape == (201, 4) and np.isfinite(table).all()


class TestDynamicsOverflow:
    """A dynamics working point whose scaled window gamma_s T or its kernel
    argument d gamma_s T leaves the float range exits 3 before any data file
    is written: before, each case computed with inf or nan, and under
    -W error::RuntimeWarning ended in a traceback."""

    @pytest.mark.parametrize("key, value, message", [
        ("d", "1e308", "d * gamma_s * T = 1e+308 * 10.0000"),
        ("T", "1e308 s", "gamma_s * T = inf overflows a float"),
        ("T", "5e-324 s", "gamma_s * T = 5.58773e-319 is below the smallest normal float"),
        ("gamma_s", "1e-308", "gamma_s * T = 8.842e-313 is below the smallest normal float"),
        ("gamma_s", "5e-324", "gamma_s * T = 0.0 is below the smallest normal float"),
    ], ids=["d-1e308", "T-1e308", "T-5e-324", "gamma_s-1e-308", "gamma_s-5e-324"])
    def test_exits_3_before_writing(self, tmp_path, capsys, key, value, message):
        with open(SHIPPED_DYNAMICS) as fh:
            text = fh.read().replace("n_z = 2000", "n_z = 40").replace("n_t = 2000", "n_t = 40")
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        rc, out = run_without_runtime_warning(tmp_path, "dynamics", text)
        err = capsys.readouterr().err
        assert rc == 3 and message in err and "Traceback" not in err
        assert not any(out.iterdir())

    def test_si_integral_overflow_exits_3(self, tmp_path, capsys):
        # gamma_s T = 0.1 is in range, but |b|^2 carries 1 / gamma_s = 1e200 and
        # the Simpson weights in seconds are about 2.6e197, so the write's SI
        # integral of |b|^2 dt overflows; before, it warned in the sum
        with open(SHIPPED_DYNAMICS) as fh:
            text = fh.read().replace("n_z = 2000", "n_z = 40").replace("n_t = 2000", "n_t = 40")
        for key, value in (("gamma_s", "1e-200"), ("T", "1e199 s"), ("probe_omegas", "0")):
            text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        rc, out = run_without_runtime_warning(tmp_path, "dynamics", text)
        err = capsys.readouterr().err
        assert rc == 3 and "SI integral of |b|^2 dt" in err and "Traceback" not in err
        assert not any(out.iterdir())


class TestSweepDepthBound:
    def test_too_many_depths_exit_2(self, tmp_path, capsys):
        depths = ", ".join(["1"] * (MAX_SWEEP_DEPTHS + 1))
        rc, out = run(tmp_path, "sweep", BASE + f"\n[sweep]\nd_values = {depths}\n")
        err = capsys.readouterr().err
        assert rc == 2 and "[sweep] d_values: lists" in err and "Traceback" not in err
        assert not out.exists()


class TestJsonOutputs:
    """Every JSON file the commands write is the stdlib's own encoding of its content."""

    CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

    @pytest.mark.parametrize("command, config", [
        ("kernel", "demo.ini"),
        ("metrics", "demo.ini"),
        ("channel", "demo.ini"),
        ("sweep", "demo.ini"),
        ("channel", "channel_epr.ini"),
        ("channel", "haar-128"),
        ("dynamics", None),
    ])
    def test_stdlib_round_trip(self, tmp_path, command, config):
        if config is None:  # the PDE route of a small dynamics run
            small = DYNAMICS.replace("n_z = 600", "n_z = 300").replace("n_t = 600", "n_t = 400")
            config = write_config(tmp_path, small + "path = pde\n")
        elif config == "haar-128":  # a seeded pure 128-mode state under a Haar mixer
            state = tmp_path / "state.json"
            C = random_pure_state(128, np.random.default_rng(128))
            state.write_text(json.dumps(C.to_json()))
            text = BASE.replace("squeezing_db = -6, -3, -1", f"file = {state}").replace(
                "teeth = 32", "teeth = 128").replace("seed = 0", "seed = 128\nformat = both")
            config = write_config(tmp_path, text + "\n[pumps]\nbasis = random-unitary\n")
        else:
            config = os.path.join(self.CONFIGS, config)
        out = tmp_path / "out"
        assert main([command, "--config", config, "--out", str(out)]) == 0
        written = sorted(out.glob("*.json"))
        assert "manifest.json" in [p.name for p in written] and len(written) == 2
        for path in written:
            body = path.read_bytes()
            assert body == (json.dumps(json.loads(body), indent=2, sort_keys=True) + "\n").encode()
        if command == "channel":  # the matrices, each printed from its upper triangle
            summary = json.loads((out / "channel_summary.json").read_bytes())
            for name in ("c_in", "c_out"):
                rows = np.array(summary[name]["rows"])
                assert summary[name] == CovarianceMatrix(rows).to_json()
                header = [f"c{k}" for k in range(len(rows))]
                want = write_csv(tmp_path / f"{name}.csv", header, rows.T)
                assert (out / f"channel_{name}.csv").read_bytes() == want.read_bytes()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def written(out):
    """The files in ``out`` as bytes, with the manifest parsed and its timestamp dropped."""
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    manifest = json.loads(files.pop("manifest.json"))
    manifest.pop("timestamp")
    return files, manifest


@pytest.fixture
def forks(monkeypatch):
    """A list that records every ``os.fork`` the run makes; the fork itself is real."""
    calls, fork = [], os.fork

    def counted():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


class TestForkedWrites:
    """With format = both and at least cli.FORK_MIN_VALUES CSV values, a forked
    child writes the CSV tables while the parent writes the JSON documents."""

    @staticmethod
    def config(tmp_path, name):
        if name == "haar-128":  # a seeded pure 128-mode state under a Haar mixer
            state = tmp_path / "state.json"
            state.write_text(json.dumps(random_pure_state(128, np.random.default_rng(7)).to_json()))
            text = BASE.replace("squeezing_db = -6, -3, -1", f"file = {state}").replace(
                "teeth = 32", "teeth = 128")
            return write_config(tmp_path, text + "\n[pumps]\nbasis = random-unitary\n")
        if name == "sweep-64x100":  # 64 levels over 100 depths: 6400 curve rows
            rng = np.random.default_rng(64)
            levels = ", ".join(repr(x) for x in rng.uniform(-12.0, -0.5, 64).tolist())
            depths = ", ".join(repr(x) for x in np.sort(rng.uniform(0.25, 20.0, 100)).tolist())
            text = BASE.replace("squeezing_db = -6, -3, -1", f"squeezing_db = {levels}").replace(
                "teeth = 32", "teeth = 64")
            return write_config(tmp_path, text + f"\n[sweep]\nd_values = {depths}\n")
        if name == "dynamics-small":
            return write_config(tmp_path, DYNAMICS.replace("n_z = 600", "n_z = 300")
                                .replace("n_t = 600", "n_t = 400") + "path = pde\n")
        return os.path.join(os.path.dirname(DEMO), name)

    @pytest.mark.parametrize("command, name", [
        ("kernel", "demo.ini"),
        ("metrics", "demo.ini"),
        ("channel", "demo.ini"),
        ("sweep", "demo.ini"),
        ("channel", "channel_epr.ini"),
        ("metrics", "channel_epr.ini"),
        ("sweep", "channel_epr.ini"),
        ("dynamics", "dynamics.ini"),
        ("dynamics", "dynamics-small"),
        ("channel", "haar-128"),
        ("sweep", "sweep-64x100"),
    ])
    def test_same_bytes_on_both_paths(self, tmp_path, monkeypatch, forks, command, name):
        config = self.config(tmp_path, name)
        pid, runs = os.getpid(), []
        for threshold in (0, 1 << 62):
            monkeypatch.setattr(cli, "FORK_MIN_VALUES", threshold)
            out = tmp_path / f"out-{threshold}"
            before = len(forks)
            rc = main([command, "--config", config, "--out", str(out), "--format", "both"])
            assert rc == 0 and os.getpid() == pid
            assert len(forks) - before == (threshold == 0)
            assert_no_child_left()
            runs.append(written(out))
        assert runs[0] == runs[1]
        assert any(n.endswith(".csv") for n in runs[0][0])
        assert any(n.endswith(".json") for n in runs[0][0])

    def test_without_fork_the_writes_run_in_order(self, tmp_path, monkeypatch):
        config = self.config(tmp_path, "sweep-64x100")
        runs = []
        for has_fork in (True, False):
            if not has_fork:
                monkeypatch.delattr(os, "fork")
            monkeypatch.setattr(cli, "FORK_MIN_VALUES", 0)
            out = tmp_path / f"out-{has_fork}"
            assert main(["sweep", "--config", config, "--out", str(out)]) == 0
            runs.append(written(out))
        assert runs[0] == runs[1]

    def test_child_failure_raises_like_the_serial_path(self, tmp_path, monkeypatch, forks):
        # a directory where the first CSV table goes: the child fails, and the
        # parent's in-process rewrite raises the serial path's own error
        config = write_config(tmp_path, BASE)
        out = tmp_path / "out"
        (out / "sweep_curves.csv").mkdir(parents=True)
        pid, errors = os.getpid(), []
        for threshold in (1 << 62, 0):
            monkeypatch.setattr(cli, "FORK_MIN_VALUES", threshold)
            with pytest.raises(OSError) as caught:
                main(["sweep", "--config", config, "--out", str(out)])
            errors.append((type(caught.value), str(caught.value)))
            assert os.getpid() == pid
            assert_no_child_left()
            assert not (out / "manifest.json").exists()
        assert len(forks) == 1
        assert errors[0] == errors[1] and errors[0][0] is IsADirectoryError

    def test_own_failure_still_reaps_the_child(self, tmp_path):
        # the parent's writes raise: the child is reaped, its writes are whole,
        # and the parent's error propagates
        target = tmp_path / "child.txt"

        def fail():
            raise OSError("parent write failed")

        with pytest.raises(OSError, match="parent write failed"):
            cli._fork_beside(lambda: target.write_text("x" * 100000), fail)
        assert_no_child_left()
        assert target.read_text() == "x" * 100000

    def test_both_failing_raise_the_child_error(self, tmp_path):
        # the serial path writes the CSV tables first, so their error wins
        def child():
            raise IsADirectoryError("csv write failed")

        def own():
            raise OSError("json write failed")

        with pytest.raises(IsADirectoryError, match="csv write failed"):
            cli._fork_beside(child, own)
        assert_no_child_left()

    def test_interrupt_waits_for_the_child_and_writes_no_more(self):
        # on an interrupt the child is reaped, and its failed work is not redone
        redone = []

        def child():
            if os.getpid() == parent:
                redone.append(True)
            raise OSError("csv write failed")

        def own():
            raise KeyboardInterrupt

        parent = os.getpid()
        with pytest.raises(KeyboardInterrupt):
            cli._fork_beside(child, own)
        assert_no_child_left()
        assert redone == []

    @pytest.mark.parametrize("config", ["shipped", "pde-five-probes"])
    def test_dynamics_never_forks(self, tmp_path, forks, config):
        # the dynamics report is one row per check, far below the threshold
        if config == "shipped":
            config = SHIPPED_DYNAMICS
        else:
            gamma_s = 2 * np.pi * 18e3
            probes = ", ".join(repr(w * gamma_s) for w in (-0.3, -0.1, 0.2, 0.3))
            text = DYNAMICS.replace("n_z = 600", "n_z = 300").replace("n_t = 600", "n_t = 400")
            text = text.replace("probe_omegas = 0", f"probe_omegas = 0, {probes}")
            config = write_config(tmp_path, text + "path = pde\n")
        out = tmp_path / "out"
        assert main(["dynamics", "--config", config, "--out", str(out), "--format", "both"]) == 0
        assert forks == []
        assert {p.suffix for p in out.iterdir()} == {".csv", ".json"}


class TestRunProtocol:
    """Each subcommand on its shipped config: the exit code, the exact stdout and
    stderr lines, and every manifest field but the timestamp."""

    DEMO_LINES = {
        "kernel": ["kernel: flatness 0.00155416 over |omega| <= 11309.7 rad/s"],
        "metrics": ["metrics: 6 supermodes at d = 4, overall fidelity 0.953759"],
        "channel": ["channel: 6 modes through k2 = 0.963704"],
        "sweep": ["sweep: 20 depths x 6 modes"],
    }
    DYNAMICS_LINES = [
        "dynamics: pde_vs_analytic_l2 = 2.342e-07 (tol 0.001) pass",
        "dynamics: energy_budget_residual = 6.242e-07 (tol 0.0001) pass",
        "dynamics: efficiency_measured = 1.998e-03 (tol 0.005) pass",
        "dynamics: gain_zero_magnitude = 9.995e-04 (tol 0.005) pass",
        "dynamics: gain_ratio_at_11309.7 = 8.045e-07 (tol 0.001) pass",
    ]

    @staticmethod
    def derived(command, cfg, out):
        """The manifest's ``derived`` block, from the config and the run's data files."""
        p = cfg.memory
        want = {"eta": efficiency(p.d), "alpha": p.alpha, "flatness": None}
        if p.rep_rate is not None:
            want["pulse_capacity"] = pulse_capacity(p.T, p.rep_rate)
        if command == "kernel":
            want["flatness"] = json.loads((out / "kernel_summary.json").read_text())["flatness"]
        elif command == "metrics":
            doc = json.loads((out / "metrics_table.json").read_text())
            want["overall_fidelity"] = doc["overall_fidelity"]
        elif command == "channel":
            doc = json.loads((out / "channel_summary.json").read_text())
            want["basis_independence_max_abs"] = doc["basis_independence_max_abs"]
        elif command == "dynamics":
            doc = json.loads((out / "dynamics_report.json").read_text())
            want["eta_measured"] = doc["eta_measured"]
        else:
            want["sweep_points"] = len(cfg.sweep_d)
        return want

    def check(self, tmp_path, capsys, command, config, rc, stdout, stderr):
        out = tmp_path / "out"
        assert main([command, "--config", config, "--out", str(out)]) == rc
        captured = capsys.readouterr()
        assert captured.out.splitlines() == stdout
        assert captured.err.splitlines() == stderr
        with open(config) as fh:
            text = fh.read()
        cfg = load_config(config)
        manifest = json.loads((out / "manifest.json").read_text())
        timestamp = manifest.pop("timestamp")
        assert timestamp.endswith("+00:00")
        assert manifest == {
            "command": command,
            "version": __version__,
            "seed": cfg.seed,
            "config_sha256": hashlib.sha256(f"{text}\nseed={cfg.seed}".encode()).hexdigest(),
            "config": text,
            "derived": self.derived(command, cfg, out),
            "files": sorted(set(os.listdir(out)) - {"manifest.json"}),
        }
        assert manifest["files"]

    @pytest.mark.parametrize("command", ["kernel", "metrics", "channel", "sweep"])
    def test_demo(self, tmp_path, capsys, command):
        self.check(tmp_path, capsys, command, DEMO, 0, self.DEMO_LINES[command], [])

    def test_dynamics(self, tmp_path, capsys):
        self.check(tmp_path, capsys, "dynamics", SHIPPED_DYNAMICS, 0, self.DYNAMICS_LINES, [])

    def test_dynamics_tolerance_failure(self, tmp_path, capsys):
        # at n_z = 10 the profile and the energy budget fail: every file is
        # still written, the manifest last, and the run exits 4
        with open(SHIPPED_DYNAMICS) as fh:
            config = write_config(tmp_path, fh.read().replace("n_z = 2000", "n_z = 10"))
        stdout = ["dynamics: pde_vs_analytic_l2 = 9.583e-03 (tol 0.001) FAIL",
                  "dynamics: energy_budget_residual = 1.015e-02 (tol 0.0001) FAIL",
                  *self.DYNAMICS_LINES[2:]]
        self.check(tmp_path, capsys, "dynamics", config, 4, stdout,
                   ["dynamics: tolerance failure"])


class TestCliPlumbing:
    def test_missing_config_is_usage_error(self, tmp_path):
        assert main(["kernel", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_package_error_exits_3(self, tmp_path, monkeypatch, capsys):
        # an error of this package that is none of the three named kinds
        def failing(*args):
            raise CombMemoryError("no such thing")

        monkeypatch.setitem(cli._COMMANDS, "kernel", failing)
        rc, _ = run(tmp_path, "kernel")
        assert rc == 3
        assert capsys.readouterr().err == "error: no such thing\n"

    def test_bad_config_is_usage_error(self, tmp_path):
        # two state sources in [state]
        text = BASE.replace("teeth = 32", "teeth = 32\npreset = epr")
        cfg = write_config(tmp_path, text)
        assert main(["kernel", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command, text", [
        ("kernel", BASE.replace("T = 1 ms", "T = 1e999 s")),
        ("kernel", BASE.replace("rep_rate = 80 MHz", "rep_rate = 1e999")),
        ("kernel", BASE.replace("d = 4", "d = 1e999")),
        ("kernel", BASE.replace("gamma_s = 2pi*18 kHz", "gamma_s = 1e999")),
        ("kernel", BASE + "\n[kernel]\nomega_max = 1e999\n"),
        ("dynamics", DYNAMICS + "t_read = 1e999\n"),
        ("metrics", BASE.replace("squeezing_db = -6, -3, -1", "squeezing_db = -6, 1e999, -1")),
        ("metrics", BASE.replace("teeth = 32", "teeth = 32\nangles = 0, 1e999, 0")),
        ("sweep", BASE + "\n[sweep]\nd_values = 1, 1e999\n"),
    ], ids=["T", "rep_rate", "d", "gamma_s", "omega_max", "t_read", "squeezing_db", "angles",
            "d_values"])
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, command, text):
        # float() reads 1e999 as inf: T or rep_rate died in pulse_capacity with
        # an OverflowError, t_read with a ValueError, omega_max and gamma_s
        # wrote nan gains, and d ran at inf
        rc, _ = run(tmp_path, command, text)
        err = capsys.readouterr().err
        assert rc == 2 and "1e999" in err and "Traceback" not in err

    def test_overflowing_pulse_count_is_physics_error(self, tmp_path, capsys):
        # T = 1e307 s is finite, but T * rep_rate is not: kernel died with an
        # OverflowError traceback from pulse_capacity
        rc, _ = run(tmp_path, "kernel", BASE.replace("T = 1 ms", "T = 1e307 s"))
        err = capsys.readouterr().err
        assert rc == 3 and "not finite" in err and "Traceback" not in err

    def test_physics_error_exit_code(self, tmp_path):
        text = DYNAMICS.replace("probe_omegas = 0", "probe_omegas = 2pi*18kHz")
        rc, _ = run(tmp_path, "dynamics", text)
        assert rc == 3  # probe far outside the memory band

    def test_csv_only_format(self, tmp_path):
        rc, out = run(tmp_path, "metrics", extra=("--format", "csv"))
        assert rc == 0
        assert (out / "metrics_table.csv").exists()
        assert not (out / "metrics_table.json").exists()
        assert (out / "manifest.json").exists()  # manifest always written

    def test_json_only_format(self, tmp_path):
        rc, out = run(tmp_path, "metrics", extra=("--format", "json"))
        assert rc == 0
        assert sorted(os.listdir(out)) == ["manifest.json", "metrics_table.json"]
        man = json.loads((out / "manifest.json").read_text())
        assert man["files"] == ["metrics_table.json"]

    def test_env_outdir(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, BASE)
        target = tmp_path / "env-out"
        monkeypatch.setenv("COMBMEMORY_OUTDIR", str(target))
        monkeypatch.chdir(tmp_path)
        assert main(["kernel", "--config", cfg]) == 0
        assert (target / "kernel_response.csv").exists()

    def test_seed_override_recorded(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        out = tmp_path / "o"
        assert main(["kernel", "--config", cfg, "--out", str(out), "--seed", "9"]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["seed"] == 9

    def test_negative_seed_override_rejected(self, tmp_path, capsys):
        # numpy's generators take no negative seed; it exits 2 before any output
        out = tmp_path / "o"
        assert main(["channel", "--config", EPR, "--out", str(out), "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_config_seed_rejected(self, tmp_path, capsys):
        text = BASE.replace("seed = 0", "seed = -5") + "\n[pumps]\nbasis = random-unitary\n"
        rc, _ = run(tmp_path, "channel", text)
        assert rc == 2
        assert "[output] seed" in capsys.readouterr().err

    def test_help_describes_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == 0
        lines = [line.split() for line in capsys.readouterr().out.splitlines()]
        for name, fn in cli._COMMANDS.items():
            words = next(words for words in lines if words[:1] == [name])
            assert words[1:] and fn.__doc__.split()[0] == words[1]

    def test_seed_changes_manifest_hash(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        hashes = []
        for seed in ("0", "1"):
            out = tmp_path / f"s{seed}"
            assert main(["kernel", "--config", cfg, "--out", str(out), "--seed", seed]) == 0
            hashes.append(json.loads((out / "manifest.json").read_text())["config_sha256"])
        assert hashes[0] != hashes[1]
