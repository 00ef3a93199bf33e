"""Every data file of the shipped-config runs against its golden copy in tests/golden.

The file set, the CSV headers and row counts, the JSON key order and every
non-numeric field must match exactly.  A number a matches its golden b when
|a - b| <= max(1e-12 * max(|b|, s), f).  s is the largest magnitude in b's
column of the golden CSV, or among the golden JSON values on b's key path
(list indices dropped, so ``response[].re`` is one column): the floor lets
float-noise zeros (the EPR ``c_out`` holds entries of +-5e-16) round
differently on another BLAS or CPU, while a small column is not checked on
a large neighbour's scale.  f is 0, except for the values that are small
differences of O(1) terms (``CANCELLING``): they carry the rounding of those
terms, not their own, and get the absolute floor ``CANCEL_FLOOR``, 20 ulps
of 1.  That tolerance is the contract; a change that moves a value past it
regenerates the golden files (``python tests/golden/regen.py``) and names
each changed value.  Manifests carry a timestamp and are not compared.
"""

import csv
import importlib.util
import json
import math
import os
import re
import shutil

import pytest

from combmemory.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
CONFIGS = os.path.join(HERE, os.pardir, "configs")
REL_TOL = 1e-12
CANCEL_FLOOR = 20 * 2.0**-52
# CSV columns and JSON key paths, per file name, that are small differences
# of O(1) terms: each check's error measure (pde_vs_analytic_l2 and the
# energy-budget residual among them), the budget residual, the kernel's
# flatness |K|^2 / |K_0|^2 - 1 and the pump-basis check's largest difference
CANCELLING = {
    "dynamics_report.csv": {"value"},
    "dynamics_report.json": {"checks[].value", "energy_budget.residual"},
    "kernel_summary.json": {"flatness"},
    "channel_summary.json": {"basis_independence_max_abs"},
}

# the PDE route of the dynamics working point, at 1000 x 1000
PDE = ((r"^n_z = .*", "n_z = 1000"), (r"^n_t = .*", "n_t = 1000"), (r"^path = .*", "path = pde"))
# (run name, subcommand, shipped config, line substitutions)
RUNS = [
    ("demo-kernel", "kernel", "demo.ini", ()),
    ("demo-metrics", "metrics", "demo.ini", ()),
    ("demo-channel", "channel", "demo.ini", ()),
    ("demo-sweep", "sweep", "demo.ini", ()),
    ("epr-channel", "channel", "channel_epr.ini", ()),
    # the preset's supermodes reach the closed forms through supermode_extraction
    ("epr-metrics", "metrics", "channel_epr.ini", ()),
    ("epr-sweep", "sweep", "channel_epr.ini", ()),
    ("dynamics", "dynamics", "dynamics.ini", ()),
    ("dynamics-pde", "dynamics", "dynamics.ini", PDE),
    # the PDE route at d = 30, read at the default 6001 samples as at d = 4
    ("dynamics-pde-d30", "dynamics", "dynamics.ini", PDE + ((r"^d = .*", "d = 30"),)),
]
_NUMBER = re.compile(r"[-+]?(?:[0-9.]+(?:e[-+]?[0-9]+)?|nan|inf)")


def run(name, command, config, subs, outdir):
    """Run one of ``RUNS`` through the CLI into ``outdir/name``; return that directory."""
    with open(os.path.join(CONFIGS, config)) as fh:
        text = fh.read()
    for pattern, repl in subs:
        text = re.sub(pattern, repl, text, flags=re.M)
    path = os.path.join(outdir, name + ".ini")
    with open(path, "w") as fh:
        fh.write(text)
    target = os.path.join(outdir, name)
    rc = main([command, "--config", path, "--out", target])
    if rc != 0:
        raise RuntimeError(f"{name}: {command} exited {rc}")
    return target


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _json_scales(obj, path="", scales=None):
    """{key path: largest finite magnitude on it} of a JSON document."""
    scales = {} if scales is None else scales
    if isinstance(obj, dict):
        for key, value in obj.items():
            _json_scales(value, f"{path}.{key}" if path else key, scales)
    elif isinstance(obj, list):
        for item in obj:
            _json_scales(item, path + "[]", scales)
    elif _is_number(obj) and math.isfinite(obj):
        scales[path] = max(scales.get(path, 0.0), abs(obj))
    return scales


def _close(a, b, s):
    if not (math.isfinite(a) and math.isfinite(b)):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= REL_TOL * max(abs(b), s)


def _floored(scales, floors):
    """``scales`` with each key in ``floors`` raised so that REL_TOL * s >= CANCEL_FLOOR."""
    return {key: max(s, CANCEL_FLOOR / REL_TOL) if key in floors else s
            for key, s in scales.items()}


def _compare_json(got, want, scales, path, where, problems):
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(got) != list(want):
            problems.append(f"{where}: keys {list(got) if isinstance(got, dict) else got!r}"
                            f" != {list(want)}")
            return
        for key in want:
            _compare_json(got[key], want[key], scales, f"{path}.{key}" if path else key,
                          f"{where}.{key}", problems)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            problems.append(f"{where}: {len(got) if isinstance(got, list) else got!r} items "
                            f"!= {len(want)}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare_json(g, w, scales, path + "[]", f"{where}[{i}]", problems)
    elif _is_number(want):
        if type(got) is not type(want) or not _close(got, want, scales.get(path, 0.0)):
            problems.append(f"{where}: {got!r} != {want!r}")
    elif type(got) is not type(want) or got != want:
        problems.append(f"{where}: {got!r} != {want!r}")


def _compare_csv(got_path, want_path, floors, where, problems):
    rows = []
    for path in (got_path, want_path):
        with open(path, newline="") as fh:
            rows.append(list(csv.reader(fh)))
    got, want = rows
    if got[:1] != want[:1]:
        problems.append(f"{where}: header {got[:1]} != {want[:1]}")
        return
    if len(got) != len(want):
        problems.append(f"{where}: {len(got) - 1} rows != {len(want) - 1}")
        return
    scales = {}  # column name (or index past the header): largest finite magnitude
    columns = want[0] + list(range(len(want[0]), max(map(len, want))))
    for row in want[1:]:
        for name, cell in zip(columns, row):
            if _NUMBER.fullmatch(cell) and math.isfinite(float(cell)):
                scales[name] = max(scales.get(name, 0.0), abs(float(cell)))
    scales = _floored(scales, floors)
    for i, (g, w) in enumerate(zip(got[1:], want[1:]), 1):
        if len(g) != len(w):
            problems.append(f"{where} row {i}: {len(g)} fields != {len(w)}")
            continue
        for j, (name, a, b) in enumerate(zip(columns, g, w)):
            if _NUMBER.fullmatch(b):
                ok = _NUMBER.fullmatch(a) is not None and _close(float(a), float(b),
                                                                  scales.get(name, 0.0))
            else:
                ok = a == b
            if not ok:
                problems.append(f"{where} row {i} field {j}: {a!r} != {b!r}")


def compare_dirs(got_dir, want_dir):
    """Every difference between a run directory and its golden one, as messages;
    an empty list when they match under the contract above."""
    if not os.path.isdir(got_dir):
        return [f"{got_dir}: no such run directory"]
    names = [set(os.listdir(d)) - {"manifest.json"} for d in (got_dir, want_dir)]
    if names[0] != names[1]:
        return [f"{want_dir}: files {sorted(names[0])} != {sorted(names[1])}"]
    problems = []
    for name in sorted(names[1]):
        got_path, want_path = os.path.join(got_dir, name), os.path.join(want_dir, name)
        where = os.path.join(os.path.basename(want_dir), name)
        floors = CANCELLING.get(name, set())
        if name.endswith(".csv"):
            _compare_csv(got_path, want_path, floors, where, problems)
        else:
            with open(got_path) as g, open(want_path) as w:
                got, want = json.load(g), json.load(w)
            _compare_json(got, want, _floored(_json_scales(want), floors), "", where, problems)
    return problems


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    outdir = str(tmp_path_factory.mktemp("golden-run"))
    return {spec[0]: run(*spec, outdir) for spec in RUNS}


def test_golden_set_is_the_run_list():
    runs = [name for name in os.listdir(GOLDEN) if os.path.isdir(os.path.join(GOLDEN, name))]
    assert sorted(runs) == sorted(name for name, *_ in RUNS)


@pytest.mark.parametrize("name", [spec[0] for spec in RUNS])
def test_matches_golden(outputs, name):
    problems = compare_dirs(outputs[name], os.path.join(GOLDEN, name))
    assert not problems, "\n".join(problems[:20])


def test_comparison_contract(tmp_path):
    def write(name, table, doc, extra=False):
        d = tmp_path / name
        d.mkdir()
        (d / "t.csv").write_bytes("x,status\r\n".encode() + "".join(
            f"{x},{status}\r\n" for x, status in table).encode())
        (d / "d.json").write_text(json.dumps(doc))
        (d / "manifest.json").write_text(name)  # never compared
        if extra:
            (d / "more.csv").write_text("x\r\n")
        return str(d)

    table = [("1", "pass"), ("1e-16", "pass")]
    doc = {"a": [2.0, 5e-16], "b": "x", "c": None, "n": 3}
    want = write("want", table, doc)
    # within 1e-12 of max(|b|, s): s = 1 (CSV) and 2 (JSON) let the zeros move
    assert compare_dirs(write("same", [("1.0000000000005", "pass"), ("-4e-16", "pass")],
                              {"a": [2.0 + 1e-12, -1e-12], "b": "x", "c": None, "n": 3}),
                        want) == []
    for name, got_table, got_doc, extra in [
        ("digit", [("1.000000000002", "pass"), table[1]], doc, False),
        ("zero", [table[0], ("3e-12", "pass")], doc, False),
        ("text", [table[0], ("1e-16", "FAIL")], doc, False),
        ("rows", table[:1], doc, False),
        ("json", table, dict(doc, a=[2.0 + 4e-12, 5e-16]), False),
        ("order", table, {"b": "x", "a": [2.0, 5e-16], "c": None, "n": 3}, False),
        ("type", table, dict(doc, n=3.0), False),
        ("null", table, dict(doc, c=0), False),
        ("files", table, doc, True),
    ]:
        assert compare_dirs(write(name, got_table, got_doc, extra), want), name
    assert compare_dirs(str(tmp_path / "missing"), want)


def test_scale_is_per_column(tmp_path):
    # a small column is checked on its own scale, not on a large neighbour's
    def write(name, k2, omega=1.1e4):
        d = tmp_path / name
        d.mkdir()
        (d / "t.csv").write_text(f"omega,k2\r\n{omega!r},{k2!r}\r\n")
        (d / "d.json").write_text(json.dumps({"rows": [{"omega": omega, "k2": k2}]}))
        return str(d)

    want = write("want", 0.96)
    assert compare_dirs(write("same", 0.96 * (1 + 5e-13), 1.1e4 * (1 + 5e-13)), want) == []
    problems = compare_dirs(write("k2", 0.96 * (1 + 3e-12)), want)
    assert len(problems) == 2 and "d.json.rows[0].k2" in problems[0]
    assert "t.csv row 1 field 1" in problems[1]


def test_cancelling_values_get_an_absolute_floor(tmp_path):
    # the budget residual is a difference of O(1) terms: its own size would
    # leave it 6e-19 of room, and its neighbours' scale (the gains' omega)
    # 1.1e-8; a key path outside CANCELLING keeps the relative rule
    def write(name, residual, other):
        d = tmp_path / name
        d.mkdir()
        (d / "dynamics_report.json").write_text(json.dumps(
            {"energy_budget": {"residual": residual, "stored": other}, "omega": 1.1e4}))
        return str(d)

    want = write("want", 6e-7, 6e-7)
    assert compare_dirs(write("noise", 6e-7 + 3e-15, 6e-7), want) == []
    assert compare_dirs(write("residual", 6e-7 + 1e-14, 6e-7), want)
    assert compare_dirs(write("stored", 6e-7, 6e-7 + 3e-15), want)


@pytest.mark.parametrize("run_name, name, column", [
    ("demo-kernel", "kernel_response.csv", 3),     # |K|^2 beside omega ~ 1.1e4
    ("demo-channel", "channel_spectra.csv", 2),    # zeta_out beside the mode index
])
def test_small_relative_moves_are_caught(tmp_path, run_name, name, column):
    # moves of 2-3e-12 relative passed when the floor was the largest value in the file
    got = tmp_path / run_name
    got.mkdir()
    want = os.path.join(GOLDEN, run_name)
    for other in os.listdir(want):
        with open(os.path.join(want, other), "rb") as src:
            (got / other).write_bytes(src.read())
    with open(got / name, newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        row[column] = repr(float(row[column]) * (1 + 3e-12))
    with open(got / name, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    problems = compare_dirs(str(got), want)
    assert len(problems) == len(rows) - 1
    assert all(f"{name} row" in p and f"field {column}:" in p for p in problems)


def test_regen_check_names_a_changed_byte(tmp_path, monkeypatch, capsys):
    # ``regen.py --check`` on a copy of one run's golden files: it names the
    # file with one byte changed and writes nothing; regenerating restores it
    spec = importlib.util.spec_from_file_location("regen", os.path.join(GOLDEN, "regen.py"))
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    golden = tmp_path / "golden"
    shutil.copytree(os.path.join(GOLDEN, "demo-kernel"), golden / "demo-kernel")
    monkeypatch.setattr(regen, "GOLDEN", str(golden))
    monkeypatch.setattr(regen, "RUNS", [s for s in RUNS if s[0] == "demo-kernel"])
    assert regen.main(["--check"]) == 0
    assert "byte-identical" in capsys.readouterr().out
    path = golden / "demo-kernel" / "kernel_summary.json"
    data = bytearray(path.read_bytes())
    i = next(i for i, c in enumerate(data) if chr(c).isdigit())
    data[i] = ord("0") + (data[i] - ord("0") + 1) % 10
    path.write_bytes(bytes(data))
    assert regen.main(["--check"]) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("differs: ")] == [
        "differs: " + os.path.join("demo-kernel", "kernel_summary.json")]
    assert path.read_bytes() == bytes(data)
    assert sorted(os.listdir(golden / "demo-kernel")) == ["kernel_response.csv",
                                                           "kernel_summary.json"]
    assert regen.main([]) == 0
    assert regen.main(["--check"]) == 0
    os.remove(golden / "demo-kernel" / "kernel_response.csv")
    assert regen.main(["--check"]) == 1
    assert "differs: " + os.path.join("demo-kernel", "kernel_response.csv") in (
        capsys.readouterr().out.splitlines())
