"""Every data file of the shipped-config runs against its golden copy in tests/golden.

The file set, the CSV headers and row counts, the JSON key order and every
non-numeric field must match exactly.  A number a matches its golden b when
|a - b| <= 1e-12 * max(|b|, s), where s is the largest magnitude in that
golden file: the floor lets float-noise zeros (the EPR ``c_out`` holds
entries of +-5e-16) round differently on another BLAS or CPU.  That tolerance
is the contract; a change that moves a value past it regenerates the golden
files (``python tests/golden/regen.py``) and names each changed value.
Manifests carry a timestamp and are not compared.
"""

import csv
import json
import math
import os
import re

import pytest

from combmemory.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
CONFIGS = os.path.join(HERE, os.pardir, "configs")
REL_TOL = 1e-12

# the PDE route of the dynamics working point, at 1000 x 1000
PDE = ((r"^n_z = .*", "n_z = 1000"), (r"^n_t = .*", "n_t = 1000"), (r"^path = .*", "path = pde"))
# (run name, subcommand, shipped config, line substitutions)
RUNS = [
    ("demo-kernel", "kernel", "demo.ini", ()),
    ("demo-metrics", "metrics", "demo.ini", ()),
    ("demo-channel", "channel", "demo.ini", ()),
    ("demo-sweep", "sweep", "demo.ini", ()),
    ("epr-channel", "channel", "channel_epr.ini", ()),
    ("dynamics", "dynamics", "dynamics.ini", ()),
    ("dynamics-pde", "dynamics", "dynamics.ini", PDE),
    # the PDE route at d = 30, whose read takes 18001 samples
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


def _numbers(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        for item in obj:
            yield from _numbers(item)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield float(obj)


def _scale(values):
    """s: the largest finite magnitude among ``values``."""
    return max((abs(v) for v in values if math.isfinite(v)), default=0.0)


def _close(a, b, s):
    if not (math.isfinite(a) and math.isfinite(b)):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= REL_TOL * max(abs(b), s)


def _compare_json(got, want, s, where, problems):
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(got) != list(want):
            problems.append(f"{where}: keys {list(got) if isinstance(got, dict) else got!r}"
                            f" != {list(want)}")
            return
        for key in want:
            _compare_json(got[key], want[key], s, f"{where}.{key}", problems)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            problems.append(f"{where}: {len(got) if isinstance(got, list) else got!r} items "
                            f"!= {len(want)}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare_json(g, w, s, f"{where}[{i}]", problems)
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        if type(got) is not type(want) or not _close(got, want, s):
            problems.append(f"{where}: {got!r} != {want!r}")
    elif type(got) is not type(want) or got != want:
        problems.append(f"{where}: {got!r} != {want!r}")


def _compare_csv(got_path, want_path, where, problems):
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
    numeric = [[_NUMBER.fullmatch(cell) is not None for cell in row] for row in want[1:]]
    s = _scale(float(c) for row, num in zip(want[1:], numeric) for c, n in zip(row, num) if n)
    for i, (g, w, num) in enumerate(zip(got[1:], want[1:], numeric), 1):
        if len(g) != len(w):
            problems.append(f"{where} row {i}: {len(g)} fields != {len(w)}")
            continue
        for j, (a, b, n) in enumerate(zip(g, w, num)):
            ok = (_NUMBER.fullmatch(a) is not None and _close(float(a), float(b), s)) if n else a == b
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
        if name.endswith(".csv"):
            _compare_csv(got_path, want_path, where, problems)
        else:
            with open(got_path) as g, open(want_path) as w:
                got, want = json.load(g), json.load(w)
            _compare_json(got, want, _scale(_numbers(want)), where, problems)
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
