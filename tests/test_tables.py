import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combmemory.tables import BLOCK_ROWS, Gathered, Records, SymmetricMatrix, write_csv, write_json


def reference_bytes(header, columns):
    """The format spelled out with the stdlib writer: %.15g floats, str otherwise."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    for row in zip(*columns):
        w.writerow([f"{v:.15g}" if isinstance(v, float) else str(v) for v in row])
    return buf.getvalue().encode()


EDGE = [0.0, -0.0, 1e-300, -1e-300, 123456789012345.6, 3.0, -2.5e17, 0.1 + 0.2]


@pytest.mark.parametrize("header, columns", [
    (["index", "x", "status"], [np.arange(3), np.array([0.5, -1.25, 7.0]), ["pass", "FAIL", "pass"]]),
    (["i", "x"], [[0, 1, 2], [1.0, 2.5, 1e-300]]),
    (["x", "neg_x"], [np.array(EDGE), -np.array(EDGE)]),
    (["a", "b"], [np.array([]), np.array([])]),
    (["z", "t", "v"], [np.linspace(0, 1, 2 * BLOCK_ROWS + 3), np.arange(2 * BLOCK_ROWS + 3),
                       np.random.default_rng(0).standard_normal(2 * BLOCK_ROWS + 3)]),
], ids=["mixed", "lists", "edge-values", "header-only", "block-seams"])
def test_bytes_match_stdlib_writer(tmp_path, header, columns):
    path = tmp_path / "t.csv"
    assert write_csv(path, header, columns) == path
    assert path.read_bytes() == reference_bytes(header, columns)


def test_edge_values_spelled_out(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["x"], [np.array(EDGE)])
    assert path.read_bytes().split(b"\r\n") == [
        b"x", b"0", b"-0", b"1e-300", b"-1e-300", b"123456789012346", b"3",
        b"-2.5e+17", b"0.3", b"",
    ]


@pytest.mark.parametrize("header, columns", [
    (["a", "b"], [[1.0, 2.0], [1.0]]),
    (["a"], [[1.0], [2.0]]),
    (["a"], [np.zeros((2, 2))]),
], ids=["ragged", "header-mismatch", "not-1d"])
def test_malformed_table_rejected(tmp_path, header, columns):
    with pytest.raises(ValueError, match="column"):
        write_csv(tmp_path / "t.csv", header, columns)


# ----------------------------------------------------------------------------
# write_json: the bytes of json.dumps(obj, indent=2, sort_keys=True) + "\n"

def stdlib_bytes(obj):
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def expanded(column):
    """The array a ``Gathered`` column stands for; any other column as it is."""
    return column.values[column.index] if isinstance(column, Gathered) else column


def as_rows(obj):
    """``obj`` with every ``Records`` table spelt out as the dicts it stands
    for and every ``SymmetricMatrix`` as its list of rows."""
    if isinstance(obj, Records):
        columns = (expanded(c).tolist() for c in obj.columns)
        return [dict(zip(obj.header, row)) for row in zip(*columns)]
    if isinstance(obj, SymmetricMatrix):
        return obj.entries.tolist()
    if isinstance(obj, dict):
        return {k: as_rows(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_rows(v) for v in obj]
    return obj


def assert_stdlib_bytes(tmp_path, obj):
    path = tmp_path / "t.json"
    assert write_json(path, obj) == path
    assert path.read_bytes() == stdlib_bytes(as_rows(obj))


FLOATS = [-0.0, 0.0, 1e-300, -1e-300, 5e-324, 1.0, 1e16, -2.5e17, 0.1 + 0.2, 123456789012345.6]
NON_FINITE = [math.nan, math.inf, -math.inf]
STRINGS = ['say "hi"', "back\\slash", "tab\tnew\nline", "caf\u00e9 \u00b5s \U0001d11e", "50% off", ""]


@pytest.mark.parametrize("obj", [
    FLOATS, [-f for f in FLOATS], [[1.0, -0.0], [5e-324, 1e16]],
    2**70, -(2**70), [2**70, 1, -1, 0], None, True, False, [None, True, False, 0, 1],
    math.nan, math.inf, -math.inf, NON_FINITE, [1.0, math.nan, 2.0], [[math.inf, 1.0]],
    [], {}, [[], {}], {"a": [], "b": {}}, (1.0, 2.0),
    STRINGS, {s: s for s in STRINGS if s},
    np.float64(0.1), [np.float64(1.5), np.float64(-0.0)], {"x": np.float64(1e-300)},
    [1.0, 2, "three", None, [4.0]], {"b": 1, "a": {"d": [1.0], "c": None}},
    {"keys": {2: "b", 1.5: None}},  # non-string keys, which the stdlib prints as strings
], ids=lambda obj: type(obj).__name__)
def test_json_values(tmp_path, obj):
    assert_stdlib_bytes(tmp_path, obj)


@pytest.mark.parametrize("header, columns", [
    (["i", "x", "name"], [np.arange(3), np.array([0.5, -0.0, 5e-324]), ["a", 'q"', "\u00e9"]]),
    (["x", "y"], [np.array(FLOATS), -np.array(FLOATS)]),
    (["big", "small"], [[2**70, 1], [-(2**70), 0]]),
    (["flag", "maybe"], [[True, False], [None, True]]),
    (["mixed"], [[None, True, 1.5, "x", 2**70, math.nan]]),
    (["x", "i"], [np.array(NON_FINITE + [1.0]), np.arange(4)]),
    (["x"], [np.array([1.0, math.nan], dtype=np.float32)]),
    (["a", "b"], [np.array([]), np.array([])]),
    ([], []),
    (["100%", "%d", "%(x)s"], [[1.0], [2], ["%s"]]),
    (["z", "a", "m"], [np.linspace(0, 1, 2 * BLOCK_ROWS + 3), np.arange(2 * BLOCK_ROWS + 3),
                       np.random.default_rng(0).standard_normal(2 * BLOCK_ROWS + 3)]),
], ids=["mixed", "edge-floats", "large-ints", "none-and-bools", "object-column", "non-finite",
        "float32", "zero-rows", "no-columns", "percent-names", "block-seams"])
def test_records_match_stdlib_dicts(tmp_path, header, columns):
    assert_stdlib_bytes(tmp_path, {"rows": Records(header, columns), "n": 1})
    assert_stdlib_bytes(tmp_path, [Records(header, columns)])


def test_records_are_the_dicts_they_stand_for(tmp_path):
    path = tmp_path / "t.json"
    write_json(path, Records(["b", "a"], [[1, 2], [0.5, "x"]]))
    assert json.loads(path.read_text()) == [{"a": "0.5", "b": 1}, {"a": "x", "b": 2}]


@pytest.mark.parametrize("header, columns", [
    (["a", "a"], [[1.0], [2.0]]),
    ([1, "a"], [[1.0], [2.0]]),
    (["a", "b"], [[1.0, 2.0], [1.0]]),
], ids=["duplicate", "not-a-string", "ragged"])
def test_malformed_records_rejected(header, columns):
    with pytest.raises(ValueError):
        Records(header, columns)


def test_unserialisable_value_raises_like_the_stdlib(tmp_path):
    for value in (1j, np.int64(3), object()):
        with pytest.raises(TypeError):
            write_json(tmp_path / "t.json", {"a": [1.0, value]})


def self_holding(bulk):
    """Containers that hold themselves, each with ``bulk`` beside the cycle if given."""
    extra = [] if bulk is None else [bulk]
    a = [*extra]
    a.append(a)
    d = {"m": bulk} if bulk is not None else {}
    d["self"] = d
    deep = {"a": [1.0, {}], "z": extra}
    deep["a"][1]["up"] = [deep]
    return [a, d, deep, (a,), [[a]]]


@pytest.mark.parametrize("bulk", [None, SymmetricMatrix(np.eye(2)), Records(["x"], [[1.0]])],
                         ids=["plain", "matrix", "records"])
def test_self_holding_container_raises_like_the_stdlib(tmp_path, bulk):
    # the stdlib raises ValueError("Circular reference detected"); the bulk
    # search and the walk once recursed without end into a RecursionError
    for obj in self_holding(bulk):
        with pytest.raises(ValueError, match="^Circular reference detected$"):
            write_json(tmp_path / "t.json", obj)
        if bulk is None:
            with pytest.raises(ValueError, match="^Circular reference detected$"):
                json.dumps(obj, indent=2, sort_keys=True)


def test_cycle_beside_unserialisable_value_raises_like_the_stdlib(tmp_path):
    # the stdlib meets "a" first, in sorted key order, and raises its TypeError
    d = {"a": object()}
    d["b"] = d
    for write in (lambda: json.dumps(d, indent=2, sort_keys=True),
                  lambda: write_json(tmp_path / "t.json", d)):
        with pytest.raises(TypeError):
            write()


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-2**80, 2**80)
                | st.floats() | st.text())
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: (st.lists(children, max_size=6) | st.lists(st.floats(), max_size=6)
                      | st.dictionaries(st.text(max_size=4), children, max_size=6)),
    max_leaves=40,
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(obj=JSON_VALUES)
def test_nested_values_match_stdlib(tmp_path_factory, obj):
    path = write_json(tmp_path_factory.getbasetemp() / "nested.json", obj)
    assert path.read_bytes() == stdlib_bytes(obj)


RECORD_COLUMNS = st.one_of(
    st.lists(st.floats(), min_size=3, max_size=3).map(np.array),
    st.lists(st.integers(-2**62, 2**62), min_size=3, max_size=3).map(np.array),
    st.lists(st.text(max_size=4), min_size=3, max_size=3),
    st.lists(st.booleans(), min_size=3, max_size=3),
    st.lists(JSON_SCALARS, min_size=3, max_size=3),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(table=st.dictionaries(st.text(max_size=4), RECORD_COLUMNS, max_size=5),
       rest=JSON_VALUES)
def test_record_tables_match_stdlib(tmp_path_factory, table, rest):
    obj = {"table": Records(list(table), list(table.values())), "rest": rest}
    path = write_json(tmp_path_factory.getbasetemp() / "records.json", obj)
    assert path.read_bytes() == stdlib_bytes(as_rows(obj))


# ----------------------------------------------------------------------------
# SymmetricMatrix: the bytes of the full matrix, from its formatted upper triangle

def mirrored(n, upper):
    """The n x n matrix whose upper triangle, row by row, is ``upper``."""
    A = np.empty((n, n))
    iu = np.triu_indices(n)
    A[iu] = upper
    A[iu[::-1]] = upper
    return A


def assert_matrix_bytes(tmp_path, A):
    header = [f"c{k}" for k in range(len(A))]
    full, half = tmp_path / "full.csv", tmp_path / "half.csv"
    write_csv(full, header, A.T)
    assert write_csv(half, header, SymmetricMatrix(A)) == half
    assert half.read_bytes() == full.read_bytes() == reference_bytes(header, A.T)
    path = tmp_path / "m.json"
    assert write_json(path, SymmetricMatrix(A)) == path
    assert path.read_bytes() == stdlib_bytes(A.tolist())
    obj = {"c": {"mode_count": len(A) // 2, "rows": SymmetricMatrix(A)}, "n": [1.0]}
    write_json(path, obj)
    assert path.read_bytes() == stdlib_bytes({"c": {"mode_count": len(A) // 2,
                                                     "rows": A.tolist()}, "n": [1.0]})


MATRIX_VALUES = st.sampled_from(EDGE + [-f for f in EDGE] + NON_FINITE) | st.floats()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(0, 16))
def test_symmetric_matrix_bytes_match_full_matrix(tmp_path_factory, data, n):
    upper = data.draw(st.lists(MATRIX_VALUES, min_size=n * (n + 1) // 2,
                               max_size=n * (n + 1) // 2))
    assert_matrix_bytes(tmp_path_factory.mktemp("matrix"), mirrored(n, upper))


@pytest.mark.parametrize("A", [
    np.zeros((0, 0)), np.array([[-0.0]]), np.array([[math.nan]]), np.array([[1e-300]]),
    mirrored(3, [1.0, -0.0, 2.5, 0.0, -math.inf, 3.0]),
    mirrored(40, np.random.default_rng(1).standard_normal(820)),
], ids=["0x0", "1x1-neg-zero", "1x1-nan", "1x1-tiny", "signed-zeros", "40x40"])
def test_symmetric_matrix_cases(tmp_path, A):
    assert_matrix_bytes(tmp_path, A)


@pytest.mark.parametrize("A", [
    np.zeros((2, 3)),
    np.zeros(4),
    np.array([[1.0, 0.1], [np.nextafter(0.1, 1.0), 1.0]]),
    np.array([[1.0, 0.0], [-0.0, 1.0]]),
], ids=["not-square", "1-d", "one-ulp", "signed-zero-mirror"])
def test_asymmetric_matrix_rejected(A):
    with pytest.raises(ValueError, match="square|transpose"):
        SymmetricMatrix(A)


def test_matrix_header_length_checked(tmp_path):
    with pytest.raises(ValueError, match="column"):
        write_csv(tmp_path / "t.csv", ["c0", "c1"], SymmetricMatrix(np.eye(3)))


# ----------------------------------------------------------------------------
# Gathered: the bytes of the expanded column, from each distinct value formatted once

def assert_gathered_bytes(tmp_path, header, columns):
    """``columns``, some ``Gathered``, print as their expanded arrays in both formats."""
    plain = [expanded(c) for c in columns]
    gathered, full = tmp_path / "gathered.csv", tmp_path / "full.csv"
    assert write_csv(gathered, header, columns) == gathered
    write_csv(full, header, plain)
    assert gathered.read_bytes() == full.read_bytes() == reference_bytes(header, plain)
    gathered, full = tmp_path / "gathered.json", tmp_path / "full.json"
    write_json(gathered, {"rows": Records(header, columns), "n": [1.0]})
    write_json(full, {"rows": Records(header, plain), "n": [1.0]})
    assert gathered.read_bytes() == full.read_bytes() == stdlib_bytes(
        {"rows": as_rows(Records(header, plain)), "n": [1.0]})


GATHERED_VALUES = st.one_of(
    st.lists(st.sampled_from(EDGE + [-f for f in EDGE] + NON_FINITE) | st.floats(),
             min_size=1, max_size=8).map(np.array),
    st.lists(st.integers(-2**62, 2**62), min_size=1, max_size=8).map(np.array),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data(), values=GATHERED_VALUES)
def test_gathered_bytes_match_expanded_column(tmp_path_factory, data, values):
    index = data.draw(st.lists(st.integers(0, len(values) - 1), max_size=24))
    count = data.draw(st.integers(0, 4))
    n = len(index)
    columns = [Gathered(values, index), np.arange(n) * 0.5, Gathered(values[::-1], index[::-1])]
    assert_gathered_bytes(tmp_path_factory.mktemp("gathered"), ["g", "x", "h"], columns)
    repeat, tile = Gathered.repeat(values, count), Gathered.tile(values, count)
    assert np.array_equal(expanded(repeat), np.repeat(values, count), equal_nan=True)
    assert np.array_equal(expanded(tile), np.tile(values, count), equal_nan=True)
    assert_gathered_bytes(tmp_path_factory.mktemp("gathered"), ["r", "t"], [repeat, tile])


@pytest.mark.parametrize("header, columns", [
    (["g", "x"], [Gathered([1.5, -0.0], []), np.array([])]),
    (["g", "x"], [Gathered([1e-300], [0]), [2.0]]),
    (["g"], [Gathered([-0.0, math.nan, -math.inf], [2, 1, 0, 1])]),
    (["n", "s"], [Gathered.repeat([0, -7, 2**40], 3), Gathered.tile(["pass", "FAIL", ""], 3)]),
    (["flag", "maybe"], [Gathered([True, False], [1, 0, 0]), Gathered([None, 1.5, "x"], [2, 0, 1])]),
    (["d", "i", "v"], [Gathered.repeat(np.linspace(1, 2, 3), BLOCK_ROWS),
                       Gathered.tile(np.arange(BLOCK_ROWS), 3),
                       np.random.default_rng(2).standard_normal(3 * BLOCK_ROWS)]),
], ids=["empty-index", "single-value", "non-finite", "ints-and-strings", "bools-and-objects",
        "block-seams"])
def test_gathered_cases(tmp_path, header, columns):
    assert_gathered_bytes(tmp_path, header, columns)


def test_gathered_json_strings_may_hold_commas(tmp_path):
    # only CSV forbids a comma in a value; a JSON string prints as the stdlib prints it
    assert_stdlib_bytes(tmp_path, Records(["s"], [Gathered(['a,b', 'say "hi"'], [1, 0, 0])]))


@pytest.mark.parametrize("values, index", [
    ([1.0, 2.0], [0, 2]),
    ([1.0, 2.0], [-1, 0]),
    ([1.0, 2.0], [[0, 1]]),
    ([[1.0, 2.0]], [0]),
    ([1.0, 2.0], [0.0, 1.0]),
    ([1.0, 2.0], [True, False]),
    ([], [0]),
], ids=["past-the-end", "negative", "2-d-index", "2-d-values", "float-index", "bool-index",
        "no-values"])
def test_malformed_gathered_rejected(values, index):
    with pytest.raises(ValueError, match="gathered column"):
        Gathered(values, index)


def test_gathered_length_checked(tmp_path):
    columns = [Gathered([1.0], [0, 0, 0]), [1.0, 2.0]]
    with pytest.raises(ValueError, match="column"):
        write_csv(tmp_path / "t.csv", ["g", "x"], columns)
    with pytest.raises(ValueError, match="column"):
        Records(["g", "x"], columns)


# ----------------------------------------------------------------------------
# bulk values inside lists and dicts: the container walk around the two hand-printed shapes

@st.composite
def bulk_values(draw):
    """A ``SymmetricMatrix`` of up to 3 x 3, or a 3-row ``Records`` table with a ``Gathered`` column."""
    if draw(st.booleans()):
        n = draw(st.integers(0, 3))
        upper = draw(st.lists(MATRIX_VALUES, min_size=n * (n + 1) // 2,
                              max_size=n * (n + 1) // 2))
        return SymmetricMatrix(mirrored(n, upper))
    header = draw(st.lists(st.text(max_size=4), min_size=2, max_size=2, unique=True))
    values = draw(GATHERED_VALUES)
    index = draw(st.lists(st.integers(0, len(values) - 1), min_size=3, max_size=3))
    return Records(header, [Gathered(values, index), draw(RECORD_COLUMNS)])


NESTED_BULK = st.recursive(
    bulk_values() | JSON_VALUES,
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(st.text(max_size=4), children, max_size=4)),
    max_leaves=12,
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(obj=NESTED_BULK)
def test_bulk_values_at_any_depth_match_stdlib(tmp_path_factory, obj):
    path = write_json(tmp_path_factory.getbasetemp() / "bulk.json", obj)
    assert path.read_bytes() == stdlib_bytes(as_rows(obj))


def test_bulk_value_under_non_string_key_raises_like_the_stdlib(tmp_path):
    # the walk keeps string-keyed dicts only; the stdlib cannot encode the value itself
    table = Records(["g", "x"], [Gathered([1.5], [0, 0]), [1, 2]])
    for obj in ({1: table}, [{"a": {2.5: table}}], {None: SymmetricMatrix(np.eye(2))}):
        with pytest.raises(TypeError):
            json.dumps(obj, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            write_json(tmp_path / "t.json", obj)
