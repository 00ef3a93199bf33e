"""The two file formats of every data file this package writes.

CSV (``write_csv``): a header row, then one row per record; float fields
print as ``%.15g`` and every other field as ``str``; fields are joined by
``,`` and lines end in ``\\r\\n``.  No field is quoted, so no header name or
value may contain a comma, a quote or a line break.

JSON (``write_json``): exactly the bytes of
``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``.  Every value is the
stdlib's own output but for two shapes printed here with ``%`` templates and
joins: ``Records`` tables and ``SymmetricMatrix`` values.  They are the bulk
of the files the benchmark measures (the sweep and retrieval tables, the comb
covariances), and the stdlib drops its C encoder when ``indent`` is set.

Repeated values are formatted once.  A ``Gathered`` column stands for
``values[index]``: both writers format each of its distinct ``values`` once
and gather the strings by ``index``.  A ``SymmetricMatrix`` is printed the
same way, from its formatted upper triangle and an index that mirrors it below
the diagonal, so an n x n matrix costs n(n + 1)/2 strings.  Either way the
bytes are those of the expanded column or the full matrix.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

BLOCK_ROWS = 4096  # rows %-formatted per write; bounds the per-block Python objects


def _columns(header, columns):
    """``columns`` as equal-length 1-d arrays or ``Gathered`` columns, one per ``header`` name."""
    cols = [c if isinstance(c, Gathered) else np.asarray(c) for c in columns]
    n = len(cols[0]) if cols else 0
    if len(cols) != len(header) or any(c.ndim != 1 or len(c) != n for c in cols):
        raise ValueError("a table needs one 1-d column per header name, all of one length")
    return cols, n


def write_csv(path, header, columns):
    """Write equal-length ``columns``, one per ``header`` name, to ``path``; return ``path``.

    A column may be ``Gathered``, and ``columns`` may be a ``SymmetricMatrix``,
    whose columns are its rows.
    """
    if isinstance(columns, SymmetricMatrix):
        if len(header) != len(columns.entries):
            raise ValueError("a matrix table needs one header name per column")
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            for row in _mirrored_rows(columns, "%.15g"):
                fh.write(",".join(row) + "\r\n")
        return path
    cols, n = _columns(header, columns)
    fields = [_csv_field(c) for c in cols]
    row = ",".join(conv for conv, _, _ in fields) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for i in range(0, n, BLOCK_ROWS):
            block = [_block(values, index, i) for _, values, index in fields]
            fh.write(row * len(block[0]) % tuple(chain.from_iterable(zip(*block))))
    return path


def _csv_field(col):
    """One CSV column as ``(conv, values, index)``: floats print by ``%.15g``
    and the rest by ``str``; a ``Gathered`` column's values are its strings."""
    if isinstance(col, Gathered):
        conv = "%.15g" if col.values.dtype.kind == "f" else "%s"
        return "%s", _format_once(col.values, conv), col.index
    return ("%.15g" if col.dtype.kind == "f" else "%s"), col, None


def _block(values, index, i):
    """Rows ``i`` to ``i + BLOCK_ROWS`` of ``values``, or of ``values[index]``, as a list."""
    rows = slice(i, i + BLOCK_ROWS)
    return (values[rows] if index is None else values[index[rows]]).tolist()


class Gathered:
    """A table column that stands for ``values[index]``.

    ``write_csv`` and ``Records`` format each of ``values`` once and gather
    the strings by ``index``, so a column that repeats a few values costs one
    string per value; the bytes are those of the expanded column.
    ``Gathered.repeat`` and ``Gathered.tile`` stand for ``np.repeat`` and
    ``np.tile``.  Construction raises ``ValueError`` unless ``values`` and
    ``index`` are 1-d and every index is an integer in ``[0, len(values))``.
    """

    __slots__ = ("values", "index")
    ndim = 1

    def __init__(self, values, index):
        values, index = np.asarray(values), np.asarray(index)
        if values.ndim != 1 or index.ndim != 1:
            raise ValueError("a gathered column needs 1-d values and a 1-d index")
        if index.size and (index.dtype.kind not in "iu"
                           or index.min() < 0 or index.max() >= len(values)):
            raise ValueError("a gathered column's index must hold integers in [0, len(values))")
        self.values, self.index = values, index.astype(np.intp, copy=False)

    @classmethod
    def repeat(cls, values, count):
        """``np.repeat(values, count)``: each value ``count`` times in turn."""
        return cls(values, np.repeat(np.arange(len(values)), count))

    @classmethod
    def tile(cls, values, count):
        """``np.tile(values, count)``: all of ``values``, ``count`` times over."""
        return cls(values, np.tile(np.arange(len(values)), count))

    def __len__(self):
        return len(self.index)


class Records:
    """A column table that ``write_json`` prints as a list of ``{name: value}`` objects.

    Each column goes through ``np.asarray(c).tolist()``, as in ``write_csv``,
    so record ``i`` is ``dict(zip(header, (c[i] for c in columns)))`` in plain
    Python values; a column may be ``Gathered``.  No per-row dict is ever built.
    """

    __slots__ = ("header", "columns")

    def __init__(self, header, columns):
        self.columns, _ = _columns(header, columns)
        if len(set(header)) != len(header) or not all(isinstance(h, str) for h in header):
            raise ValueError("record names must be distinct strings")
        self.header = list(header)


class SymmetricMatrix:
    """A square float64 matrix equal to its transpose bit for bit.

    ``write_json`` prints it as its list of row lists and ``write_csv`` takes
    it as its columns.  Construction raises ``ValueError`` unless the matrix
    is square and each entry has the bits of its mirror (so ``0.0`` against
    ``-0.0`` fails), which is what lets the writers format the upper triangle
    alone.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        A = np.asarray(entries, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("a symmetric matrix must be square")
        bits = A.view(np.int64)
        if not np.array_equal(bits, bits.T):
            raise ValueError("matrix is not equal to its transpose bit for bit")
        self.entries = A


def _format_once(values, conv, respell=None):
    """The items of the 1-d array ``values``, each printed once by the ``%``
    conversion ``conv``, as an object array of strings.

    One ``%`` prints them all, comma-joined, and the text is split back at the
    commas, so ``conv`` must print no comma.  ``respell``, if given, rewrites
    the joined text first.
    """
    n = len(values)
    if not n:
        return np.empty(0, dtype=object)
    # each stage's input is dropped once used, so the peak holds the text and
    # the strings split from it, not also the array and its Python values
    items = tuple(values.tolist())
    del values
    text = ",".join([conv] * n) % items
    del items
    if respell is not None:
        text = respell(text)
    strings = np.empty(n, dtype=object)
    strings[:] = text.split(",")
    return strings


def _mirrored_rows(matrix, conv, respell=None):
    """Yield ``matrix``'s rows as lists of strings.

    Each upper-triangle entry is printed once by ``_format_once``, and an
    index array gathers the strings into every row, mirrored below the
    diagonal; only the triangle's strings are held.
    """
    A = matrix.entries
    upper = np.triu_indices(len(A))
    strings = _format_once(A[upper], conv, respell)
    where = np.empty(A.shape, dtype=np.intp)
    where[upper] = where[upper[::-1]] = np.arange(len(strings))
    for row in where:
        yield strings[row].tolist()


def _spell_non_finite(text):
    """``text``, comma-joined float reprs, with nan and inf spelt as the stdlib spells them."""
    if "n" not in text:  # finite reprs hold no n
        return text
    return text.replace("nan", "NaN").replace("inf", "Infinity")


def _json_strings(values, nl):
    """Each of ``values`` printed once as the stdlib prints it, as an object array."""
    kind = values.dtype.kind
    if kind == "f":
        return _format_once(values, "%r", _spell_non_finite)
    if kind in "iu":
        return _format_once(values, "%d")
    return np.array([_stdlib(v, nl) for v in values.tolist()], dtype=object)


def _record_field(col, nl):
    """One record column as ``(conv, values, index)``: the ``%`` conversion of
    its field, the values it formats and, for a ``Gathered`` column, the index
    that gathers its strings."""
    if isinstance(col, Gathered):
        return "%s", _json_strings(col.values, nl), col.index
    kind = col.dtype.kind
    if kind == "f" and np.isfinite(col).all():
        return "%r", col, None
    if kind in "iu":
        return "%d", col, None
    return "%s", _json_strings(col, nl), None  # str, bool, None, NaN/inf, mixed


def _write_records(rec, nl, write):
    n = len(rec.columns[0]) if rec.columns else 0
    if n == 0:
        write("[]")
        return
    inner, field = nl + "  ", nl + "    "
    order = sorted(range(len(rec.header)), key=rec.header.__getitem__)
    fields = [_record_field(rec.columns[k], field) for k in order]
    template = "{" + ",".join(
        f"{field}{encode_basestring_ascii(rec.header[k]).replace('%', '%%')}: {conv}"
        for k, (conv, _, _) in zip(order, fields)) + inner + "}"
    sep = "[" + inner
    for i in range(0, n, BLOCK_ROWS):
        block = [_block(values, index, i) for _, values, index in fields]
        write(sep + ("," + inner).join([template] * len(block[0]))
              % tuple(chain.from_iterable(zip(*block))))
        sep = "," + inner
    write(nl + "]")


def _write_matrix(matrix, nl, write):
    if not matrix.entries.size:
        write("[]")
        return
    inner, field = nl + "  ", nl + "    "
    sep = "[" + inner
    for row in _mirrored_rows(matrix, "%r", _spell_non_finite):
        write(sep + "[" + field + ("," + field).join(row) + inner + "]")
        sep = "," + inner
    write(nl + "]")


def _holds_bulk(obj, path=()):
    """Whether ``obj`` is a ``Records`` or ``SymmetricMatrix`` value, or a list,
    tuple or string-keyed dict that holds one at any depth.

    ``path`` holds the ids of the containers being searched around ``obj``; a
    container met again on it is a cycle and adds nothing to the search.
    """
    if isinstance(obj, (Records, SymmetricMatrix)):
        return True
    if isinstance(obj, dict):
        items = obj.values() if all(isinstance(k, str) for k in obj) else ()
    elif isinstance(obj, (list, tuple)):
        items = obj
    else:
        return False
    if id(obj) in path:
        return False
    path = (*path, id(obj))
    return any(_holds_bulk(item, path) for item in items)


def _stdlib(obj, nl):
    """``json.dumps(obj, indent=2, sort_keys=True)``, re-indented to sit after ``nl``."""
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", nl)


def _write_value(obj, nl, write, path=()):
    """Write ``obj`` after ``nl``; ``path`` holds the ids of the containers around it."""
    if isinstance(obj, Records):
        _write_records(obj, nl, write)
    elif isinstance(obj, SymmetricMatrix):
        _write_matrix(obj, nl, write)
    elif not _holds_bulk(obj):
        write(_stdlib(obj, nl))
    elif id(obj) in path:
        raise ValueError("Circular reference detected")  # the stdlib encoder's error
    elif isinstance(obj, dict):
        inner, path = nl + "  ", (*path, id(obj))
        sep = "{"
        for key in sorted(obj):
            write(f"{sep}{inner}{encode_basestring_ascii(key)}: ")
            _write_value(obj[key], inner, write, path)
            sep = ","
        write(nl + "}")
    else:
        inner, path = nl + "  ", (*path, id(obj))
        sep = "["
        for item in obj:
            write(sep + inner)
            _write_value(item, inner, write, path)
            sep = ","
        write(nl + "]")


def write_json(path, obj):
    """Write ``obj`` to ``path`` as ``json.dumps(obj, indent=2, sort_keys=True)``
    plus a final newline; return ``path``.

    ``obj`` may hold ``Records`` tables, which print as the lists of records
    they stand for, and ``SymmetricMatrix`` values, which print as their lists
    of rows, at any depth of its lists, tuples and string-keyed dicts.  Any
    value the stdlib cannot encode raises its ``TypeError``, as does a bulk
    value under a dict with a key that is not a string, and a container that
    holds itself raises its ``ValueError``.
    """
    with open(path, "w") as fh:
        _write_value(obj, "\n", fh.write)
        fh.write("\n")
    return path
