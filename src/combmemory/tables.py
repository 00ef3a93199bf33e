"""The two file formats of every data file this package writes.

CSV (``write_csv``): a header row, then one row per record; float fields
print as ``%.15g`` and every other field as ``str``; fields are joined by
``,`` and lines end in ``\\r\\n``.  No field is quoted, so no header name or
value may contain a comma, a quote or a line break.

JSON (``write_json``): exactly the bytes of
``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``.  Every value is the
stdlib's own output but for two bulk shapes: ``Records`` tables and
``SymmetricMatrix`` values.  They are the bulk of the files the benchmark
measures (the sweep and retrieval tables, the comb covariances), and the
stdlib drops its C encoder when ``indent`` is set.  Each value goes to the
stdlib whole; a list, tuple or dict is walked item by item only when the
stdlib raises ``TypeError`` on it, as it does on a bulk value inside.

One renderer prints the bulk shapes in both formats.  Each becomes a stream
of row texts from one of two sources: ``%`` templates filled ``BLOCK_ROWS``
rows at a time for a column table, or mirrored rows for a
``SymmetricMatrix``.  The formats differ only in how they spell a value
(``_spell_csv``, ``_spell_json``) and how they frame the rows: CSV writes
them after its header, JSON frames them as the stdlib frames a list.

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
        rows = _mirrored_rows(columns, _spell_csv, "", ",", "\r\n")
    else:
        cols, n = _columns(header, columns)
        fields = [_field(c, _spell_csv) for c in cols]
        rows = _blocks(fields, n, ",".join(conv for conv, _, _ in fields) + "\r\n", "")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(rows)
    return path


def _spell_csv(values):
    """CSV's spelling of an array's items as ``(conv, respell)``: ``%.15g``
    for floats and ``str`` for the rest, with no rewrite."""
    return ("%.15g" if values.dtype.kind == "f" else "%s"), None


def _blocks(fields, n, template, sep):
    """Yield the ``n`` rows of a column table as text, ``BLOCK_ROWS`` rows at a time.

    ``fields`` holds one ``_field`` per column.  Each block is ``template``
    repeated once per row and joined by ``sep``, filled by one ``%``.
    """
    for i in range(0, n, BLOCK_ROWS):
        rows = slice(i, i + BLOCK_ROWS)
        block = [(values[rows] if index is None else values[index[rows]]).tolist()
                 for _, values, index in fields]
        yield sep.join([template] * len(block[0])) % tuple(chain.from_iterable(zip(*block)))


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


def _mirrored_rows(matrix, spell, start, sep, end):
    """Yield ``matrix``'s rows as text: ``start``, the row's entries joined by
    ``sep``, then ``end``.

    Each upper-triangle entry is printed once by ``_format_once`` in the
    spelling ``spell``, and an index array gathers the strings into every row,
    mirrored below the diagonal; only the triangle's strings are held.
    """
    A = matrix.entries
    upper = np.triu_indices(len(A))
    strings = _format_once(A[upper], *spell(A))
    where = np.empty(A.shape, dtype=np.intp)
    where[upper] = where[upper[::-1]] = np.arange(len(strings))
    for row in where:
        yield start + sep.join(strings[row].tolist()) + end


def _spell_json(values):
    """The stdlib's spelling of an array's items as ``(conv, respell)``.

    Floats print by ``repr``, rewritten to the stdlib's ``NaN`` and
    ``Infinity`` if any is not finite, and integers by ``%d``; ``conv`` is
    None for any other item, which the stdlib prints one by one.
    """
    kind = values.dtype.kind
    if kind == "f":
        finite = np.isfinite(values).all()
        return "%r", None if finite else (
            lambda text: text.replace("nan", "NaN").replace("inf", "Infinity"))
    return ("%d" if kind in "iu" else None), None


def _field(col, spell, nl=None):
    """One table column as ``(conv, values, index)``: the ``%`` conversion of
    its field, the values that fill it and the index that gathers them, or None.

    ``spell`` is the format's spelling.  A plain column that needs no rewrite
    fills its field in place; any other column's values are printed once to
    strings, by ``_format_once`` or, where ``conv`` is None, by the stdlib
    re-indented to sit after ``nl``.
    """
    values, index = (col.values, col.index) if isinstance(col, Gathered) else (col, None)
    conv, respell = spell(values)
    if conv is None:
        values = np.array([_stdlib(v, nl) for v in values.tolist()], dtype=object)
    elif index is not None or respell is not None:
        values = _format_once(values, conv, respell)
    else:
        return conv, values, None
    return "%s", values, index


def _write_list(texts, nl, write):
    """Write the item texts ``texts`` after ``nl`` as the stdlib frames a list."""
    inner = nl + "  "
    sep = "[" + inner
    for text in texts:
        write(sep)
        write(text)  # not sep + text: a copy of the block would raise the peak
        sep = "," + inner
    write(nl + "]" if sep[0] == "," else "[]")


def _stdlib(obj, nl):
    """``json.dumps(obj, indent=2, sort_keys=True)``, re-indented to sit after ``nl``."""
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", nl)


def _write_value(obj, nl, write, path=()):
    """Write ``obj`` after ``nl``; ``path`` holds the ids of the containers around it."""
    inner, field = nl + "  ", nl + "    "
    if isinstance(obj, Records):
        order = sorted(range(len(obj.header)), key=obj.header.__getitem__)
        fields = [_field(obj.columns[k], _spell_json, field) for k in order]
        template = "{" + ",".join(
            f"{field}{encode_basestring_ascii(obj.header[k]).replace('%', '%%')}: {conv}"
            for k, (conv, _, _) in zip(order, fields)) + inner + "}"
        n = len(obj.columns[0]) if obj.columns else 0
        _write_list(_blocks(fields, n, template, "," + inner), nl, write)
        return
    if isinstance(obj, SymmetricMatrix):
        _write_list(_mirrored_rows(obj, _spell_json, "[" + field, "," + field, inner + "]"),
                    nl, write)
        return
    try:
        text = _stdlib(obj, nl)
    except TypeError:
        # a bulk value inside, or a value nothing encodes, met again on the walk
        if isinstance(obj, dict) and all(isinstance(k, str) for k in obj):
            items = [(f"{inner}{encode_basestring_ascii(k)}: ", obj[k]) for k in sorted(obj)]
            ends = "{}"
        elif isinstance(obj, (list, tuple)):
            items, ends = [(inner, item) for item in obj], "[]"
        else:
            raise
    else:
        write(text)
        return
    if id(obj) in path:
        raise ValueError("Circular reference detected")  # the stdlib encoder's error
    path = (*path, id(obj))
    sep = ends[0]
    for head, item in items:
        write(sep + head)
        _write_value(item, inner, write, path)
        sep = ","
    write(nl + ends[1])


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
