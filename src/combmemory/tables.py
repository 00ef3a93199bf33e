"""The two file formats of every data file this package writes.

CSV (``write_csv``): a header row, then one row per record; float fields
print as ``%.15g`` and every other field as ``str``; fields are joined by
``,`` and lines end in ``\\r\\n``.  No field is quoted, so no header name or
value may contain a comma, a quote or a line break.

JSON (``write_json``): exactly the bytes of
``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``.  The stdlib drops its
C encoder when ``indent`` is set, so the bulk shapes -- record tables, float
lists and float matrices -- are printed here with ``%`` templates and joins,
and only the rest is left to the stdlib.

A ``SymmetricMatrix`` is printed in both formats from its formatted upper
triangle: each entry on or above the diagonal is formatted once and mirrored
below it, so an n x n matrix costs n(n + 1)/2 strings and the bytes are those
of the full matrix.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

BLOCK_ROWS = 4096  # rows %-formatted per write; bounds the per-block Python objects


def _columns(header, columns):
    """``columns`` as equal-length 1-d arrays, one per ``header`` name."""
    cols = [np.asarray(c) for c in columns]
    n = len(cols[0]) if cols else 0
    if len(cols) != len(header) or any(c.ndim != 1 or len(c) != n for c in cols):
        raise ValueError("a table needs one 1-d column per header name, all of one length")
    return cols, n


def write_csv(path, header, columns):
    """Write equal-length ``columns``, one per ``header`` name, to ``path``; return ``path``.

    ``columns`` may be a ``SymmetricMatrix``, whose columns are its rows.
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
    row = ",".join("%.15g" if c.dtype.kind == "f" else "%s" for c in cols) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for i in range(0, n, BLOCK_ROWS):
            block = [c[i:i + BLOCK_ROWS].tolist() for c in cols]
            fh.write(row * len(block[0]) % tuple(chain.from_iterable(zip(*block))))
    return path


class Records:
    """A column table that ``write_json`` prints as a list of ``{name: value}`` objects.

    Each column goes through ``np.asarray(c).tolist()``, as in ``write_csv``,
    so record ``i`` is ``dict(zip(header, (c[i] for c in columns)))`` in plain
    Python values.  No per-row dict is ever built.
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


def _mirrored_rows(matrix, conv, respell=None):
    """Yield ``matrix``'s rows as lists of strings.

    Each upper-triangle entry is formatted once, by the ``%`` conversion
    ``conv`` (which prints no comma), and an index array mirrors it below the
    diagonal.  When an entry is not finite, ``respell`` (if given) rewrites the
    comma-joined triangle once.
    """
    A = matrix.entries
    upper = np.triu_indices(len(A))
    size = len(upper[0])
    if not size:
        return
    text = ",".join([conv] * size) % tuple(A[upper].tolist())
    if respell is not None and not np.isfinite(A).all():
        text = respell(text)
    strings = np.empty(size, dtype=object)
    strings[:] = text.split(",")
    del text  # the strings alone are kept: half the matrix, not all of it
    where = np.empty(A.shape, dtype=np.intp)
    where[upper] = where[upper[::-1]] = np.arange(size)
    for row in where:
        yield strings[row].tolist()


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _scalar(obj, nl):
    """The stdlib's bytes for a scalar ``obj``; any other value is left to the
    stdlib itself, re-indented to sit after ``nl``.

    ``True`` and ``False`` are tested before ``int``, their base class, and
    floats print by ``float.__repr__`` (``np.float64``'s own repr is not JSON).
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _NON_FINITE.get(text, text)
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", nl)


def _spell_non_finite(text):
    return text.replace("nan", "NaN").replace("inf", "Infinity")


def _float_list(values, nl):
    """``values`` as a JSON array, or ``None`` unless every item is a ``float``.

    ``float.__repr__`` is what the stdlib prints (also for ``np.float64``, a
    ``float`` subclass whose own repr is not JSON); it raises ``TypeError`` on
    anything else.  Finite reprs hold no ``n``, and the non-finite ones are
    respelt as the stdlib spells them.
    """
    inner = nl + "  "
    try:
        body = ("," + inner).join(map(float.__repr__, values))
    except TypeError:
        return None
    if "n" in body:
        body = _spell_non_finite(body)
    return "[" + inner + body + nl + "]"


def _record_fields(col, nl):
    """The ``%`` conversion of one record column and the values it formats."""
    values = col.tolist()
    kind = col.dtype.kind
    if kind == "f" and np.isfinite(col).all():
        return "%r", values
    if kind in "iu":
        return "%d", values
    return "%s", [_scalar(v, nl) for v in values]  # str, bool, None, NaN/inf, mixed


def _write_records(rec, nl, write):
    n = len(rec.columns[0]) if rec.columns else 0
    if n == 0:
        write("[]")
        return
    inner, field = nl + "  ", nl + "    "
    order = sorted(range(len(rec.header)), key=rec.header.__getitem__)
    fields = [_record_fields(rec.columns[k], field) for k in order]
    template = "{" + ",".join(
        f"{field}{encode_basestring_ascii(rec.header[k]).replace('%', '%%')}: {conv}"
        for k, (conv, _) in zip(order, fields)) + inner + "}"
    sep = "[" + inner
    for i in range(0, n, BLOCK_ROWS):
        block = [values[i:i + BLOCK_ROWS] for _, values in fields]
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


def _write_value(obj, nl, write):
    if isinstance(obj, Records):
        _write_records(obj, nl, write)
    elif isinstance(obj, SymmetricMatrix):
        _write_matrix(obj, nl, write)
    elif isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        inner = nl + "  "
        sep = "{"
        for key in sorted(obj):
            write(f"{sep}{inner}{encode_basestring_ascii(key)}: ")
            _write_value(obj[key], inner, write)
            sep = ","
        write(nl + "}")
    elif isinstance(obj, (list, tuple)) and obj:
        text = _float_list(obj, nl)
        if text is not None:
            write(text)
            return
        inner = nl + "  "
        sep = "["
        for item in obj:
            write(sep + inner)
            _write_value(item, inner, write)
            sep = ","
        write(nl + "]")
    else:  # scalars, empty containers, dicts with non-string keys
        write(_scalar(obj, nl))


def write_json(path, obj):
    """Write ``obj`` to ``path`` as ``json.dumps(obj, indent=2, sort_keys=True)``
    plus a final newline; return ``path``.

    ``obj`` may hold ``Records`` tables, which print as the lists of records
    they stand for, and ``SymmetricMatrix`` values, which print as their lists
    of rows.
    """
    with open(path, "w") as fh:
        _write_value(obj, "\n", fh.write)
        fh.write("\n")
    return path
