"""The one CSV format of every data file this package writes.

A header row, then one row per record; float fields print as ``%.15g`` and
every other field as ``str``; fields are joined by ``,`` and lines end in
``\\r\\n``.  No field is quoted, so no header name or value may contain a
comma, a quote or a line break.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

BLOCK_ROWS = 4096  # rows %-formatted per write; bounds the per-block Python objects


def write_csv(path, header, columns):
    """Write equal-length ``columns``, one per ``header`` name, to ``path``; return ``path``."""
    cols = [np.asarray(c) for c in columns]
    n = len(cols[0]) if cols else 0
    if len(cols) != len(header) or any(c.ndim != 1 or len(c) != n for c in cols):
        raise ValueError("write_csv needs one 1-d column per header name, all of one length")
    row = ",".join("%.15g" if c.dtype.kind == "f" else "%s" for c in cols) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for i in range(0, n, BLOCK_ROWS):
            block = [c[i:i + BLOCK_ROWS].tolist() for c in cols]
            fh.write(row * len(block[0]) % tuple(chain.from_iterable(zip(*block))))
    return path
