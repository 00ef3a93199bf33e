import csv
import io

import numpy as np
import pytest

from combmemory.tables import BLOCK_ROWS, write_csv


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
