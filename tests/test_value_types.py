"""Array-holding value types: what they store, and how they compare."""

import numpy as np
import pytest

from combmemory import (
    CovarianceMatrix,
    FieldGrid,
    KernelResponse,
    ModeBasis,
    ModeVector,
    Projector,
    SqueezingSpectrum,
    StoredProfile,
)

# type -> fresh constructor arguments, already of the dtype the type stores
ARGUMENTS = {
    ModeVector: lambda: (np.array([0.6 + 0j, 0.8j]),),
    ModeBasis: lambda: (np.eye(2, dtype=complex),),
    Projector: lambda: (np.diag([1.0 + 0j, 0j]), 1),
    SqueezingSpectrum: lambda: (np.array([0.5, 0.25]),),
    CovarianceMatrix: lambda: (np.eye(2),),
    KernelResponse: lambda: (np.array([-1.0, 1.0]), np.array([0.9 + 0j, 0.9 + 0j]), 0.0),
    StoredProfile: lambda: (np.linspace(0.0, 1.0, 3), np.zeros(3, dtype=complex)),
    FieldGrid: lambda: (np.linspace(0.0, 1.0, 4), np.linspace(0.0, 1e-3, 5),
                        np.zeros((4, 5), dtype=complex), np.zeros((4, 5), dtype=complex)),
}
COPYING = [t for t in ARGUMENTS if t is not FieldGrid]


@pytest.mark.parametrize("cls", COPYING, ids=lambda t: t.__name__)
def test_stores_read_only_copy(cls):
    args = ARGUMENTS[cls]()
    value = cls(*args)
    stored = [v for v in vars(value).values() if isinstance(v, np.ndarray)]
    assert stored and all(not s.flags.writeable for s in stored)
    for arr in (a for a in args if isinstance(a, np.ndarray)):
        assert arr.flags.writeable
        arr.flat[0] = arr.flat[0]  # the caller's array stays the caller's
        assert not any(np.shares_memory(arr, s) for s in stored)


def test_field_grid_stores_without_copy():
    z, t, a, b = ARGUMENTS[FieldGrid]()
    grid = FieldGrid(z, t, a, b)
    assert grid.a is a and grid.b is b
    assert not a.flags.writeable


@pytest.mark.parametrize("cls", list(ARGUMENTS), ids=lambda t: t.__name__)
def test_equality_is_identity_and_hash_works(cls):
    x, y = cls(*ARGUMENTS[cls]()), cls(*ARGUMENTS[cls]())
    assert x == x and x != y
    assert hash(x) == hash(x)
    assert len({x, y}) == 2
