"""Array-holding value types: what they store, and how they compare."""

import numpy as np
import pytest

from combmemory import (
    CovarianceMatrix,
    KernelResponse,
    ModeBasis,
    SqueezingSpectrum,
    StoredProfile,
    WriteRecord,
)

# type -> fresh constructor arguments, already of the dtype the type stores
ARGUMENTS = {
    ModeBasis: lambda: (np.eye(2, dtype=complex),),
    SqueezingSpectrum: lambda: (np.array([0.5, 0.25]),),
    CovarianceMatrix: lambda: (np.eye(2),),
    KernelResponse: lambda: (np.array([-1.0, 1.0]), np.array([0.9 + 0j, 0.9 + 0j]), 0.0),
    StoredProfile: lambda: (np.linspace(0.0, 1.0, 3), np.zeros(3, dtype=complex)),
    WriteRecord: lambda: (StoredProfile(np.linspace(0.0, 1.0, 3), np.zeros(3, dtype=complex)),
                          np.linspace(0.0, 1e-3, 4), np.zeros(4, dtype=complex),
                          np.ones(4, dtype=complex), np.zeros(3)),
}


@pytest.mark.parametrize("cls", list(ARGUMENTS), ids=lambda t: t.__name__)
def test_stores_read_only_copy(cls):
    args = ARGUMENTS[cls]()
    value = cls(*args)
    stored = [v for v in vars(value).values() if isinstance(v, np.ndarray)]
    assert stored and all(not s.flags.writeable for s in stored)
    for arr in (a for a in args if isinstance(a, np.ndarray)):
        assert arr.flags.writeable
        arr.flat[0] = arr.flat[0]  # the caller's array stays the caller's
        assert not any(np.shares_memory(arr, s) for s in stored)


@pytest.mark.parametrize("cls", list(ARGUMENTS), ids=lambda t: t.__name__)
def test_equality_is_identity_and_hash_works(cls):
    x, y = cls(*ARGUMENTS[cls]()), cls(*ARGUMENTS[cls]())
    assert x == x and x != y
    assert hash(x) == hash(x)
    assert len({x, y}) == 2
