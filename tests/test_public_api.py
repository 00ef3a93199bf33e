"""The package's public names: every export resolves, and none is stale."""

import importlib

import combmemory

MODULES = ["combmemory", "combmemory.modes", "combmemory.gaussian", "combmemory.channel",
           "combmemory.dynamics", "combmemory.metrics", "combmemory.presets",
           "combmemory.config"]


def test_exports_resolve_and_none_is_stale():
    for name in MODULES:
        module = importlib.import_module(name)
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], name
        assert len(set(module.__all__)) == len(module.__all__), name

    namespace = {}
    exec("from combmemory import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(combmemory.__all__)

    # mode vectors are rows of a basis array; the per-vector type is gone
    for module in (combmemory, combmemory.modes):
        assert "ModeVector" not in module.__all__
        assert not hasattr(module, "ModeVector")
    assert not hasattr(combmemory.ModeBasis, "to_json")
    assert not hasattr(combmemory.ModeBasis, "from_json")
