"""The package's public names: every export resolves, and none is stale."""

import dataclasses
import importlib

import combmemory

# a name is public when a subcommand, a README example or an oracle that a
# test of shipped code relies on uses it
PUBLIC = {
    "__version__",
    "CombMemoryError", "ConfigError", "DimensionError", "PhysicsError",
    "ProbeDesignError", "ResolutionError", "ResolutionWarning",
    "ModeBasis", "gram_schmidt", "unitary_mix",
    "CovarianceMatrix", "SqueezingSpectrum", "vacuum", "squeezed_vacuum",
    "apply_mode_unitary", "purity", "supermode_extraction", "gaussian_fidelity",
    "symplectic_form", "symplectic_embedding", "symplectic_eigenvalues",
    "MemoryParams", "PhysicalParams", "KernelResponse", "derive_gamma_s", "kernel",
    "efficiency", "covariance_map", "apply_cascade", "frequency_response",
    "pulse_capacity",
    "StoredProfile", "WriteRecord", "bessel_j0", "simpson_weights", "write_analytic",
    "pde_write", "energy_budget", "transfer_function_estimate", "expected_gain",
    "SupermodeReport", "db_to_zeta", "zeta_to_db", "overall_fidelity",
    "retrieval_table", "report_from_block",
    "epr", "cluster_linear4", "get_preset", "PRESET_NAMES",
}

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

    # report_from_block is the one block route into the closed forms; the
    # per-quantity wrappers and the impure-block fallback flag are gone
    for module in (combmemory, combmemory.metrics):
        for name in ("output_squeezing", "output_purity", "fidelity_supermode"):
            assert name not in module.__all__, name
            assert not hasattr(module, name), name
    fields = {f.name for f in dataclasses.fields(combmemory.SupermodeReport)}
    assert "oracle_fallback" not in fields


def test_package_exports_exactly_the_public_surface():
    assert set(combmemory.__all__) == PUBLIC

    # models that only their own tests called are gone
    for module in (combmemory, combmemory.channel, combmemory.gaussian):
        for name in ("apply_single", "squeezing_spectrum"):
            assert name not in module.__all__, (module.__name__, name)
            assert not hasattr(module, name), (module.__name__, name)

    # used only inside the package: module names, not exports
    for module, name in ((combmemory.dynamics, "tukey_window"),
                         (combmemory.modes, "DEFAULT_TOOTH_COUNT"),
                         (combmemory.gaussian, "blocked_indices")):
        assert hasattr(module, name), name
        assert name not in combmemory.__all__ and not hasattr(combmemory, name), name
        assert name not in module.__all__, name
