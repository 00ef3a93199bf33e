"""Covariance-matrix simulator for Raman storage of squeezed frequency combs.

The package models a multimode atomic Raman memory as a Gaussian channel on
comb supermodes: the write/read cycle acts on quadrature covariances as
C -> (1 - k2) I + k2 C with k2 = |K_0|^2 = (1 - e^{-d})^2 set by the optical
depth.  Alongside the channel algebra it carries the space-time dynamics
(closed-form Bessel kernels and a marching PDE integrator) so the covariance
picture can be validated end to end, plus retrieval metrics and a small
experiment CLI.
"""

from .errors import (
    CombMemoryError,
    ConfigError,
    DimensionError,
    PhysicsError,
    ProbeDesignError,
    ResolutionError,
    ResolutionWarning,
)
from .modes import (
    DEFAULT_TOOTH_COUNT,
    ModeBasis,
    gram_schmidt,
    unitary_mix,
)
from .gaussian import (
    CovarianceMatrix,
    SqueezingSpectrum,
    apply_mode_unitary,
    gaussian_fidelity,
    purity,
    squeezed_vacuum,
    squeezing_spectrum,
    supermode_extraction,
    symplectic_eigenvalues,
    symplectic_embedding,
    symplectic_form,
    vacuum,
)
from .channel import (
    KernelResponse,
    MemoryParams,
    PhysicalParams,
    apply_cascade,
    apply_single,
    covariance_map,
    derive_gamma_s,
    efficiency,
    frequency_response,
    kernel,
    pulse_capacity,
)
from .dynamics import (
    StoredProfile,
    WriteRecord,
    bessel_j0,
    energy_budget,
    expected_gain,
    pde_write,
    simpson_weights,
    transfer_function_estimate,
    tukey_window,
    write_analytic,
)
from .metrics import (
    SupermodeReport,
    db_to_zeta,
    fidelity_supermode,
    output_purity,
    output_squeezing,
    overall_fidelity,
    report_from_block,
    retrieval_table,
    zeta_to_db,
)
from .presets import PRESET_NAMES, cluster_linear4, epr, get_preset

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "CombMemoryError", "ConfigError", "DimensionError", "PhysicsError",
    "ProbeDesignError", "ResolutionError", "ResolutionWarning",
    # modes
    "DEFAULT_TOOTH_COUNT", "ModeBasis", "gram_schmidt", "unitary_mix",
    # gaussian
    "CovarianceMatrix", "SqueezingSpectrum", "vacuum", "squeezed_vacuum",
    "apply_mode_unitary", "purity", "squeezing_spectrum",
    "supermode_extraction", "gaussian_fidelity", "symplectic_form",
    "symplectic_embedding", "symplectic_eigenvalues",
    # channel
    "MemoryParams", "PhysicalParams", "KernelResponse", "derive_gamma_s",
    "kernel", "efficiency", "covariance_map", "apply_single", "apply_cascade",
    "frequency_response", "pulse_capacity",
    # dynamics
    "StoredProfile", "WriteRecord", "bessel_j0", "simpson_weights",
    "tukey_window", "write_analytic", "pde_write", "energy_budget",
    "transfer_function_estimate", "expected_gain",
    # metrics
    "SupermodeReport", "db_to_zeta", "zeta_to_db", "output_squeezing",
    "output_purity", "fidelity_supermode", "overall_fidelity",
    "retrieval_table", "report_from_block",
    # presets
    "epr", "cluster_linear4", "get_preset", "PRESET_NAMES",
]
