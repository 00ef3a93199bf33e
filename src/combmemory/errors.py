"""Exception and warning types shared across the package.

The CLI maps these onto process exit codes: configuration problems exit 2,
physics/precondition violations exit 3, resolution or convergence failures
exit 4.
"""

__all__ = [
    "CombMemoryError",
    "ConfigError",
    "PhysicsError",
    "DimensionError",
    "ProbeDesignError",
    "ResolutionError",
    "ResolutionWarning",
]


class CombMemoryError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(CombMemoryError, ValueError):
    """Malformed or inconsistent configuration input."""


class PhysicsError(CombMemoryError, ValueError):
    """Violated physical precondition or out-of-domain parameter."""


class DimensionError(PhysicsError):
    """Mismatched shapes, tooth ranges, or unsupported dimensions."""


class ProbeDesignError(PhysicsError):
    """Probe window cannot deliver the requested measurement accuracy."""


class ResolutionError(CombMemoryError, RuntimeError):
    """Grid or quadrature resolution insufficient for the requested tolerance."""


class ResolutionWarning(UserWarning):
    """Resolution is marginal; results may be degraded but were produced."""
