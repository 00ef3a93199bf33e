"""Covariance-matrix simulator for Raman storage of squeezed frequency combs.

The package models a multimode atomic Raman memory as a Gaussian channel on
comb supermodes: the write/read cycle acts on quadrature covariances as
C -> (1 - k2) I + k2 C with k2 = |K_0|^2 = (1 - e^{-d})^2 set by the optical
depth.  Alongside the channel algebra it carries the space-time dynamics
(closed-form Bessel kernels and a marching PDE integrator) so the covariance
picture can be validated end to end, plus retrieval metrics and a small
experiment CLI.

Each module's ``__all__`` is the one list of its public names; the package
re-exports them all.
"""

from . import errors, modes, gaussian, channel, dynamics, metrics, presets
from .errors import *  # noqa: F401,F403
from .modes import *  # noqa: F401,F403
from .gaussian import *  # noqa: F401,F403
from .channel import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .presets import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__", *errors.__all__, *modes.__all__, *gaussian.__all__, *channel.__all__,
    *dynamics.__all__, *metrics.__all__, *presets.__all__,
]
