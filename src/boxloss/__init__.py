"""Bounding-box localization losses with analytic gradients and experiment tooling.

Provides axis-aligned box geometry, four localization losses (Huber,
squared, IoU, and the dynamically blended smooth IoU), exact gradients with
a finite-difference verification harness, one-dimensional loss-profile
sweeps, and a synthetic gradient-descent fitting harness. The same
functionality is exposed through the ``boxloss`` command line tool.
"""

from . import boxes, fitting, gradients, losses, profiles
from .boxes import *  # noqa: F403
from .fitting import *  # noqa: F403
from .gradients import *  # noqa: F403
from .losses import *  # noqa: F403
from .profiles import *  # noqa: F403

__version__ = "0.2.0"

# Each module's __all__ is the one list of its public names.
__all__ = [
    *boxes.__all__,
    *losses.__all__,
    *gradients.__all__,
    *profiles.__all__,
    *fitting.__all__,
    "__version__",
]
