"""Excursion probabilities of spherically contoured random fields on
finite subsets of the unit sphere: tube/Bonferroni approximation, exact
probabilities, relative-error asymptotics and bounds, and a seeded Monte
Carlo harness.

Each module's ``__all__`` is the only list of its public names; the package
re-exports them all, except those of the internal ``special_functions``,
whose ``integrate`` would shadow ``scipy.integrate`` under a star-import."""

from . import excursion, geometry, montecarlo, radial_laws
from .excursion import *
from .geometry import *
from .montecarlo import *
from .radial_laws import *

__version__ = "0.1.0"

__all__ = [
    *excursion.__all__,
    *geometry.__all__,
    *montecarlo.__all__,
    *radial_laws.__all__,
    "__version__",
]
