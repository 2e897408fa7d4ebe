"""Excursion probabilities of spherically contoured random fields on
finite subsets of the unit sphere: tube/Bonferroni approximation, exact
probabilities, relative-error asymptotics and bounds, and a seeded Monte
Carlo harness."""

from .excursion import (
    ExcursionReport,
    build_report,
    d_k_asymptotic,
    d_k_quadrature,
    delta_bar,
    delta_exact,
    delta_rv_limit,
    log_delta_asymptotic,
    marginal_tail,
    p_bounds,
    p_exact,
    p_tube,
    solve_threshold,
    tail_dependence,
)
from .geometry import PointConfiguration
from .montecarlo import SimulationResult, estimate_delta, sample_tmax, simulate_pmax
from .radial_laws import (
    Bessel,
    Chi,
    ChiSquare,
    FDist,
    LogNormal,
    RadialLaw,
    TailClass,
    UnsupportedLawError,
    g_beta,
    law_from_dict,
)
from .special_functions import QuadratureError, find_root, integrate

__version__ = "0.1.0"

__all__ = [
    "ExcursionReport",
    "PointConfiguration",
    "SimulationResult",
    "RadialLaw",
    "ChiSquare",
    "Chi",
    "FDist",
    "LogNormal",
    "Bessel",
    "TailClass",
    "UnsupportedLawError",
    "QuadratureError",
    "build_report",
    "d_k_asymptotic",
    "d_k_quadrature",
    "delta_bar",
    "delta_exact",
    "delta_rv_limit",
    "estimate_delta",
    "find_root",
    "g_beta",
    "integrate",
    "law_from_dict",
    "log_delta_asymptotic",
    "marginal_tail",
    "p_bounds",
    "p_exact",
    "p_tube",
    "sample_tmax",
    "simulate_pmax",
    "solve_threshold",
    "tail_dependence",
    "__version__",
]
