import math
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import qmc

from spheretail import Bessel, ChiSquare, FDist, LogNormal, PointConfiguration
from spheretail import geometry

# the directory the package under test was imported from: <repo>/src under
# tier-1, site-packages when the tests run against an installed copy.  Every
# interpreter a test spawns gets it as PYTHONPATH, so it runs the same copy.
SRC = str(Path(geometry.__file__).resolve().parents[1])


def equicorrelated(n_points, rho):
    corr = np.full((n_points, n_points), rho)
    np.fill_diagonal(corr, 1.0)
    return corr


def random_config(n, n_points, seed):
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n_points, n))
    return PointConfiguration.from_points(points / np.linalg.norm(points, axis=1, keepdims=True))


@lru_cache(maxsize=None)
def sobol_gaussians(dim):
    """The fixed-seed scrambled Sobol sample of Gaussian vectors, drawn afresh."""
    sobol = qmc.Sobol(d=dim, scramble=True, seed=geometry._QMC_SEED)
    return ndtri(sobol.random_base2(geometry.QMC_LOG2_POINTS))


def psi_angle_oracle(config, i):
    """pi/2 minus the local angle at every direction of the rule at point i,
    built without the geometry's kernel.

    For n > 3 the scrambled Sobol sample is drawn afresh, each row projected
    onto the normal sphere and normalised explicitly; the cotangent rule
    then runs neighbour by neighbour on the unit normal directions.
    """
    u = config.points[i]
    if config.dim > 3:
        z = sobol_gaussians(config.dim)
        z = z - np.outer(z @ u, u)
        z /= np.linalg.norm(z, axis=1, keepdims=True)
    else:
        z = config.normal_directions(i)
    cot = np.zeros(z.shape[0])
    for j in range(config.n_points):
        if j != i:
            v = config.points[j]
            cot = np.maximum(cot, (z @ v) / (1.0 - float(u @ v)))
    return np.arctan(cot)


@pytest.fixture(scope="session")
def benchmark_config():
    """Three points at pairwise correlation 1/4 in three dimensions."""
    return PointConfiguration.from_correlation(equicorrelated(3, 0.25))


@pytest.fixture(scope="session")
def pair_config():
    """Two points at correlation 1/4 (ambient dimension 2)."""
    return PointConfiguration.from_correlation(equicorrelated(2, 0.25))


@pytest.fixture(scope="session")
def t_law():
    return FDist(3.0, 3.0)


@pytest.fixture(scope="session")
def gauss_law():
    return ChiSquare(3.0)


@pytest.fixture(scope="session")
def lognormal_law():
    return LogNormal(scale=3.0 * math.exp(-0.5))


@pytest.fixture(scope="session")
def bessel_law():
    return Bessel(3.0, 4.0, scale=0.25)
