"""Exact references for the multiple-comparison configurations, at n <= 3.

Tukey's comparisons of k means (Tukey 1953; Hochberg & Tamhane 1987,
*Multiple Comparison Procedures*) index the field by the N = k(k - 1) points
+-(e_i - e_j)/sqrt(2), which span the (k - 1)-dimensional complement of
(1, ..., 1), so n = k - 1.  Under ``FDist(k - 1, nu, scale=k - 1)`` the
field's maximum is the studentized range over sqrt(2):
P(c) = Pr(Q_{k,nu} >= c sqrt(2)), with ``ChiSquare(k - 1)`` for a known
variance (nu = inf).  ``scipy.stats.studentized_range`` evaluates it by
quadrature that shares nothing with the beta mixture or the direction rules.
Its sf is accurate in absolute terms only, so P is compared where P >= 1e-8.

Dunnett's many-to-one comparisons, and every equicorrelated set, give k
points at pairwise correlation rho >= 0 (Dunnett & Sobel 1955, Biometrika
42:258; Gupta 1963, Ann. Math. Statist. 34:792).  The Gaussian field is then
X_i = sqrt(rho) Z + sqrt(1 - rho) W_i, and given Z = z each X_i exceeds c with
probability p(z) = Phi-bar((c - sqrt(rho) z) / sqrt(1 - rho)).  At k = 3,
P_tube - P = int phi(z) [3 p - 1 + (1 - p)^3] dz = int phi(z) p^2 (3 - p) dz,
whose right-hand form has no cancellation, so Delta comes out exact in mpmath
far into the tail.
"""

import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.stats import studentized_range

from spheretail import ChiSquare, FDist, PointConfiguration
from spheretail.excursion import delta_exact, p_exact, solve_threshold

from conftest import equicorrelated

P_RTOL = 5e-8
THRESHOLD_RTOL = 1e-8
P_FLOOR = 1e-8  # below it the studentized range's sf has no relative accuracy
C_GRID = 0.5 * np.arange(1, 25)  # 0.5, 1, ..., 12
DELTA_RTOL = 1e-5


def tukey_configuration(k):
    """The points +-(e_i - e_j)/sqrt(2), i != j, through their correlations."""
    diffs = []
    for i, j in itertools.permutations(range(k), 2):
        u = np.zeros(k)
        u[i], u[j] = 1.0, -1.0
        diffs.append(u / math.sqrt(2.0))
    diffs = np.array(diffs)
    return PointConfiguration.from_correlation(diffs @ diffs.T)


def tukey_law(k, nu):
    return ChiSquare(k - 1) if math.isinf(nu) else FDist(k - 1, nu, scale=k - 1)


CASES = [(k, nu) for k in (3, 4) for nu in (5.0, 10.0, math.inf)]


@pytest.mark.parametrize("k, nu", CASES)
def test_exact_probability_is_the_studentized_range(k, nu):
    config, law = tukey_configuration(k), tukey_law(k, nu)
    assert (config.dim, config.n_points) == (k - 1, k * (k - 1))
    compared = 0
    for c in C_GRID:
        reference = studentized_range.sf(c * math.sqrt(2.0), k, nu)
        if reference >= P_FLOOR:
            assert p_exact(config, law, c) == pytest.approx(reference, rel=P_RTOL, abs=0.0), c
            compared += 1
    assert compared >= 8


@pytest.mark.parametrize("k, nu", CASES)
@pytest.mark.parametrize("gamma", [0.1, 0.05, 0.01])
def test_exact_threshold_is_the_studentized_range_quantile(k, nu, gamma):
    reference = studentized_range.ppf(1.0 - gamma, k, nu) / math.sqrt(2.0)
    c = solve_threshold(tukey_configuration(k), tukey_law(k, nu), gamma, "exact")
    assert c == pytest.approx(reference, rel=THRESHOLD_RTOL, abs=0.0)


def equicorrelated_gaussian_delta(c, rho):
    """Exact Delta(c) of the Gaussian field on three points at correlation rho,
    from P_tube - P = int phi(z) p(z)^2 (3 - p(z)) dz at 50 digits.

    The integrand peaks at z0 = 2 sqrt(rho) c / (1 + rho) with width
    s = sqrt((1 - rho) / (1 + rho)); the breakpoints sit at z0 + j s.  mpmath's
    quad stops on an absolute error, so the integrand is divided by its peak
    value, without which the 1e-81 integral at c = 15 comes out 4e-10 off.
    """
    with mp.workdps(50):
        c, rho = mp.mpf(c), mp.mpf(rho)
        shift, spread = mp.sqrt(rho), mp.sqrt(2 * (1 - rho))

        def gap_density(z):
            p = mp.erfc((c - shift * z) / spread) / 2
            return mp.npdf(z) * p**2 * (3 - p)

        z0 = 2 * shift * c / (1 + rho)
        width = mp.sqrt((1 - rho) / (1 + rho))
        peak = gap_density(z0)
        breaks = [-mp.inf] + [z0 + j * width for j in (-8, -4, -2, -1, 0, 1, 2, 4, 8)] + [mp.inf]
        gap = peak * mp.quad(lambda z: gap_density(z) / peak, breaks)
        return float(gap / (3 * mp.erfc(c / mp.sqrt(2)) / 2))


@pytest.mark.parametrize("c", [3.0, 5.0, 8.0, 10.0, 15.0])
def test_equicorrelated_gaussian_delta_is_exact(c):
    # the benchmark's configuration: three points at correlation 1/4
    config = PointConfiguration.from_correlation(equicorrelated(3, 0.25))
    reference = equicorrelated_gaussian_delta(c, 0.25)
    assert delta_exact(config, ChiSquare(3.0), c) == pytest.approx(
        reference, rel=DELTA_RTOL, abs=0.0)
