"""Exact references for Tukey's all-pairs comparisons, at n <= 3.

Tukey's comparisons of k means (Tukey 1953; Hochberg & Tamhane 1987,
*Multiple Comparison Procedures*) index the field by the N = k(k - 1) points
+-(e_i - e_j)/sqrt(2), which span the (k - 1)-dimensional complement of
(1, ..., 1), so n = k - 1.  Under ``FDist(k - 1, nu, scale=k - 1)`` the
field's maximum is the studentized range over sqrt(2):
P(c) = Pr(Q_{k,nu} >= c sqrt(2)), with ``ChiSquare(k - 1)`` for a known
variance (nu = inf).  ``scipy.stats.studentized_range`` evaluates it by
quadrature that shares nothing with the beta mixture or the direction rules.
Its sf is accurate in absolute terms only, so P is compared where P >= 1e-8.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.stats import studentized_range

from spheretail import ChiSquare, FDist, PointConfiguration
from spheretail.excursion import p_exact, solve_threshold

P_RTOL = 5e-8
THRESHOLD_RTOL = 1e-8
P_FLOOR = 1e-8  # below it the studentized range's sf has no relative accuracy
C_GRID = 0.5 * np.arange(1, 25)  # 0.5, 1, ..., 12


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
