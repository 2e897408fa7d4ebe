"""Invariance properties at n <= 3, each checked on 200 generated cases.

The properties need no reference value: rotating or permuting the points,
rescaling the law, raising c, and embedding a planar Gaussian field in R^3
must leave P_tube, P and Delta as they were, or move them as the
definitions say.  A case takes its law from the four ``reproduce`` presets
and its threshold log-uniformly from that preset's grid range.  Its
configuration is 1 to 4 Gaussian directions on S^1 or S^2, drawn from a
generated seed and redrawn until no two lie closer than ``MIN_SEPARATION``.

The budget is fixed and derandomized, so the module is as deterministic as
the rest of the suite.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spheretail import (
    ChiSquare, PointConfiguration, build_report, delta_exact, p_exact, solve_threshold,
)
from spheretail.cli import REPRODUCE_CASES
from spheretail.geometry import RHO_TIE_TOL

PROPERTY = settings(max_examples=200, derandomize=True, database=None, deadline=None)

CASES = sorted(REPRODUCE_CASES)

# Closest pair of a configuration, in radians.  The cotangent rule divides by
# 1 - rho_ij, which magnifies the rounding of the points by up to
# 1 / (1 - cos(1/8)) = 128 here.  The n = 3 circle rule's error grows as a
# pair closes, since the local angle turns over a width about the pair's
# separation; from this separation on it stays below 3.2e-12 of Delta
# (test_gaussian_embedding_of_a_close_pair shows a closer pair).
MIN_SEPARATION = 0.125

# P and Delta of configurations that differ by rounding alone (a rotated or
# reordered copy), and of a law rescaled with its threshold: the same rules
# on inputs that differ by rounding, and sums taken in another order
ROUNDING_REL = 1e-12

# solve_threshold stops once c moves by at most 1e-10 c, so two solves of the
# same root agree to twice that
THRESHOLD_REL = 2e-10

# The R^2 -> R^3 embedding trades the n = 2 rule (two exact directions) for
# the n = 3 rule (4096 trapezoidal nodes on the normal circle) and the
# Beta(1/2, 1/2) mixture for the Beta(1/2, 1) one.  Measured over 1000
# configurations of 1 to 5 points on S^1 at c in [0.5, 6] under chi^2(2) and
# chi^2(3), and over pairs at every separation from 1/8 to pi:
# |Delta_3 - Delta_2| <= 1.12e-10, |P_3 / P_2 - 1| <= 1.2e-10 and
# |P_tube,3 / P_tube,2 - 1| <= 2.72e-13, each growing with c to its largest
# near c = 6.  The circle rule (4096 against 65536 nodes) is at most 3.2e-12
# of the gap in Delta; the rest is the two mixtures' PCHIP interpolants.
EMBED_DELTA_ABS = 1.5e-10
EMBED_P_REL = 1.5e-10
EMBED_TUBE_REL = 3e-13


def separated_points(rng, dim, n_points):
    """``n_points`` Gaussian directions in R^dim, redrawn until no two lie
    closer than ``MIN_SEPARATION``."""
    while True:
        points = rng.standard_normal((n_points, dim))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        gram = points @ points.T - 3.0 * np.eye(n_points)
        if np.max(gram) <= math.cos(MIN_SEPARATION):
            return points


@st.composite
def point_sets(draw, dims=(2, 3), min_points=1):
    """A configuration's points and the generator that drew them."""
    dim = draw(st.sampled_from(dims))
    n_points = draw(st.integers(min_points, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**64 - 1)))
    return separated_points(rng, dim, n_points), rng


def thresholds(case, count=1):
    """``count`` thresholds, log-uniform on the grid range of a preset."""
    start, stop, _ = REPRODUCE_CASES[case]["grid"]
    log_c = st.floats(math.log(start), math.log(stop))
    return st.lists(log_c, min_size=count, max_size=count).map(lambda logs: np.exp(logs).tolist())


@st.composite
def law_and_thresholds(draw, count=1):
    """A preset law and ``count`` thresholds from its grid range."""
    case = draw(st.sampled_from(CASES))
    return REPRODUCE_CASES[case]["law"], draw(thresholds(case, count))


def evaluate(config, law, c):
    """P_tube, P and Delta as a report row reads them: from one mixture."""
    row = build_report(config, law, c)
    return row.p_tube, row.p_exact, row.delta_exact


def assert_same(actual, expected, rel):
    for value, reference in zip(actual, expected):
        assert value == pytest.approx(reference, rel=rel, abs=0.0)


def has_tied_neighbour(config):
    """Whether some point has two nearest neighbours within the tie tolerance."""
    rho = np.sort(config.correlation - 3.0 * np.eye(config.n_points), axis=1)
    return config.n_points > 2 and bool(np.any(rho[:, -1] - rho[:, -2] <= RHO_TIE_TOL))


@PROPERTY
@given(point_sets(), law_and_thresholds(), st.randoms(use_true_random=False))
def test_rotation_and_point_permutation(point_set, law_c, random):
    # both properties against one evaluation of the drawn configuration
    points, rng = point_set
    law, (c,) = law_c
    config = PointConfiguration.from_points(points)
    # a tie would let the reordering move the n = 3 circle's anchor
    assume(not has_tied_neighbour(config))
    expected = evaluate(config, law, c)
    q, r = np.linalg.qr(rng.standard_normal((config.dim, config.dim)))
    q *= np.sign(np.diag(r))  # Haar-distributed, reflections included
    rotated = PointConfiguration.from_points(points @ q.T)
    assert_same(evaluate(rotated, law, c), expected, ROUNDING_REL)
    order = random.sample(range(config.n_points), config.n_points)
    shuffled = PointConfiguration.from_points(points[order])
    assert_same(evaluate(shuffled, law, c), expected, ROUNDING_REL)


# The scale acts on the radial law alone, so the scale property takes its
# configuration from a fixed pool (the benchmark's three points at
# correlation 1/4, a pair in the plane, a scalene triple) and its target from
# fixed levels, and solves each unscaled threshold once
SCALE_POOL = [
    PointConfiguration.from_correlation([[1.0, 0.25, 0.25], [0.25, 1.0, 0.25], [0.25, 0.25, 1.0]]),
    PointConfiguration.from_points([[1.0, 0.0], [0.25, math.sqrt(1.0 - 0.0625)]]),
    PointConfiguration.from_points([[1.0, 0.0, 0.0], [0.5, math.sqrt(0.75), 0.0],
                                    [0.3, 0.0, math.sqrt(0.91)]]),
]
TARGETS = [1e-1, 1e-3, 1e-6]


@functools.lru_cache(maxsize=None)
def unscaled_threshold(pool_index, case, target, method):
    law = REPRODUCE_CASES[case]["law"]
    return solve_threshold(SCALE_POOL[pool_index], law, target, method)


@PROPERTY
@given(st.integers(0, len(SCALE_POOL) - 1), st.sampled_from(CASES), st.data(),
       st.floats(math.log(1e-6), math.log(1e6)), st.sampled_from(TARGETS),
       st.sampled_from(["tube", "exact"]))
def test_scale(pool_index, case, data, log_s, target, method):
    # a law of scale s is the law of s R^2, so the field scales by sqrt(s);
    # each case solves by one method, for the budget's sake
    config, law = SCALE_POOL[pool_index], REPRODUCE_CASES[case]["law"]
    (c,) = data.draw(thresholds(case))
    s = math.exp(log_s)
    scaled = dataclasses.replace(law, scale=law.scale * s)
    assert_same(evaluate(config, scaled, c * math.sqrt(s)), evaluate(config, law, c), ROUNDING_REL)
    assert solve_threshold(config, scaled, target, method) == pytest.approx(
        unscaled_threshold(pool_index, case, target, method) * math.sqrt(s),
        rel=THRESHOLD_REL, abs=0.0,
    )


@PROPERTY
@given(point_sets(), law_and_thresholds(count=2))
def test_order(point_set, law_c):
    # Delta >= 0 is left out: see test_delta_of_a_nearly_antipodal_pair
    points, _ = point_set
    config = PointConfiguration.from_points(points)
    law, drawn = law_c
    low, high = (evaluate(config, law, c) for c in sorted(drawn))
    for tube, exact, delta in (low, high):
        assert tube >= exact > 0.0
        assert delta <= 1.0
    assert low[0] >= high[0] and low[1] >= high[1]


@pytest.mark.xfail(strict=True, reason=(
    "the cumulative Simpson mixture dips below 0 where the integrand rises "
    "by hundreds of orders of magnitude within one piece: Delta reads -2.4e-128"))
def test_delta_of_a_nearly_antipodal_pair():
    pair = PointConfiguration.from_points([[1.0, 0.0], [math.cos(3.1), math.sin(3.1)]])
    assert delta_exact(pair, ChiSquare(3.0), 0.5) >= 0.0


@PROPERTY
@given(point_sets(dims=(2,)), thresholds("gauss"))
def test_gaussian_embedding(point_set, cs):
    # the Gaussian field of points in R^2 under chi^2(2) is that of the same
    # points in the plane x_3 = 0 of R^3 under chi^2(3)
    points, _ = point_set
    (c,) = cs
    planar = PointConfiguration.from_points(points)
    padded = PointConfiguration.from_points(np.column_stack([points, np.zeros(len(points))]))
    tube_2, exact_2, delta_2 = evaluate(planar, ChiSquare(2.0), c)
    tube_3, exact_3, delta_3 = evaluate(padded, ChiSquare(3.0), c)
    assert tube_3 == pytest.approx(tube_2, rel=EMBED_TUBE_REL, abs=0.0)
    assert exact_3 == pytest.approx(exact_2, rel=EMBED_P_REL, abs=0.0)
    assert delta_3 == pytest.approx(delta_2, rel=0.0, abs=EMBED_DELTA_ABS)


@pytest.mark.xfail(strict=True, reason=(
    "the n = 3 circle rule's 4096 nodes do not resolve the local angle's turn "
    "at a pair 1e-3 rad apart: P is off by 1.6e-4 relative at c = 0.5"))
def test_gaussian_embedding_of_a_close_pair():
    points = np.array([[1.0, 0.0], [math.cos(1e-3), math.sin(1e-3)]])
    planar = PointConfiguration.from_points(points)
    padded = PointConfiguration.from_points(np.column_stack([points, np.zeros(2)]))
    assert p_exact(padded, ChiSquare(3.0), 0.5) == pytest.approx(
        p_exact(planar, ChiSquare(2.0), 0.5), rel=EMBED_P_REL, abs=0.0)
