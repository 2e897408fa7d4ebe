"""Tube/Bonferroni approximation and exact excursion probabilities.

For a finite index set M = {u_1, ..., u_N} on the unit sphere and a field
driven by a spherically contoured vector xi with squared radius R, the
module computes:

* the Bonferroni (tube) approximation  P_tube(c) = N Pr(<u_1, xi> >= c),
* the exact excursion probability      P(c) = Pr(max_i <u_i, xi> >= c),
* the relative error Delta(c) = (P_tube - P) / P_tube, its asymptotic
  predictions for both tail regimes, rigorous bounds in the regularly
  varying regime, threshold solving, and the upper tail dependence
  coefficient for pairs.

All computations reduce to one-dimensional beta-mixture integrals through
the decomposition of (R_k, R_n - R_k) into R_n times an independent
Beta(k/2, (n-k)/2) variable.  For each (law, n, c) one cumulative mixture
is built by Simpson's rule on a fixed grid of 4097 cosine-spaced nodes in
psi = arcsin(sqrt(y)), dense at both ends of [0, pi/2] where the tail
varies fastest for small and for large c.  Its total is the marginal, so
P_tube, P and Delta all come from the same mixture: P_tube - P is the sum
of the per-point overlap corrections, each the mixture's monotone (PCHIP)
interpolant averaged over the point's normal directions, and Delta is
that sum divided by P_tube, never a difference of two separately computed
probabilities.  The tail-ratio mixture D_k(theta, c) takes the same rule
with the grid mapped onto [0, pi/2 - theta].  What a build shares across
laws and thresholds is computed once per (n, k, psi_hi) into a cached,
read-only plan, the only code that knows the grid: the nodes, sin^2 psi,
the Beta weight, scipy's unequal-interval Simpson coefficients and the
piece widths.  A build is then one call of the law's tail, two strided
Simpson expressions, a cumulative sum and the spline pieces, in the
operation order of scipy's ``cumulative_simpson``, ``PchipInterpolator``
and ``CubicHermiteSpline``, so it equals them to the bit.  Averages over
normal directions use the fixed equal-weight rule of
``PointConfiguration.normal_directions``, so all results are
deterministic.  Each direction enters at its local angle theta through
the psi-grid coordinate pi/2 - theta, an arctan2 that the geometry's one
local-angle kernel returns; for n > 3 the kernel reads the shared Sobol
rows unprojected.  The corrections enter only through their sum over
the points, which is linear in the interpolant's cubic pieces: power
moments of the offsets within each piece of every direction of every point
are pooled once per configuration (and kept for the last four
configurations; one set holds 128 KiB, or 224 KiB at n > 3, whatever N),
and the sum is then one dot product with the piece coefficients.  The spline
is transient: a row's three numbers (P_tube, P_tube - P, standard error)
are kept per (configuration, law, c), for the last four, and the marginal
reads only the cumulative's total.  A configuration keys these caches by
its points (shape and bits, see ``PointConfiguration``), so every
configuration with equal points, whichever file, preset or matrix built
it, reads the moments, limits and rows that the first one built.
Thresholds are solved on log P(c) by steps steered by the radial law's
scalar tail, so that a solve builds few mixtures.

Everything here is pure and thread-safe; grid sweeps may run concurrently.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .radial_laws import UnsupportedLawError, _as_integer, _as_real, _special, g_beta
from .special_functions import find_root

__all__ = [
    "ExcursionReport",
    "marginal_tail",
    "p_tube",
    "p_exact",
    "delta_exact",
    "delta_rv_limit",
    "delta_bar",
    "p_bounds",
    "d_k_quadrature",
    "d_k_asymptotic",
    "log_delta_asymptotic",
    "solve_threshold",
    "tail_dependence",
    "build_report",
]

PSI_NODES = 4097        # cosine-spaced Simpson nodes for the cumulative beta-mixture


# ----------------------------------------------------------------------
# beta-mixture integrals
# ----------------------------------------------------------------------

def _beta_density(psi, p, q):
    """Beta(p, q) density transported to y = sin^2(psi), singularities absorbed."""
    weight = 2.0 * np.sin(psi) ** (2.0 * p - 1.0) * np.cos(psi) ** (2.0 * q - 1.0)
    return weight / _special().beta(p, q)


def _simpson_rule(x21, x32):
    """scipy's unequal-interval Simpson coefficients (x21/6, coeff1, coeff2,
    coeff3) of the piece of width x21 whose neighbour has width x32, in
    ``cumulative_simpson``'s operation order."""
    x21_x31 = x21 / (x21 + x32)
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    return x21 / 6, 3 - x21_x31, 3 + x21x21_x31x32 + x21_x31, -x21x21_x31x32


class _Plan(NamedTuple):
    """What a build on the psi grid of [0, psi_hi] shares across laws and c."""

    psi: np.ndarray        # cosine-spaced nodes, dense at both ends
    y: np.ndarray          # sin^2 psi at every node
    weight: np.ndarray     # the Beta(k/2, (n-k)/2) density in psi
    forward: tuple         # ``_simpson_rule`` on pieces 0, 2, 4, ... (forward rule)
    backward: tuple        # ``_simpson_rule`` on pieces 1, 3, 5, ... (backward rule)
    h: np.ndarray          # piece widths


@lru_cache(maxsize=32)
def _plan(n, k, psi_hi):
    """The read-only ``_Plan`` of Beta(k/2, (n-k)/2) on ``PSI_NODES``
    cosine-spaced nodes of [0, psi_hi], dense at both ends."""
    psi = psi_hi / 2.0 * (1.0 - np.cos(np.linspace(0.0, math.pi, PSI_NODES)))
    h = np.diff(psi)
    plan = _Plan(
        psi, np.sin(psi) ** 2, _beta_density(psi, k / 2.0, (n - k) / 2.0),
        _simpson_rule(h[0::2], h[1::2]), _simpson_rule(h[1::2], h[0::2]), h,
    )
    for field in plan:
        for array in field if isinstance(field, tuple) else [field]:
            array.flags.writeable = False
    return plan


def _psi_piece(plan, x):
    """Index j of the piece [psi_j, psi_{j+1}) of ``plan``'s grid that holds
    each x in [0, psi_hi]; the last piece also holds psi_hi.

    Inverts the cosine map of ``_plan`` with the plan's own end node and node
    count, then moves the estimate by at most one piece either way against
    the nodes themselves, so the result is exact; a binary search is several
    times slower on unsorted x.
    """
    psi = plan.psi
    last = psi.size - 2
    estimate = np.arccos(1.0 - x * (2.0 / psi[-1])) * ((psi.size - 1) / math.pi)
    j = np.minimum(estimate.astype(np.intp), last)
    j -= psi[j] > x
    j += psi[j + 1] <= x
    return np.minimum(j, last)


def _cumulative_mixture(law, plan, c):
    """At each node psi of ``plan``, the cumulative
    ``int_0^{sin^2 psi} tail(c^2 / y) dBeta_{k/2,(n-k)/2}(y)`` by scipy's
    ``cumulative_simpson`` rule, to the bit: each odd piece takes the rule
    run backward from its right end, as scipy's flip-and-interleave does."""
    # tail(c^2 / y) as y -> 0: 0, faster than any power, unless c^2 underflows
    # to 0 and the tail is tail(0) = 1 at every y
    values = np.empty_like(plan.y)
    values[0] = 1.0 if c * c == 0.0 else 0.0
    values[1:] = law.tail(c * c / plan.y[1:])
    f = plan.weight * values
    f1, f2, f3 = f[:-2:2], f[1::2], f[2::2]
    pieces = np.empty_like(plan.h)
    a0, a1, a2, a3 = plan.forward
    pieces[0::2] = a0 * (a1 * f1 + a2 * f2 + a3 * f3)
    b0, b1, b2, b3 = plan.backward
    pieces[1::2] = b0 * (b1 * f3 + b2 * f2 + b3 * f1)
    cum = np.empty_like(plan.y)
    cum[0] = 0.0
    np.cumsum(pieces, out=cum[1:])
    return cum


def _pchip_end(h0, h1, m0, m1):
    """PCHIP's one-sided three-point slope at an end, kept shape-preserving."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_slopes(plan, y):
    """``PchipInterpolator``'s node slopes of y on the grid of ``plan``: the
    Fritsch-Butland (1984) weighted harmonic mean of the adjacent secants,
    0 where they differ in sign or one is 0."""
    h = plan.h
    m = (y[1:] - y[:-1]) / h
    sign = np.sign(m)
    flat = (sign[1:] != sign[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    mean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    slopes = np.empty_like(plan.psi)
    slopes[1:-1] = np.where(flat, 0.0, 1.0 / mean)
    slopes[0] = _pchip_end(h[0], h[1], m[0], m[1])
    slopes[-1] = _pchip_end(h[-1], h[-2], m[-1], m[-2])
    return slopes


def _hermite_pieces(plan, y, dydx):
    """Coefficients of the cubic Hermite interpolant of values y and slopes
    dydx on the grid of ``plan``, as ``CubicHermiteSpline`` computes them, in
    ascending powers of psi - psi_j, power-major to match ``_profile_moments``."""
    h = plan.h
    slope = (y[1:] - y[:-1]) / h
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / h
    coef = np.empty((4, h.size))
    coef[0] = y[:-1]
    coef[1] = dydx[:-1]
    coef[2] = (slope - dydx[:-1]) / h - t
    coef[3] = t / h
    return coef.ravel()


def _pchip_pieces(plan, cum):
    """``_hermite_pieces`` of the monotone (PCHIP) interpolant of a cumulative
    mixture on the grid of ``plan``, as ``PchipInterpolator`` forms them."""
    # flat stretches of cum divide by zero secants; PCHIP gives them slope 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _hermite_pieces(plan, cum, _pchip_slopes(plan, cum))


def marginal_tail(law, n, c):
    """Marginal exceedance probability Pr(<u, xi> >= c) of one coordinate.

    Uses the beta-mixture representation Pr(R_1 >= c^2) / 2 for ``c > 0``,
    1/2 at ``c = 0``, and the symmetry Pr >= c = 1 - Pr >= -c for ``c < 0``.
    The dimension ``n`` is read by ``_as_integer`` and must be at least 2;
    the threshold is read by ``_as_real``, and NaN is refused.
    """
    n = _as_integer("ambient dimension", n)
    if n < 2:
        raise ValueError("ambient dimension must be at least 2")
    c = _as_real("threshold", c)
    if math.isnan(c):
        raise ValueError("threshold must not be NaN")
    if c == 0.0:
        return 0.5
    if c < 0.0:
        return 1.0 - marginal_tail(law, n, -c)
    return 0.5 * float(_cumulative_mixture(law, _plan(n, 1, math.pi / 2.0), c)[-1])


# ----------------------------------------------------------------------
# normal-direction moments
# ----------------------------------------------------------------------

@lru_cache(maxsize=4)
def _profile_moments(config):
    """Power moments of the local angles over ``config.normal_directions``.

    Each direction's local angle theta enters at x = pi/2 - theta, its
    coordinate on the psi grid, as the geometry's kernel returns it: the
    arctan2 of the largest cotangent numerator and the direction's normal
    norm, computed for n > 3 from the raw shared Sobol rows.  x lies in
    piece j of the psi grid, at offset s = x - psi_j.  Any cubic spline on
    that grid then sums over every direction of every point as the sum of
    ``pooled[:4].ravel() * coef`` (coefficients from ``_hermite_pieces``), and
    for n > 3 its square does so through ``pooled[:7]``.  The moments are one
    measure per configuration, the same size for every N; a mixture's spline
    is read once through them and dropped, and they are kept.

    Returns ``(pooled, size)``: the (degree + 1, pieces) sums of s^k over
    every direction of every point, and the number of directions per point.
    """
    plan = _plan(config.dim, 1, math.pi / 2.0)
    pieces = plan.h.size
    degree = 6 if config.dim > 3 else 3  # s^4..s^6 serve only the n > 3 se
    pooled = np.zeros((degree + 1, pieces))
    for i in range(config.n_points):
        x = config._rule_psi_angles(i)
        j = _psi_piece(plan, x)
        s = x - plan.psi[j]
        power = np.ones_like(s)
        for k in range(degree + 1):
            pooled[k] += np.bincount(j, weights=power, minlength=pieces)
            power *= s
    return pooled, x.size


# ----------------------------------------------------------------------
# probabilities and relative error
# ----------------------------------------------------------------------

def _positive_threshold(c):
    """A threshold c > 0 as a float, read by the package's real-number rule."""
    c = _as_real("threshold", c)
    if not c > 0.0:
        raise ValueError("threshold must be positive")
    return c


def _threshold_grid(c_grid):
    """A nonempty 1-d grid, each entry by ``_positive_threshold``, strictly increasing."""
    if np.ndim(c_grid) != 1 or len(c_grid) == 0:
        raise ValueError("c_grid must be a nonempty 1-d array")
    grid = np.array([_positive_threshold(c) for c in c_grid])
    if not np.all(np.diff(grid) > 0.0):
        raise ValueError("c_grid must be strictly increasing")
    return grid


def p_tube(config, law, c):
    """Bonferroni sum N Pr(<u_1, xi> >= c).

    Returned raw (it exceeds 1 for small c); reports cap it separately for
    display while the raw value feeds every relative-error computation.
    """
    c = _positive_threshold(c)
    return config.n_points * marginal_tail(law, config.dim, c)


@lru_cache(maxsize=4)
def _evaluation(config, law, c):
    """P_tube, the correction sum P_tube - P, and its standard error at c
    as ``_positive_threshold`` read it (so ``True`` never meets a cached 1.0).

    Everything comes from the one mixture of (law, n, c): its total gives
    the tube sum, and its interpolant's pieces, applied to the pooled
    direction moments, give the sum of the per-point overlap corrections
    (half the mixture mass below each direction's cos^2 local angle,
    averaged over the point's directions).  For n > 3 the standard error
    is the iid error of that sum over all (point, direction) pairs,
    sqrt(N var / m) with var the variance over the N m pairs and m the
    directions per point; it is zero on the deterministic n <= 3 paths.
    """
    plan = _plan(config.dim, 1, math.pi / 2.0)
    cum = _cumulative_mixture(law, plan, c)
    tube = config.n_points * (0.5 * float(cum[-1]))
    coef = _pchip_pieces(plan, cum)
    pooled, size = _profile_moments(config)
    # numpy's pairwise sum, not a BLAS dot: OpenBLAS splits a dot of this
    # length across its threads, and the bits would follow the thread count
    corrections = 0.5 * float(np.sum(pooled[:4].ravel() * coef)) / size
    if config.dim <= 3:
        return tube, corrections, 0.0
    # sum of squares of the interpolant over every direction, from the
    # ascending coefficients of its square (degree 6) on each piece
    coef = coef.reshape(4, -1)
    square = np.zeros((7, coef.shape[1]))
    for k in range(4):
        square[k:k + 4] += coef[k] * coef
    second_moment = 0.25 * float(np.sum(square * pooled)) / size
    var = max(second_moment - corrections**2 / config.n_points, 0.0) / size
    return tube, corrections, math.sqrt(var)


def _check_tube(tube, c):
    """Refuse a P_tube that underflows to 0, where the relative error is undefined."""
    if tube <= 0.0:
        raise FloatingPointError(
            f"P_tube underflows to 0 at c={c:.6g}; the relative error is undefined"
        )


def _relative_error(tube, corrections, c):
    _check_tube(tube, c)
    return corrections / tube


def p_exact(config, law, c, with_se=False):
    """Exact excursion probability Pr(max_i <u_i, xi> >= c) for c > 0.

    Decomposes the maximum over the points into disjoint nearest-point
    events and evaluates each through the beta-mixture integral, averaging
    over normal directions.  When ``with_se`` is true, also returns the
    Monte Carlo standard error of the direction average, the iid error over
    all (point, direction) pairs for n > 3 and zero on the deterministic
    n <= 3 paths.
    """
    tube, corrections, se = _evaluation(config, law, _positive_threshold(c))
    value = tube - corrections
    return (value, se) if with_se else value


def delta_exact(config, law, c):
    """Relative error (P_tube - P) / P_tube of the Bonferroni approximation.

    Raises ``FloatingPointError`` when P_tube underflows to 0.
    """
    c = _positive_threshold(c)
    tube, corrections, _ = _evaluation(config, law, c)
    return _relative_error(tube, corrections, c)


def _tail_index(gamma):
    """The tail index gamma as a float by ``_as_real``, finite and positive."""
    gamma = _as_real("tail index", gamma)
    if not 0.0 < gamma < math.inf:
        raise UnsupportedLawError(
            f"the limiting error and its bound require a finite positive index, got {gamma}")
    return gamma


def delta_rv_limit(config, gamma):
    """Limit of Delta(c) for a regularly varying radial law with index gamma.

    Averages the Beta(gamma + 1/2, (n-1)/2) distribution function of the
    squared cosine of the local angle over the normal directions of every
    point.  The distribution function enters as its cubic Hermite
    interpolant on the psi grid, with the exact density as slope, averaged
    through the direction moments.  Zero for a single point.  Built once per
    (config, gamma), as the evaluations are per (config, law, c); gamma is
    read by ``_tail_index``.
    """
    return _rv_limit(config, _tail_index(gamma))


@lru_cache(maxsize=4)
def _rv_limit(config, gamma):
    p, q = gamma + 0.5, (config.dim - 1) / 2.0
    plan = _plan(config.dim, 1, math.pi / 2.0)
    cdf = _hermite_pieces(
        plan, _special().betainc(p, q, plan.y), _beta_density(plan.psi, p, q)
    )
    pooled, size = _profile_moments(config)
    mean = float(np.sum(pooled[:4].ravel() * cdf)) / (size * config.n_points)
    # the cubic dips below 0 on the first piece by amounts far below any
    # nonzero average, so only an average that vanishes can come out negative
    return max(mean, 0.0)


def delta_bar(config, gamma):
    """Upper bound Pr(B < cos^2 theta*) on the limiting relative error.

    ``B`` is Beta(gamma + 1/2, (n-1)/2) distributed; the bound depends on
    the configuration only through ``config.cos_sq_theta_star``, read
    directly to avoid the rounding of the trigonometric round trip.  gamma
    is read by ``_tail_index``.
    """
    p, q = _tail_index(gamma) + 0.5, (config.dim - 1) / 2.0
    return float(_special().betainc(p, q, config.cos_sq_theta_star))


def p_bounds(config, law, c):
    """Asymptotic sandwich ((1 - bound) P_tube, P_tube) for the exact probability.

    Valid for large c in the regularly varying regime; reports flag rows
    where the lower bound has not yet become valid.
    """
    desc = law.class_descriptor()
    if not desc.regularly_varying:
        raise UnsupportedLawError(
            f"{law.family} is not regularly varying; "
            "the limiting relative error is defined for regularly varying laws only"
        )
    tube = p_tube(config, law, c)
    return (1.0 - delta_bar(config, desc.gamma)) * tube, tube


# ----------------------------------------------------------------------
# mixture ratios and their asymptotics
# ----------------------------------------------------------------------

def _check_d_k_args(n, k, theta, c):
    """(n, k) as ints by ``_as_integer`` and (theta, c) as floats; refuses what
    neither D_k function defines, NaN included."""
    n, k = _as_integer("ambient dimension", n), _as_integer("order k", k)
    theta, c = _as_real("theta", theta), _positive_threshold(c)
    if not 1 <= k <= n - 1:
        raise ValueError("k must satisfy 1 <= k <= n - 1")
    if not 0.0 <= theta <= math.pi / 2.0 + 1e-12:
        raise ValueError("theta must lie in [0, pi/2]")
    return n, k, theta, c


def d_k_quadrature(law, n, k, theta, c):
    """Tail-ratio beta-mixture D_k(theta, c) by the Simpson rule of the marginal.

    Computes ``int_0^{cos^2 theta} [tail(c^2/y) / tail(c^2)] dBeta_{k/2,(n-k)/2}``,
    the exact finite-threshold counterpart of the asymptotic branches, with
    the grid mapped onto psi in [0, pi/2 - theta]; +0.0 for theta >= pi/2,
    where the range is empty.  Raises ``FloatingPointError`` when tail(c^2)
    underflows to 0 at theta < pi/2.
    """
    n, k, theta, c = _check_d_k_args(n, k, theta, c)
    if theta >= math.pi / 2.0:
        return 0.0
    denom = float(law.tail(c * c))
    if denom <= 0.0:
        raise FloatingPointError("tail underflow at the threshold; ratio undefined")
    cum = _cumulative_mixture(law, _plan(n, k, math.pi / 2.0 - theta), c)
    return float(cum[-1]) / denom


def _laplace_rate(law, desc, c):
    """Laplace rate b = c_adj^(2 (1 - beta)) ell0(h), h = c_adj^2, c_adj = c / sqrt(scale);
    the one gate of the expansions: refuses h < 1 and b not positive (NaN included)."""
    c_adj = c / math.sqrt(law.scale)
    h = c_adj**2
    b = c_adj ** (2.0 * (1.0 - desc.beta)) * desc.ell0(h)
    if h < 1.0 or not b > 0.0:
        raise ValueError("threshold too small for the asymptotic expansion")
    return b


def d_k_asymptotic(law, n, k, theta, c):
    """Asymptotic value of D_k(theta, c) in the law's tail regime.

    Regularly varying laws give a c-free beta probability; otherwise the
    Laplace-type expansion applies, with the boundary case theta = 0
    handled by its own power-of-b formula.  Both take b from the gate
    ``_laplace_rate``, which refuses a threshold below the expansion's
    range.  +0.0 for theta >= pi/2, where the range is empty.  D_k is a
    tail ratio, at most 1.  The beta probability never exceeds 1, but the
    two expansions do just above the gate (1/(2b) = 2.62 for the log-normal
    law at theta = 0, c = 1.1), so their values are capped at 1.0.
    """
    n, k, theta, c = _check_d_k_args(n, k, theta, c)
    if theta >= math.pi / 2.0:
        return 0.0
    desc = law.class_descriptor()
    p, q = k / 2.0, (n - k) / 2.0
    cos_sq = math.cos(theta) ** 2
    if desc.regularly_varying:
        gamma = desc.gamma
        a_gk = math.exp(
            _special().betaln(gamma + p, q) - _special().betaln(p, q)
        )
        return a_gk * float(_special().betainc(gamma + p, q, cos_sq))
    b = _laplace_rate(law, desc, c)
    if theta == 0.0:
        return min(float(math.gamma(q) / (_special().beta(p, q) * b**q)), 1.0)
    return min(float(
        math.cos(theta) ** (k - 2.0 * desc.beta + 2.0)
        * math.sin(theta) ** (n - k - 2.0)
        * math.exp(-b * g_beta(desc.beta, cos_sq) - law.r_beta(cos_sq))
        / (_special().beta(p, q) * b)
    ), 1.0)


def log_delta_asymptotic(config, law, c):
    """Log of the predicted relative error in the tail-valid regime.

    Evaluates the Laplace expansion around the closest pair, using the
    law's closed-form slowly varying correction and the configuration's
    critical radius, multiplicity and point count.  Only defined for laws
    that are not regularly varying; regularly varying laws have a
    nonvanishing limit, see ``delta_rv_limit``.  ``_laplace_rate`` gates
    the threshold, as for ``d_k_asymptotic``.
    """
    desc = law.class_descriptor()
    if desc.regularly_varying:
        raise UnsupportedLawError(
            "relative error does not vanish for regularly varying laws; "
            "use delta_rv_limit instead"
        )
    if config.n_points < 2:
        raise ValueError("the prediction requires at least two points")
    c = _positive_threshold(c)
    n = config.dim
    theta = config.theta_star
    cos_sq = math.cos(theta) ** 2
    b = _laplace_rate(law, desc, c)
    return float(
        -b * g_beta(desc.beta, cos_sq)
        - 0.5 * math.log(b)
        - law.r_beta(cos_sq)
        + n * (1.0 - desc.beta) * math.log(math.cos(theta))
        - math.log(2.0 * math.sqrt(math.pi) * math.tan(theta))
        + math.log(config.multiplicity / config.n_points)
    )


# ----------------------------------------------------------------------
# threshold solving and tail dependence
# ----------------------------------------------------------------------

# Ends of the threshold search.  c^2 underflows to 0 at _C_LO, so P there is
# its limit as c -> 0+, at least 1/2 for both methods; c^2 stays finite up to
# _C_HI.
_C_LO = math.ulp(0.0)
_C_HI = 2.0**200


def solve_threshold(config, law, target, method="tube"):
    """Threshold c with P(c) equal to ``target`` for the chosen probability.

    ``method`` selects the Bonferroni sum (``"tube"``, raw, uncapped) or the
    exact probability (``"exact"``).  Every evaluation of P builds a beta
    mixture, so the radial law's own tail steers the search.  In t = log c,
    log P = G + Q with the scalar G(t) = log tail(e^(2t)) and the slowly
    varying Q = log(P / tail(c^2)); G is evaluated once per distinct
    argument c^2 of a solve, however often Brent and the steps return to it.
    Each step solves G + Q_hat = log(target) for the next point, with Q_hat
    equal to log(N/2) first (P <= (N/2) tail(c^2), so that point lies above
    the root), then the last Q, then the secant line through the last two Q.
    A bisection in c replaces a step whose root leaves the bracket set by
    the signs of the evaluated P, or that is not below half the step before
    last.  The search returns the root of the secant through the last two
    log P, kept inside the bracket, once it moves c by at most
    tol = 1e-10 c, or once the curvature through the last three puts it
    within tol / 100 of the root.  The search covers
    c from ulp(0) to 2^200 (``_C_LO``, ``_C_HI``): P at its lower end is the
    limit P(0+) and is evaluated only for a target outside (0, 1/2); P at
    c = 2^200 is evaluated only when the tail bound cannot place the root
    below it, and a target below it is refused as "failed to bracket the
    threshold" (P(2^200) is 1.3e-181 for F(3, 3) at three points of
    correlation 1/4).  Raises ``FloatingPointError`` when P underflows to 0
    at a point of the search.
    """
    target = _as_real("target", target)
    if method == "tube":
        prob = p_tube
    elif method == "exact":
        prob = p_exact
    else:
        raise ValueError("method must be 'tube' or 'exact'")

    guide_at = {}  # G per argument x = c^2: Brent re-reads its ends and last point

    def guide(t):
        x = math.exp(2.0 * t)
        if x not in guide_at:
            guide_at[x] = math.log(max(law.tail(x), math.ulp(0.0)))
        return guide_at[x]

    if not 0.0 < target < 0.5:
        p_lo = prob(config, law, _C_LO)
        if not 0.0 < target < min(1.0, p_lo):
            raise ValueError(
                f"target {target} is not attainable (must lie in (0, {min(1.0, p_lo):.6g}))"
            )
    lo, hi = math.log(_C_LO), math.log(_C_HI)  # bracket in t = log c
    q_first = math.log(config.n_points / 2.0)
    log_target = math.log(target)
    if guide(hi) + q_first > log_target and prob(config, law, _C_HI) > target:
        raise ValueError("failed to bracket the threshold")
    points = []                                 # (t, log(P / target), Q) per evaluation
    while True:
        t_b, q_b, slope = 0.0, q_first, 0.0
        if points:
            t_b, f_b, q_b = points[-1]
        if len(points) >= 2:
            t_a, f_a, q_a = points[-2]
            slope = (q_b - q_a) / (t_b - t_a)
            secant = (f_b - f_a) / (t_b - t_a)
            t_sec = t_b - f_b / secant if secant != 0.0 else 0.5 * (lo + hi)
            c = math.exp(min(max(t_sec, lo), hi))
            tol = 1e-10 * c
            if abs(c - math.exp(t_b)) <= tol:
                return c
            if len(points) >= 3 and secant != 0.0 and lo <= t_sec <= hi:
                # error of the secant root from the curvature of the last three
                t_0, f_0, _ = points[-3]
                curvature = (secant - (f_a - f_0) / (t_a - t_0)) / (t_b - t_0)
                if c * abs(curvature * (t_sec - t_a) * (t_sec - t_b) / secant) <= 0.01 * tol:
                    return c

        def model(t):
            return guide(t) + q_b + slope * (t - t_b) - log_target

        t = find_root(model, lo, hi) if model(lo) > 0.0 > model(hi) else lo
        stalled = len(points) >= 3 and abs(math.exp(t) - math.exp(t_b)) > 0.5 * abs(
            math.exp(points[-2][0]) - math.exp(points[-3][0])
        )
        if not lo < t < hi or stalled:
            t = math.log(0.5 * (math.exp(lo) + math.exp(hi)))
        value = prob(config, law, math.exp(t))
        if value <= 0.0:
            raise FloatingPointError(
                f"P underflows to 0 at c={math.exp(t):.6g} while solving for target {target}"
            )
        f = math.log(value) - log_target
        if f == 0.0:
            return math.exp(t)
        points.append((t, f, math.log(value) - guide(t)))
        if f > 0.0:
            lo = t
        else:
            hi = t


def tail_dependence(config, law):
    """Upper tail dependence coefficient of the pair (T_1, T_2).

    Equals twice the limiting relative error for a regularly varying
    radial law and zero otherwise (tail-validity is equivalent to upper
    tail independence).
    """
    if config.n_points != 2:
        raise ValueError("tail dependence is defined for configurations of two points")
    desc = law.class_descriptor()
    if desc.regularly_varying:
        return 2.0 * delta_rv_limit(config, desc.gamma)
    return 0.0


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ExcursionReport:
    """Per-threshold record of probabilities, error, predictions and bounds."""

    c: float
    p_tube: float            # raw Bonferroni sum (may exceed 1)
    p_tube_capped: float
    p_exact: float
    p_lower: float           # RV regime only, else nan
    delta_exact: float
    delta_prediction: float  # limit value (RV) or exp of the log prediction
    delta_bar: float         # RV regime only, else nan
    branch: str              # "RV" or "SUBEXP"
    flags: str


def build_report(config, law, c):
    """Evaluate every analytic quantity at one threshold.

    Raises ``FloatingPointError`` when P_tube underflows to 0.
    """
    c = _positive_threshold(c)
    tube, corrections, _ = _evaluation(config, law, c)
    exact = tube - corrections
    delta = _relative_error(tube, corrections, c)
    flags = []
    desc = law.class_descriptor()
    if desc.regularly_varying:
        branch = "RV"
        prediction = delta_rv_limit(config, desc.gamma)
        bound = delta_bar(config, desc.gamma)
        lower = (1.0 - bound) * tube
        if lower > exact:
            flags.append("pre_asymptotic")
    else:
        branch = "SUBEXP"
        bound = math.nan
        lower = math.nan
        try:
            prediction = math.exp(log_delta_asymptotic(config, law, c))
        except ValueError:
            prediction = math.nan
            flags.append("pred_unavailable")
        else:
            # the expansion has not taken hold: no relative error reaches 1,
            # and below a Laplace rate of 1 its O(1/b) remainder is not small
            if prediction >= 1.0 or _laplace_rate(law, desc, c) < 1.0:
                flags.append("pre_asymptotic")
    return ExcursionReport(
        c=c,
        p_tube=tube,
        p_tube_capped=min(1.0, tube),
        p_exact=exact,
        p_lower=lower,
        delta_exact=delta,
        delta_prediction=prediction,
        delta_bar=bound,
        branch=branch,
        flags=",".join(flags),
    )
