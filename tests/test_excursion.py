import collections
import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, quad
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator
from scipy.optimize import brentq
from scipy.special import beta as beta_function
from scipy.special import betainc, erfc, ndtr

from spheretail import excursion, geometry
from spheretail import (
    Bessel,
    Chi,
    ChiSquare,
    FDist,
    LogNormal,
    PointConfiguration,
    UnsupportedLawError,
    build_report,
    d_k_asymptotic,
    d_k_quadrature,
    delta_bar,
    delta_exact,
    delta_rv_limit,
    estimate_delta,
    log_delta_asymptotic,
    marginal_tail,
    p_bounds,
    p_exact,
    p_tube,
    simulate_pmax,
    solve_threshold,
    tail_dependence,
)
from spheretail import cli
from spheretail.cli import REPRODUCE_CASES

from conftest import equicorrelated, psi_angle_oracle, random_config
from test_cli import PINNED_SOLVES


# one law per family; all but Chi(3) are the laws of the reproduce cases
MIXTURE_LAWS = [
    ChiSquare(3.0),
    Chi(3.0),
    FDist(3.0, 3.0),
    LogNormal(scale=3.0 * math.exp(-0.5)),
    Bessel(3.0, 4.0, scale=0.25),
]


def student_t_tail(x, nu):
    """Student-t upper tail through the incomplete beta function."""
    if x < 0.0:
        return 1.0 - student_t_tail(-x, nu)
    return 0.5 * betainc(nu / 2.0, 0.5, nu / (nu + x * x))


@pytest.fixture(scope="module")
def single_point():
    return PointConfiguration.from_points([[1.0, 0.0, 0.0]])


@pytest.fixture(scope="module")
def orthogonal_pair():
    return PointConfiguration.from_points([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


class TestMarginalTail:
    def test_gaussian_radial_is_normal_tail(self, gauss_law):
        for c in (0.5, 1.0, 2.0, 4.0):
            assert marginal_tail(gauss_law, 3, c) == pytest.approx(
                1.0 - ndtr(c), abs=1e-10
            )

    def test_zero_threshold(self, t_law):
        assert marginal_tail(t_law, 3, 0.0) == 0.5

    def test_negative_threshold_symmetry(self, t_law):
        assert marginal_tail(t_law, 3, -2.0) == pytest.approx(
            1.0 - marginal_tail(t_law, 3, 2.0), abs=1e-12
        )

    def test_f_radial_is_student_tail(self, t_law):
        for c in (0.5, 2.0, 5.0):
            assert marginal_tail(t_law, 3, c) == pytest.approx(
                student_t_tail(math.sqrt(3.0) * c, 3.0), abs=1e-9
            )

    def test_dimension_below_two_is_refused(self, gauss_law):
        with pytest.raises(ValueError, match="ambient dimension must be at least 2"):
            marginal_tail(gauss_law, 1, 2.0)

    def test_nan_threshold_is_refused(self, t_law):
        # once "tail argument must be nonnegative (and not NaN)" from the law
        with pytest.raises(ValueError, match="^threshold must not be NaN$"):
            marginal_tail(t_law, 3, math.nan)

    def test_f_radial_dimension_two(self):
        law = FDist(2.0, 3.0)
        for c in (0.5, 2.0):
            assert marginal_tail(law, 2, c) == pytest.approx(
                student_t_tail(math.sqrt(2.0) * c, 3.0), abs=1e-9
            )


class TestPTube:
    def test_single_point_equals_marginal(self, single_point, gauss_law):
        assert p_tube(single_point, gauss_law, 2.0) == pytest.approx(
            marginal_tail(gauss_law, 3, 2.0), rel=1e-12
        )

    def test_benchmark_t_value(self, benchmark_config, t_law):
        expected = 3.0 * student_t_tail(3.0 * math.sqrt(3.0), 3.0)
        assert p_tube(benchmark_config, t_law, 3.0) == pytest.approx(expected, rel=1e-8)

    def test_raw_value_approaches_half_of_count(self, benchmark_config, t_law):
        assert p_tube(benchmark_config, t_law, 1e-9) == pytest.approx(1.5, abs=1e-6)

    def test_requires_positive_threshold(self, benchmark_config, t_law):
        with pytest.raises(ValueError):
            p_tube(benchmark_config, t_law, 0.0)

    @pytest.mark.parametrize("function", [p_tube, p_exact, delta_exact, build_report],
                             ids=lambda function: function.__name__)
    def test_nan_threshold_is_refused(self, benchmark_config, t_law, function):
        # once "tail argument must be nonnegative (and not NaN)" from the law
        with pytest.raises(ValueError, match="^threshold must be positive$"):
            function(benchmark_config, t_law, math.nan)

    @pytest.mark.parametrize("n", [2, 3, 30])
    def test_single_point_limit_at_zero_is_half(self, gauss_law, n):
        # c^2 underflows to 0 at c = ulp(0): tail(c^2 / y) is tail(0) = 1 at
        # every node, y = 0 included, so the mixture is the whole beta mass
        point = PointConfiguration.from_points([np.eye(n)[0]])
        c = math.ulp(0.0)
        assert p_tube(point, gauss_law, c) == pytest.approx(0.5, rel=0.0, abs=1e-12)
        assert p_exact(point, gauss_law, c) == pytest.approx(0.5, rel=0.0, abs=1e-12)

    def test_gaussian_deep_tail_matches_normal_tail(self, benchmark_config, gauss_law):
        for c in (10.0, 20.0):
            expected = 1.5 * erfc(c / math.sqrt(2.0))
            assert p_tube(benchmark_config, gauss_law, c) == pytest.approx(expected, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("case", [*REPRODUCE_CASES, "chi_square", "f"])
    def test_equals_the_report_row_to_the_bit(self, benchmark_config, case):
        # approx, tube solves and estimate_delta read P_tube from p_tube, one
        # mixture total; rows read it from _evaluation, which also forms the
        # spline pieces: both must give the same bits
        if case in REPRODUCE_CASES:
            config, law = benchmark_config, REPRODUCE_CASES[case]["law"]
            grid = cli._build_grid(*REPRODUCE_CASES[case]["grid"])
        else:
            config = random_config(10, 50, 7)
            law = ChiSquare(10.0) if case == "chi_square" else FDist(10.0, 3.0)
            grid = [1.0, 2.0, 4.0, 8.0]
        rows = [build_report(config, law, c).p_tube for c in grid]
        assert [p_tube(config, law, c) for c in grid] == rows


class TestPExact:
    def test_single_point_equals_marginal(self, single_point, t_law):
        assert p_exact(single_point, t_law, 2.0) == pytest.approx(
            marginal_tail(t_law, 3, 2.0), rel=1e-12
        )

    def test_orthogonal_gaussian_independence(self, orthogonal_pair, gauss_law):
        for c in (1.0, 2.0, 3.0):
            p = 1.0 - ndtr(c)
            assert p_exact(orthogonal_pair, gauss_law, c) == pytest.approx(
                2.0 * p - p * p, rel=1e-8
            )

    def test_benchmark_t_matches_simulation(self, benchmark_config, t_law):
        grid = np.arange(1.0, 8.01, 1.0)
        sim = simulate_pmax(benchmark_config, t_law, grid, 10**4, seed=3)
        for j, c in enumerate(grid):
            exact = p_exact(benchmark_config, t_law, c)
            assert abs(sim.estimates[j] - exact) <= 3.0 * sim.standard_errors[j]

    def test_conservative_and_monotone(self, benchmark_config):
        for law in (FDist(3.0, 3.0), ChiSquare(3.0), Bessel(3.0, 4.0, scale=0.25)):
            grid = np.arange(0.5, 6.01, 0.5)
            exact = [p_exact(benchmark_config, law, c) for c in grid]
            tube = [p_tube(benchmark_config, law, c) for c in grid]
            marg = [marginal_tail(law, 3, c) for c in grid]
            for e, t, m in zip(exact, tube, marg):
                assert 0.0 <= e <= t
                assert e >= m
            assert all(a > b for a, b in zip(exact, exact[1:]))
            assert all(a > b for a, b in zip(tube, tube[1:]))

    def test_with_se_reports_zero_for_deterministic_paths(self, benchmark_config, t_law):
        value, se = p_exact(benchmark_config, t_law, 2.0, with_se=True)
        assert se == 0.0
        assert value == pytest.approx(p_exact(benchmark_config, t_law, 2.0))

    def test_evaluation_cache_stays_small(self, benchmark_config):
        # a mixture's PCHIP pieces (4 x 4096 coefficients, 128 KiB) are dropped
        # after each evaluation; a process that evaluates many distinct
        # thresholds keeps three numbers for each of the last four
        law = ChiSquare(3.0)
        p_exact(benchmark_config, law, 0.5)  # the plan and the direction moments
        tracemalloc.start()
        try:
            for c in np.linspace(1.0, 8.0, 600):
                p_exact(benchmark_config, law, float(c))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 64 * 2**10

    def test_one_build_per_row(self, benchmark_config):
        # a row reads P, its standard error and Delta at one c: one mixture build
        law = counting_law(ChiSquare(3.0))
        build_report(benchmark_config, law, 2.5)
        delta_exact(benchmark_config, law, 2.5)
        p_exact(benchmark_config, law, 2.5, with_se=True)
        assert type(law).builds == 1

    def test_tube_sums_form_no_pchip_pieces(self, benchmark_config, monkeypatch):
        def refuse(plan, y):
            raise AssertionError("PCHIP slopes formed for a tube sum")

        monkeypatch.setattr(excursion, "_pchip_slopes", refuse)
        law = ChiSquare(3.0)
        assert marginal_tail(law, 3, 2.0) > 0.0
        assert p_tube(benchmark_config, law, 2.0) > 0.0
        assert solve_threshold(benchmark_config, law, 1e-3, method="tube") > 0.0

    def test_dimension_two_enumeration_path(self):
        # orthogonal pair in the plane with a gaussian radial: independent
        # standard normal coordinates
        config = PointConfiguration.from_correlation(np.eye(2))
        law = ChiSquare(2.0)
        for c in (0.5, 1.5, 3.0):
            p = 1.0 - ndtr(c)
            assert p_exact(config, law, c) == pytest.approx(2.0 * p - p * p, rel=1e-8)

    def test_dimension_four_sampling_path(self):
        config = PointConfiguration.from_correlation(np.eye(4))
        law = ChiSquare(4.0)
        for c in (1.0, 2.0):
            p = 1.0 - ndtr(c)
            oracle = 1.0 - (1.0 - p) ** 4
            value, se = p_exact(config, law, c, with_se=True)
            assert se > 0.0
            assert abs(value - oracle) <= max(4.0 * se, 1e-5)

    def test_sobol_direction_rule_is_frozen(self):
        # pins the n > 3 direction rule (seed, sample size, projection) to
        # the last bit; any change to it moves these values
        config = PointConfiguration.from_points(
            [
                [1.0, 0.0, 0.0, 0.0, 0.0],
                [0.6, 0.8, 0.0, 0.0, 0.0],
                [0.0, 0.6, 0.8, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.6, 0.8],
            ]
        )
        value, se = p_exact(config, ChiSquare(5.0), 2.0, with_se=True)
        assert value == float.fromhex("0x1.48b226dc51835p-4")  # 0.08024802379540648
        assert se == float.fromhex("0x1.2fa8bb1cf84f5p-14")  # 7.239797237403366e-05


class TestDeltaExact:
    def test_single_point_is_zero(self, single_point, t_law):
        assert delta_exact(single_point, t_law, 2.0) == 0.0

    def test_orthogonal_gaussian_half_marginal(self, orthogonal_pair, gauss_law):
        for c in (1.0, 2.0):
            p = 1.0 - ndtr(c)
            assert delta_exact(orthogonal_pair, gauss_law, c) == pytest.approx(
                p / 2.0, rel=1e-7
            )

    def test_range(self, benchmark_config, t_law):
        for c in (0.5, 2.0, 6.0):
            d = delta_exact(benchmark_config, t_law, c)
            assert 0.0 <= d < 1.0

    def test_underflowing_tube_is_a_numerical_failure(self, benchmark_config, gauss_law):
        with pytest.raises(FloatingPointError, match="c=40"):
            delta_exact(benchmark_config, gauss_law, 40.0)


# configurations of every direction rule: n = 2 and 3 (anchored), n > 3 (Sobol),
# plus a single point and an antipodal pair
MOMENT_CONFIGS = [
    *(random_config(n, n_points, seed=n) for n, n_points in ((2, 3), (3, 4), (5, 6), (10, 8))),
    PointConfiguration.from_points([[1.0, 0.0, 0.0]]),
    PointConfiguration.from_points([[0.0, 0.0, 0.0, 0.0, 1.0]]),
    PointConfiguration.from_points([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
    PointConfiguration.from_points([[1.0, 0.0], [-1.0, 0.0]]),
]

# n > 3 points that differ only in how the direction rule meets them
EQUICORRELATED = PointConfiguration.from_correlation(equicorrelated(5, 0.3))


# the reproduce presets plus a light-tailed and a heavy-tailed law of higher degree
BIT_LAWS = [
    *(case["law"] for case in REPRODUCE_CASES.values()), ChiSquare(10.0), FDist(5.0, 3.0),
]


def scipy_cumulative(law, n, k, c, psi_hi):
    """The cumulative beta-mixture on the psi grid by scipy's ``cumulative_simpson``."""
    psi = excursion._plan(n, k, psi_hi).psi
    values = np.full(psi.size, 1.0 if c * c == 0.0 else 0.0)
    values[1:] = law.tail(c * c / np.sin(psi[1:]) ** 2)
    integrand = excursion._beta_density(psi, k / 2.0, (n - k) / 2.0) * values
    return psi, cumulative_simpson(integrand, x=psi, initial=0.0)


def scipy_pieces(spline):
    """A scipy spline's coefficients in ascending powers, power-major."""
    return spline.c[::-1].ravel()


def counting_law(preset):
    """``preset`` as an instance of a new subclass that counts its ``tail``
    calls: ``builds`` the array calls, one per mixture build, and
    ``arguments`` the scalar calls by argument."""
    base = type(preset)

    def tail(law, x):
        if np.ndim(x) == 0:
            type(law).arguments[float(x)] += 1
        else:
            type(law).builds += 1
        return base.tail(law, x)

    counting = type("Counting" + base.__name__, (base,), {
        "tail": tail, "builds": 0, "arguments": collections.Counter(),
    })
    return counting(**dataclasses.asdict(preset))


class TestScipyBitIdentity:
    """The plan-based builds give scipy's Simpson, PCHIP and Hermite results to the bit."""

    @pytest.mark.parametrize("law", BIT_LAWS, ids=lambda law: law.family)
    def test_mixture_is_cumulative_simpson_and_pchip(self, law):
        for n in (2, 3, 5, 10):
            # at c = 1e-300, c^2 underflows to 0 and every tail value is 1
            for c in (1e-300, 0.3, 1.0, 2.5, 6.0, 20.0):
                psi, cum = scipy_cumulative(law, n, 1, c, math.pi / 2.0)
                with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                    coef = scipy_pieces(PchipInterpolator(psi, cum))
                plan = excursion._plan(n, 1, math.pi / 2.0)
                built = excursion._cumulative_mixture(law, plan, c)
                assert np.array_equal(built, cum), (n, c)
                assert np.array_equal(excursion._pchip_pieces(plan, built), coef), (n, c)
                assert marginal_tail(law, n, c) == 0.5 * float(cum[-1]), (n, c)

    def test_vanishing_tails_give_a_flat_cumulative(self, gauss_law):
        # every Gaussian tail(1600 / y) is 0: a flat cumulative takes PCHIP's
        # zero-slope branch at every node, with no RuntimeWarning (an error here)
        plan = excursion._plan(3, 1, math.pi / 2.0)
        pieces = excursion._pchip_pieces(plan, excursion._cumulative_mixture(gauss_law, plan, 40.0))
        psi, cum = scipy_cumulative(gauss_law, 3, 1, 40.0, math.pi / 2.0)
        assert not cum.any()
        with np.errstate(divide="ignore", invalid="ignore"):
            coef = scipy_pieces(PchipInterpolator(psi, cum))
        assert np.array_equal(pieces, coef)
        assert marginal_tail(gauss_law, 3, 40.0) == 0.0 and not pieces.any()

    @pytest.mark.parametrize("law", BIT_LAWS, ids=lambda law: law.family)
    def test_d_k_quadrature_is_cumulative_simpson(self, law):
        for n, theta, c in itertools.product((3, 5), (0.0, 0.3, 1.2), (0.5, 2.0, 6.0)):
            for k in range(1, n):
                _, cum = scipy_cumulative(law, n, k, c, math.pi / 2.0 - theta)
                expected = float(cum[-1]) / float(law.tail(c * c))
                assert d_k_quadrature(law, n, k, theta, c) == expected, (n, k, theta, c)

    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_rv_limit_is_cubic_hermite_spline(self, n):
        config = random_config(n, 4, seed=40 + n)
        plan = excursion._plan(n, 1, math.pi / 2.0)
        pooled, size = excursion._profile_moments(config)
        for gamma in (0.5, 1.5, 5.0):
            p, q = gamma + 0.5, (n - 1) / 2.0
            psi = plan.psi
            values, slopes = betainc(p, q, np.sin(psi) ** 2), excursion._beta_density(psi, p, q)
            coef = scipy_pieces(CubicHermiteSpline(psi, values, slopes))
            assert np.array_equal(excursion._hermite_pieces(plan, values, slopes), coef)
            mean = float(np.sum(pooled[:4].ravel() * coef)) / (size * config.n_points)
            expected = max(mean, 0.0)
            assert excursion._rv_limit.__wrapped__(config, gamma) == expected

    def test_one_tail_call_per_build(self, single_point, gauss_law):
        for build in (
            lambda law: excursion._evaluation.__wrapped__(single_point, law, 2.0),
            lambda law: marginal_tail(law, 3, 2.0),
            lambda law: d_k_quadrature(law, 3, 1, 0.3, 2.0),
        ):
            law = counting_law(gauss_law)
            build(law)
            assert type(law).builds == 1
        # d_k_quadrature's divisor tail(c^2)
        assert type(law).arguments == {4.0: 1}

    def test_plan_arrays_are_read_only(self):
        full = excursion._plan(3, 1, math.pi / 2.0)
        partial = excursion._plan(3, 2, math.pi / 2.0 - 0.3)
        for plan in (full, partial):
            # every plan has every field: D_k's partial grids carry the Simpson
            # coefficients too
            arrays = [a for f in plan for a in (f if isinstance(f, tuple) else [f])]
            assert len(arrays) == 12
            for array in arrays:
                assert isinstance(array, np.ndarray) and array.dtype == np.float64
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1.0
            assert plan.psi.size == excursion.PSI_NODES
            assert np.array_equal(plan.h, np.diff(plan.psi))
        assert full.psi[0] == 0.0 and full.psi[-1] == math.pi / 2.0
        assert partial.psi[0] == 0.0 and partial.psi[-1] == math.pi / 2.0 - 0.3


def per_node_profiles(config):
    """Local angles on the psi grid (pi/2 - theta) at every node of the
    direction rule, point by point, from the projection oracle."""
    return [psi_angle_oracle(config, i) for i in range(config.n_points)]


class TestDirectionMoments:
    """The moment form of the direction averages against node-by-node evaluation."""

    def test_piece_index_matches_binary_search(self):
        # the inverse reads the plan's own end node, so partial grids invert too
        for psi_hi in (math.pi / 2.0, math.pi / 2.0 - 0.3, 0.05):
            plan = excursion._plan(3, 1, psi_hi)
            psi = plan.psi
            rng = np.random.default_rng(5)
            x = np.concatenate([
                psi, np.nextafter(psi[1:], 0.0), np.nextafter(psi[:-1], 2.0),
                rng.uniform(0.0, psi_hi, 10**5),
                np.arcsin(np.sqrt(rng.uniform(0.0, 1e-12, 10**4))), [5e-324, 1e-300],
            ])
            x = x[x <= psi_hi]
            expected = np.clip(np.searchsorted(psi, x, side="right") - 1, 0, psi.size - 2)
            assert np.array_equal(excursion._psi_piece(plan, x), expected), psi_hi

    @pytest.mark.parametrize(
        "config", [*MOMENT_CONFIGS, EQUICORRELATED], ids=lambda g: f"n{g.dim}N{g.n_points}"
    )
    def test_corrections_and_se_match_per_node_pchip(self, config):
        n = config.dim
        angles = per_node_profiles(config)
        size = angles[0].size
        for law in (ChiSquare(float(n)), FDist(float(n), 3.0)):
            for c in (0.5, 2.0, 5.0):
                plan = excursion._plan(n, 1, math.pi / 2.0)
                cum = excursion._cumulative_mixture(law, plan, c)
                with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                    mixture = PchipInterpolator(plan.psi, cum)
                values = [0.5 * mixture(x) for x in angles]
                corrections = sum(vals.mean() for vals in values)
                tube = p_tube(config, law, c)
                value, se = p_exact(config, law, c, with_se=True)
                assert delta_exact(config, law, c) == pytest.approx(
                    corrections / tube, rel=1e-13, abs=0.0
                )
                assert value == pytest.approx(tube - corrections, rel=1e-13, abs=0.0)
                if n <= 3:
                    assert se == 0.0
                    continue
                # the iid error over all (point, direction) pairs, and the
                # per-point form sum_i var_i it replaced, which by
                # Cauchy-Schwarz is never larger
                pooled_se = math.sqrt(config.n_points * np.concatenate(values).var() / size)
                per_point_se = math.sqrt(sum(vals.var() for vals in values) / size)
                assert se == pytest.approx(pooled_se, rel=1e-13, abs=0.0)
                assert se >= per_point_se * (1.0 - 1e-13)
                if config is EQUICORRELATED:
                    # alike points have nearly equal direction means
                    assert se == pytest.approx(per_point_se, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("n, n_points, smallest", [(3, 3, 8), (5, 10, 8), (10, 50, 12)])
    def test_block_size_moves_no_moment(self, monkeypatch, n, n_points, smallest):
        # the local-angle kernel forms its product in power-of-two blocks of
        # columns within geometry._BLOCK_ENTRIES: no budget moves a bit
        config = random_config(n, n_points, seed=n_points)
        expected = excursion._profile_moments.__wrapped__(config)[0]
        for log2_budget in range(smallest, 23):
            monkeypatch.setattr(geometry, "_BLOCK_ENTRIES", 1 << log2_budget)
            pooled = excursion._profile_moments.__wrapped__(config)[0]
            assert np.array_equal(pooled, expected), log2_budget

    @pytest.mark.parametrize("config", MOMENT_CONFIGS, ids=lambda g: f"n{g.dim}N{g.n_points}")
    def test_rv_limit_matches_per_node_betainc(self, config):
        for gamma in (0.5, 1.5, 5.0):
            p, q = gamma + 0.5, (config.dim - 1) / 2.0
            expected = np.mean(
                [betainc(p, q, np.sin(x) ** 2).mean() for x in per_node_profiles(config)]
            )
            assert delta_rv_limit(config, gamma) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_direction_moment_caches_stay_small(self):
        # one configuration's direction moments hold 224 KiB at n > 3, for
        # every N; a process that evaluates many index sets keeps the last four
        caches = (excursion._profile_moments, excursion._rv_limit)
        for cache in caches:
            cache.cache_clear()
        tracemalloc.start()
        try:
            for seed in range(12):
                config = random_config(10, 50, seed=200 + seed)
                delta_exact(config, ChiSquare(10.0), 3.0)
                build_report(config, FDist(10.0, 3.0), 3.0)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            for cache in caches:
                cache.cache_clear()
        assert held < 8 * 2**20

    def test_rv_limit_is_not_negative_where_it_vanishes(self):
        # rounding leaves cos^2 angles of 1.8e-34 at this antipodal pair, where
        # the cubic pieces of the Beta distribution function dip below 0
        config = PointConfiguration.from_points([[0.6, 0.8], [-0.6, -0.8]])
        for gamma in (0.5, 1.5, 5.0):
            assert 0.0 <= delta_rv_limit(config, gamma) < 1e-30


class TestRegularlyVaryingLimit:
    def test_single_point_is_zero(self, single_point):
        assert delta_rv_limit(single_point, 1.5) == 0.0

    def test_report_grid_builds_the_limit_once(self, t_law):
        config = random_config(5, 4, seed=31)
        excursion._rv_limit.cache_clear()
        grid = np.linspace(1.0, 8.0, 15)
        reports = [build_report(config, t_law, c) for c in grid]
        info = excursion._rv_limit.cache_info()
        assert (info.misses, info.hits) == (1, grid.size - 1)
        # the cached value is the one a fresh build gives, to the bit
        fresh = excursion._rv_limit.__wrapped__(config, 1.5)
        assert all(r.delta_prediction == fresh for r in reports)

    def test_benchmark_value_against_direction_sampling(self, benchmark_config):
        value = delta_rv_limit(benchmark_config, 1.5)
        rng = np.random.default_rng(77)
        acc = []
        for i in range(3):
            # iid uniform directions on the normal circle, independent of
            # the fixed rule behind delta_rv_limit
            u = benchmark_config.points[i]
            dirs = rng.standard_normal((10**5, 3))
            dirs -= np.outer(dirs @ u, u)
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            a = benchmark_config.cos_sq_local_angle(i, dirs)
            acc.append(betainc(2.0, 1.0, a))
        acc = np.concatenate(acc)
        oracle = acc.mean()
        se = acc.std() / math.sqrt(acc.size)
        assert abs(value - oracle) <= 4.0 * se

    def test_below_upper_bound(self, benchmark_config):
        assert delta_rv_limit(benchmark_config, 1.5) < delta_bar(benchmark_config, 1.5)

    def test_convergence_of_exact_error(self, benchmark_config, t_law):
        limit = delta_rv_limit(benchmark_config, 1.5)
        gaps = [
            abs(delta_exact(benchmark_config, t_law, c) - limit)
            for c in (4.0, 6.0, 8.0, 10.0)
        ]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.02

    def test_invalid_index(self, benchmark_config):
        with pytest.raises(UnsupportedLawError):
            delta_rv_limit(benchmark_config, math.inf)


class TestCachesKeyedOnPoints:
    """The per-configuration caches serve every configuration with equal points."""

    CACHES = (excursion._evaluation, excursion._profile_moments, excursion._rv_limit)

    @pytest.fixture(autouse=True)
    def cold_caches(self):
        for cache in self.CACHES:
            cache.cache_clear()
        yield
        for cache in self.CACHES:
            cache.cache_clear()

    def test_equal_configurations_build_the_moments_once(self, t_law):
        rho = equicorrelated(4, 0.3)
        a = PointConfiguration.from_correlation(rho)
        b = PointConfiguration.from_correlation(rho)
        assert a is not b and a == b
        delta_exact(a, t_law, 2.0)
        delta_exact(b, t_law, 3.0)
        delta_rv_limit(b, 1.5)
        info = excursion._profile_moments.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_cached_values_equal_a_fresh_build(self, gauss_law):
        rho = equicorrelated(3, 0.4)
        a = PointConfiguration.from_correlation(rho)
        b = PointConfiguration.from_correlation(rho)
        fresh = excursion._evaluation.__wrapped__(b, gauss_law, 3.0)
        for cache in self.CACHES:
            cache.cache_clear()
        p_exact(a, gauss_law, 3.0)
        tube, corrections, _ = fresh
        assert p_exact(b, gauss_law, 3.0) == tube - corrections
        assert delta_exact(b, gauss_law, 3.0) == corrections / tube
        assert excursion._evaluation.cache_info().misses == 1

    def test_two_threshold_runs_on_one_file_build_the_moments_once(self, tmp_path, capsys):
        cfg = tmp_path / "gauss.json"
        cfg.write_text(json.dumps({
            "correlation": equicorrelated(3, 0.25).tolist(),
            "law": {"family": "chi_square", "nu": 3.0},
        }))
        argv = ["threshold", "--config", str(cfg), "--target", "1e-3", "--method", "exact"]
        printed = []
        for _ in range(2):
            assert cli.run(argv) == 0
            printed.append(capsys.readouterr().out)
        assert printed == [f"c_gamma = {PINNED_SOLVES['gauss', '0.001', 'exact']}\n"] * 2
        assert excursion._profile_moments.cache_info().misses == 1


class TestDeltaBar:
    def test_benchmark_value_exact(self, benchmark_config):
        assert delta_bar(benchmark_config, 1.5) == 0.390625

    def test_infinite_index_is_refused(self, benchmark_config):
        with pytest.raises(UnsupportedLawError, match="finite positive index"):
            delta_bar(benchmark_config, math.inf)

    def test_right_angle_vanishes(self):
        antipodal = PointConfiguration.from_points([[1.0, 0.0], [-1.0, 0.0]])
        assert delta_bar(antipodal, 1.5) == 0.0

    def test_large_index_vanishes(self, benchmark_config):
        assert delta_bar(benchmark_config, 50.0) < 1e-6


class TestBounds:
    def test_sandwich_at_moderate_threshold(self, benchmark_config, t_law):
        lower, upper = p_bounds(benchmark_config, t_law, 6.0)
        exact = p_exact(benchmark_config, t_law, 6.0)
        assert lower < exact < upper

    def test_ratio_is_one_minus_bound(self, benchmark_config, t_law):
        lower, upper = p_bounds(benchmark_config, t_law, 6.0)
        assert upper / lower == pytest.approx(1.0 / (1.0 - 0.390625), rel=1e-12)

    def test_single_point_bounds_coincide(self, single_point, t_law):
        lower, upper = p_bounds(single_point, t_law, 2.0)
        assert lower == upper == pytest.approx(marginal_tail(t_law, 3, 2.0), rel=1e-12)

    def test_requires_regular_variation(self, benchmark_config, gauss_law):
        with pytest.raises(UnsupportedLawError):
            p_bounds(benchmark_config, gauss_law, 4.0)


class TestMixtureRatio:
    def test_vanishes_at_right_angle(self, gauss_law):
        assert d_k_quadrature(gauss_law, 3, 1, math.pi / 2.0, 4.0) == pytest.approx(
            0.0, abs=1e-14
        )

    @pytest.mark.parametrize("case", sorted(REPRODUCE_CASES))
    def test_right_angle_is_positive_zero_on_both_branches(self, case):
        # the integral runs over an empty range: +0.0 exactly, even where the
        # Gaussian tail(c^2) underflows
        law = REPRODUCE_CASES[case]["law"]
        for theta in (math.pi / 2.0, math.pi / 2.0 + 1e-12):
            for n, k, c in ((3, 1, 3.0), (5, 1, 3.0), (5, 3, 3.0), (3, 1, 40.0)):
                for d_k in (d_k_quadrature, d_k_asymptotic):
                    value = d_k(law, n, k, theta, c)
                    assert value == 0.0 and math.copysign(1.0, value) == 1.0, (
                        d_k.__name__, theta, n, k, c
                    )

    def test_full_range_is_tail_ratio(self, gauss_law):
        # for a chi-square radial the k = 1 block is the one-degree tail
        for c in (2.0, 4.0):
            expected = 2.0 * (1.0 - ndtr(c)) / gauss_law.tail(c * c)
            assert d_k_quadrature(gauss_law, 3, 1, 0.0, c) == pytest.approx(
                expected, rel=1e-8
            )

    def test_frozen_mpmath_values(self, benchmark_config, gauss_law):
        # 40-digit mpmath quadrature in y; each value is far below the 1e-14
        # absolute tolerance of adaptive quadrature
        cases = [
            (gauss_law, 1.2, 10.0, 2.8157543353e-147),
            (gauss_law, benchmark_config.theta_star, 20.0, 1.1932319669e-55),
            (Chi(3.0), 1.2, 2.0, 1.2551106153e-201),
        ]
        for law, theta, c, expected in cases:
            assert d_k_quadrature(law, 3, 1, theta, c) == pytest.approx(
                expected, rel=1e-5, abs=0.0
            )

    @pytest.mark.parametrize("law", MIXTURE_LAWS, ids=lambda law: law.family)
    def test_full_range_times_tail_is_twice_the_marginal(self, law):
        for n, c in ((3, 0.5), (3, 3.0), (10, 2.0)):
            assert d_k_quadrature(law, n, 1, 0.0, c) * law.tail(c * c) == pytest.approx(
                2.0 * marginal_tail(law, n, c), rel=1e-15, abs=0.0
            )

    @pytest.mark.parametrize("law", MIXTURE_LAWS, ids=lambda law: law.family)
    def test_matches_adaptive_quadrature(self, benchmark_config, law):
        # QUADPACK with the scalar integrand in psi = arcsin(sqrt(y)), at an
        # absolute tolerance of 1e-14: a reference only where D_k > 1e-13
        compared = 0
        for n, theta, c in itertools.product(
            (3, 10), (0.3, benchmark_config.theta_star, 1.2), (1.5, 4.0)
        ):
            for k in (1, n - 1):
                p, q = k / 2.0, (n - k) / 2.0
                denom = law.tail(c * c)

                def integrand(psi):
                    weight = 2.0 * math.sin(psi) ** (2 * p - 1) * math.cos(psi) ** (2 * q - 1)
                    return weight * law.tail(c * c / math.sin(psi) ** 2) / denom

                result = quad(
                    integrand, 0.0, math.pi / 2.0 - theta,
                    epsabs=1e-14, epsrel=1e-10, limit=400, full_output=1,
                )
                reference = result[0] / beta_function(p, q)
                value = d_k_quadrature(law, n, k, theta, c)
                if reference > 1e-13:
                    compared += 1
                    assert value == pytest.approx(reference, rel=1e-9, abs=0.0), (
                        n, k, theta, c
                    )
        assert compared >= 8

    def test_rv_branch_constant_in_threshold(self, benchmark_config, t_law):
        theta = benchmark_config.theta_star
        asym = d_k_asymptotic(t_law, 3, 1, theta, 10.0)
        gaps = [
            abs(d_k_quadrature(t_law, 3, 1, theta, c) / asym - 1.0)
            for c in (10.0, 30.0, 100.0)
        ]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.01

    def test_rv_asymptote_closed_form(self, t_law):
        # gamma = 3/2, n = 3, k = 1: value is a * cos^4(theta)
        theta = 0.6
        a_gk = math.exp(
            math.lgamma(2.0) + math.lgamma(1.0) - math.lgamma(3.0)
            - (math.lgamma(0.5) + math.lgamma(1.0) - math.lgamma(1.5))
        )
        expected = a_gk * math.cos(theta) ** 4
        assert d_k_asymptotic(t_law, 3, 1, theta, 5.0) == pytest.approx(
            expected, rel=1e-12
        )
        # theta = 0 gives the prefactor alone
        assert d_k_asymptotic(t_law, 3, 1, 0.0, 5.0) == pytest.approx(a_gk, rel=1e-12)

    def test_zero_angle_branch_value(self, gauss_law):
        # Gamma(q) / (B(p, q) b^q) with p = 1/2, q = 1 and b = c^2 / 2
        c = 6.0
        b = 0.5 * c * c
        p, q = 0.5, 1.0
        expected = math.gamma(q) / (
            math.exp(math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)) * b**q
        )
        assert d_k_asymptotic(gauss_law, 3, 1, 0.0, c) == pytest.approx(expected, rel=1e-12)

    def test_ratio_converges_in_subexponential_branch(self, gauss_law):
        theta = math.acos(math.sqrt(5.0 / 8.0))
        gaps = [
            abs(
                d_k_quadrature(gauss_law, 3, 1, theta, c)
                / d_k_asymptotic(gauss_law, 3, 1, theta, c)
                - 1.0
            )
            for c in (4.0, 8.0)
        ]
        assert gaps[1] < gaps[0]

    def test_argument_validation(self, gauss_law):
        with pytest.raises(ValueError):
            d_k_quadrature(gauss_law, 3, 3, 0.3, 2.0)
        with pytest.raises(ValueError):
            d_k_quadrature(gauss_law, 3, 1, 0.3, -2.0)
        with pytest.raises(ValueError):
            d_k_asymptotic(gauss_law, 3, 0, 0.3, 2.0)
        # both D_k functions share one check: a NaN threshold fails it, and
        # d_k_asymptotic refuses the angles d_k_quadrature refuses
        with pytest.raises(ValueError, match="threshold must be positive"):
            d_k_quadrature(gauss_law, 3, 1, 0.3, math.nan)
        for law in (gauss_law, FDist(3.0, 3.0)):
            with pytest.raises(ValueError, match="threshold must be positive"):
                d_k_asymptotic(law, 3, 1, 0.3, math.nan)
            for theta in (math.nan, -0.1, 2.0):
                with pytest.raises(ValueError, match=r"theta must lie in \[0, pi/2\]"):
                    d_k_asymptotic(law, 3, 1, theta, 5.0)
        # the Gaussian tail(c^2) underflows to 0 at c = 40: a numerical failure
        with pytest.raises(FloatingPointError, match="tail underflow at the threshold"):
            d_k_quadrature(gauss_law, 3, 1, 0.3, 40.0)


class TestLogDeltaAsymptotic:
    def test_gaussian_closed_form(self, benchmark_config, gauss_law):
        theta = benchmark_config.theta_star
        for c in (3.0, 5.0):
            expected = (
                -0.5 * c * c * math.tan(theta) ** 2
                - 0.5 * math.log(c * c / 2.0)
                + math.log(math.cos(theta) ** 2 / (2.0 * math.sqrt(math.pi) * math.tan(theta)))
                + math.log(6.0 / 3.0)
            )
            assert log_delta_asymptotic(benchmark_config, gauss_law, c) == pytest.approx(
                expected, rel=1e-12
            )

    def test_gaussian_matches_pairwise_minimum_oracle(self, benchmark_config, gauss_law):
        # independent route: the bivariate normal orthant asymptotics for the
        # pairwise minimum give D/N / sqrt(2 pi) ((1+r)/2) sqrt((1+r)/(1-r))
        # c^-1 exp(-c^2 (1-r)/(2 (1+r)))
        r = 0.25
        for c in (4.0, 6.0):
            oracle = (
                math.log(6.0 / 3.0)
                - 0.5 * math.log(2.0 * math.pi)
                + math.log((1.0 + r) / 2.0)
                + 0.5 * math.log((1.0 + r) / (1.0 - r))
                - math.log(c)
                - 0.5 * c * c * (1.0 - r) / (1.0 + r)
            )
            assert log_delta_asymptotic(benchmark_config, gauss_law, c) == pytest.approx(
                oracle, rel=1e-12
            )

    def test_bessel_closed_form_with_threshold_substitution(
        self, benchmark_config, bessel_law
    ):
        theta = benchmark_config.theta_star
        sec = 1.0 / math.cos(theta)
        n1, n2, n = 3.0, 4.0, 3
        for c in (4.0, 8.0):
            ca = 2.0 * c  # scale 1/4 rescales thresholds by 2
            expected = (
                -ca * (sec - 1.0)
                - 0.5 * math.log(ca / 2.0)
                + math.log(
                    math.cos(theta) ** ((n - n1 - n2 + 3.0) / 2.0)
                    / (2.0 * math.sqrt(math.pi) * math.tan(theta))
                )
                + math.log(6.0 / 3.0)
            )
            assert log_delta_asymptotic(benchmark_config, bessel_law, c) == pytest.approx(
                expected, rel=1e-12
            )

    def test_lognormal_closed_form_with_threshold_substitution(
        self, benchmark_config, lognormal_law
    ):
        theta = benchmark_config.theta_star
        log_cos_sq = math.log(math.cos(theta) ** 2)
        for c in (6.0, 20.0):
            ca = c * (math.sqrt(math.e) / 3.0) ** 0.5
            expected = (
                -math.log(ca * ca) * (-log_cos_sq)
                - 0.5 * math.log(math.log(ca * ca))
                - 0.5 * log_cos_sq**2
                + math.log(1.0 / (2.0 * math.sqrt(math.pi) * math.tan(theta)))
                + math.log(6.0 / 3.0)
            )
            assert log_delta_asymptotic(
                benchmark_config, lognormal_law, c
            ) == pytest.approx(expected, rel=1e-12)

    def test_regularly_varying_rejected(self, benchmark_config, t_law):
        with pytest.raises(UnsupportedLawError, match="delta_rv_limit"):
            log_delta_asymptotic(benchmark_config, t_law, 4.0)

    def test_single_point_rejected(self, gauss_law):
        single = PointConfiguration.from_points([[1.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            log_delta_asymptotic(single, gauss_law, 4.0)

    def test_nan_threshold_rejected(self, benchmark_config, gauss_law):
        with pytest.raises(ValueError, match="threshold must be positive"):
            log_delta_asymptotic(benchmark_config, gauss_law, math.nan)


class TestLaplaceGate:
    """``_laplace_rate`` alone decides where the sub-exponential expansions
    apply: h = c^2 / scale >= 1 and a positive rate b."""

    TOO_SMALL = "threshold too small for the asymptotic expansion"

    # c grids across h = 1 and, for each law, the thresholds the gate refuses
    REFUSED = [
        # D_1(0, 0.5) read 4.000000000000001, above the bound 1 of the ratio,
        # where D_1(0.3, 0.5) was refused
        (ChiSquare(3.0), [0.25, 0.5, 0.75, 1.0, 1.25, 2.0], [0.25, 0.5, 0.75]),
        # b = log h is 0 at h = 1, so c = 1 is refused too
        (LogNormal(), [0.25, 0.5, 0.75, 1.0, 1.25, 2.0], [0.25, 0.5, 0.75, 1.0]),
        # h = 4 c^2 reaches 1 at c = 0.5
        (Bessel(3.0, 4.0, scale=0.25), [0.25, 0.4, 0.5, 0.75, 1.0], [0.25, 0.4]),
    ]

    def test_h_below_one_is_refused(self):
        # once "h must be >= 1" from RadialLaw.r_beta(h, y), which now takes y only
        law = ChiSquare(3.0)
        desc = law.class_descriptor()
        for c in (math.sqrt(0.5), 0.999999, math.nan):
            with pytest.raises(ValueError, match=self.TOO_SMALL):
                excursion._laplace_rate(law, desc, c)
        # h = 1 is the first threshold in range, where b = h / 2
        assert excursion._laplace_rate(law, desc, 1.0) == 0.5

    @pytest.mark.parametrize(
        "law, grid, refused", REFUSED, ids=["chi_square", "log_normal", "bessel"]
    )
    def test_every_expansion_refuses_the_same_thresholds(
        self, benchmark_config, law, grid, refused
    ):
        def refuses(function, c):
            try:
                function(c)
            except ValueError as error:
                assert str(error) == self.TOO_SMALL
                return True
            return False

        evaluations = {
            "d_k theta = 0": lambda c: d_k_asymptotic(law, 3, 1, 0.0, c),
            "d_k theta = 0.3": lambda c: d_k_asymptotic(law, 3, 1, 0.3, c),
            "log_delta": lambda c: log_delta_asymptotic(benchmark_config, law, c),
        }
        for name, function in evaluations.items():
            assert [c for c in grid if refuses(function, c)] == refused, name

    @pytest.mark.parametrize(
        "law", [law for law, _, _ in REFUSED] + [FDist(3.0, 3.0)], ids=lambda law: law.family
    )
    def test_expansions_return_python_floats(self, benchmark_config, law):
        # the sub-exponential branches returned numpy.float64
        values = [d_k_asymptotic(law, 3, 1, theta, 4.0) for theta in (0.0, 0.3)]
        if not law.class_descriptor().regularly_varying:
            values.append(log_delta_asymptotic(benchmark_config, law, 4.0))
        assert [type(value) for value in values] == [float] * len(values)

    @staticmethod
    def uncapped_d_k(law, n, k, theta, c):
        """The two sub-exponential expansions of ``d_k_asymptotic``, in its
        own operations, before the cap at 1."""
        desc = law.class_descriptor()
        p, q = k / 2.0, (n - k) / 2.0
        b = excursion._laplace_rate(law, desc, c)
        if theta == 0.0:
            return float(math.gamma(q) / (beta_function(p, q) * b**q))
        cos_sq = math.cos(theta) ** 2
        return float(
            math.cos(theta) ** (k - 2.0 * desc.beta + 2.0)
            * math.sin(theta) ** (n - k - 2.0)
            * math.exp(-b * excursion.g_beta(desc.beta, cos_sq) - law.r_beta(cos_sq))
            / (beta_function(p, q) * b)
        )

    @pytest.mark.parametrize(
        "law", [law for law in MIXTURE_LAWS if law.family != "chi"] + [LogNormal()],
        ids=lambda law: f"{law.family}-{law.scale:g}",
    )
    def test_d_k_asymptotic_lies_in_the_unit_interval(self, benchmark_config, law):
        # no tail ratio exceeds 1, yet just above the gate the expansions read
        # 2.623 (LogNormal(), k = 1, theta = 0, c = 1.1), 2.452 (theta = 0.3),
        # 2.837 (k = 2, c = 1.05) and 1.0000000000000002 (chi-square(3),
        # theta = 0, c = 1)
        subexponential = not law.class_descriptor().regularly_varying
        thetas = (0.0, 0.3, benchmark_config.theta_star, 1.2)
        grid = [*np.linspace(0.1, 8.0, 80).tolist(), 1.0, 1.05, 1.1]
        capped = 0
        for n, c, theta in itertools.product((3, 5), grid, thetas):
            for k in range(1, n):
                try:
                    value = d_k_asymptotic(law, n, k, theta, c)
                except ValueError as error:
                    assert str(error) == self.TOO_SMALL
                    continue
                assert 0.0 <= value <= 1.0, (n, k, theta, c)
                if subexponential:
                    # a value in range keeps its bits
                    raw = self.uncapped_d_k(law, n, k, theta, c)
                    assert value == min(raw, 1.0), (n, k, theta, c)
                    capped += raw > 1.0
        # every sub-exponential law reaches the cap just above its gate
        assert (capped > 0) == subexponential

    @pytest.mark.parametrize("case, unavailable, pre_asymptotic", [
        # the pre-asymptotic rows have a Laplace rate below 1: 0.79 for the
        # log-normal law at c = 2, 0.50 and 0.78 for the Gaussian one
        ("lognormal", [], [2.0]), ("bessel", [], []), ("gauss", [0.5, 0.75], [1.0, 1.25]),
    ])
    def test_reproduce_rows_without_a_prediction(
        self, benchmark_config, case, unavailable, pre_asymptotic
    ):
        law = REPRODUCE_CASES[case]["law"]
        grid = cli._build_grid(*REPRODUCE_CASES[case]["grid"])
        reports = [build_report(benchmark_config, law, c) for c in grid]
        assert [r.c for r in reports if r.flags == "pred_unavailable"] == unavailable
        assert [r.c for r in reports if r.flags == "pre_asymptotic"] == pre_asymptotic
        assert all(r.flags == "" for r in reports if r.c not in unavailable + pre_asymptotic)


# every analytic entry point that takes a threshold c, as f(config, law, c)
THRESHOLD_READERS = {
    "marginal_tail": lambda config, law, c: marginal_tail(law, config.dim, c),
    "p_tube": p_tube,
    "p_exact": p_exact,
    "delta_exact": delta_exact,
    "build_report": lambda config, law, c: build_report(config, law, c).delta_prediction,
    "d_k_quadrature": lambda config, law, c: d_k_quadrature(law, config.dim, 1, 0.3, c),
    "d_k_asymptotic": lambda config, law, c: d_k_asymptotic(law, config.dim, 1, 0.3, c),
    "log_delta_asymptotic": log_delta_asymptotic,
    "estimate_delta": lambda config, law, c: estimate_delta(config, law, c, 10**5, 1),
}


class TestRealThresholds:
    """A threshold, an angle and a target are read by the package's one
    real-number rule, ``radial_laws._as_real``: bools, strings and arrays are
    refused, and numpy and integer scalars read as the equal float."""

    NOT_REAL = [True, "3", np.array([3.0]), None]

    @pytest.mark.parametrize("reader", sorted(THRESHOLD_READERS))
    @pytest.mark.parametrize("value", NOT_REAL, ids=repr)
    def test_a_threshold_that_is_not_a_number_is_refused(
        self, benchmark_config, gauss_law, reader, value
    ):
        # True once read as c = 1, and an array raised a TypeError
        with pytest.raises(ValueError, match="^threshold must be a number, got "):
            THRESHOLD_READERS[reader](benchmark_config, gauss_law, value)

    @pytest.mark.parametrize("reader", ["p_exact", "delta_exact", "build_report"])
    def test_true_is_refused_after_one(self, benchmark_config, gauss_law, reader):
        # True == 1.0 and hash(True) == hash(1.0): the cached evaluation at
        # c = 1.0 must not answer for True
        THRESHOLD_READERS[reader](benchmark_config, gauss_law, 1.0)
        with pytest.raises(ValueError, match="^threshold must be a number, got True$"):
            THRESHOLD_READERS[reader](benchmark_config, gauss_law, True)

    @pytest.mark.parametrize("value", NOT_REAL, ids=repr)
    def test_an_angle_or_target_that_is_not_a_number_is_refused(
        self, benchmark_config, gauss_law, value
    ):
        for d_k in (d_k_quadrature, d_k_asymptotic):
            with pytest.raises(ValueError, match="^theta must be a number, got "):
                d_k(gauss_law, 3, 1, value, 4.0)
        with pytest.raises(ValueError, match="^target must be a number, got "):
            solve_threshold(benchmark_config, gauss_law, value)

    @pytest.mark.parametrize("reader", sorted(THRESHOLD_READERS))
    def test_numpy_and_integer_thresholds_read_as_the_equal_float(
        self, benchmark_config, gauss_law, reader
    ):
        read = THRESHOLD_READERS[reader]
        expected = read(benchmark_config, gauss_law, 3.0)
        for value in (np.float64(3.0), np.int64(3), 3):
            assert read(benchmark_config, gauss_law, value) == expected


class TestIntegerAndIndexReaders:
    """The dimension n and the order k are read by the package's integer rule,
    ``radial_laws._as_integer``, and the tail index gamma by one reader behind
    ``delta_rv_limit`` and ``delta_bar``: ``_as_real``, then finite and
    positive."""

    NOT_INTEGER = [True, 2.5, "3", np.array(3), None]

    @pytest.mark.parametrize("value", NOT_INTEGER, ids=repr)
    def test_a_dimension_that_is_not_an_integer_is_refused(self, gauss_law, value):
        # 2.5 once built a Beta(1/2, 3/4) plan and returned 0.0318
        with pytest.raises(ValueError, match="^ambient dimension must be an integer, got "):
            marginal_tail(gauss_law, value, 2.0)
        for d_k in (d_k_quadrature, d_k_asymptotic):
            with pytest.raises(ValueError, match="^ambient dimension must be an integer, got "):
                d_k(gauss_law, value, 1, 0.5, 4.0)

    @pytest.mark.parametrize("value", NOT_INTEGER, ids=repr)
    def test_an_order_that_is_not_an_integer_is_refused(self, gauss_law, value):
        # True once read as k = 1 and returned D_1
        for d_k in (d_k_quadrature, d_k_asymptotic):
            with pytest.raises(ValueError, match="^order k must be an integer, got "):
                d_k(gauss_law, 3, value, 0.5, 4.0)

    def test_range_messages_are_unchanged(self, gauss_law):
        with pytest.raises(ValueError, match="^ambient dimension must be at least 2$"):
            marginal_tail(gauss_law, 1.0, 2.0)
        with pytest.raises(ValueError, match=r"^k must satisfy 1 <= k <= n - 1$"):
            d_k_quadrature(gauss_law, 3, 3, 0.5, 4.0)

    @pytest.mark.parametrize("law", MIXTURE_LAWS, ids=lambda law: law.family)
    def test_integral_values_give_the_same_bits(self, law):
        for n in (3.0, np.int64(3)):
            assert marginal_tail(law, n, 2.0) == marginal_tail(law, 3, 2.0)
        for n, k in ((3.0, 2.0), (np.int64(3), np.int64(2))):
            assert d_k_quadrature(law, n, k, 0.4, 4.0) == d_k_quadrature(law, 3, 2, 0.4, 4.0)
            if law.family != "chi":  # the chi law has no closed-form correction term
                assert d_k_asymptotic(law, n, k, 0.4, 4.0) == d_k_asymptotic(law, 3, 2, 0.4, 4.0)

    @pytest.mark.parametrize("function", [delta_rv_limit, delta_bar], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("value", [True, "1.5", np.array(1.5), None], ids=repr)
    def test_a_tail_index_that_is_not_a_number_is_refused(self, benchmark_config, function, value):
        # True once read as gamma = 1; the array raised a TypeError from the
        # cache of delta_rv_limit and returned 0.390625 from delta_bar
        with pytest.raises(ValueError, match="^tail index must be a number, got "):
            function(benchmark_config, value)

    @pytest.mark.parametrize("function", [delta_rv_limit, delta_bar], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("value", [0, -1.5, math.inf, math.nan], ids=repr)
    def test_a_tail_index_that_is_not_finite_and_positive_is_refused(
        self, benchmark_config, function, value
    ):
        with pytest.raises(UnsupportedLawError, match="finite positive index"):
            function(benchmark_config, value)

    def test_true_is_refused_after_one(self, benchmark_config):
        # hash(True) == hash(1.0): the cached limit at gamma = 1 must not answer for True
        delta_rv_limit(benchmark_config, 1)
        with pytest.raises(ValueError, match="^tail index must be a number, got True$"):
            delta_rv_limit(benchmark_config, True)

    @pytest.mark.parametrize("function", [delta_rv_limit, delta_bar], ids=lambda f: f.__name__)
    def test_numpy_and_integer_indices_read_as_the_equal_float(self, benchmark_config, function):
        expected = function(benchmark_config, 2.0)
        for value in (2, np.int64(2), np.float64(2.0)):
            assert function(benchmark_config, value) == expected


class TestThresholdSolving:
    def test_tube_roundtrip(self, benchmark_config, t_law):
        target = p_tube(benchmark_config, t_law, 2.5)
        solved = solve_threshold(benchmark_config, t_law, target, method="tube")
        assert solved == pytest.approx(2.5, abs=1e-6)

    def test_exact_threshold_is_smaller(self, benchmark_config, t_law):
        c_tube = solve_threshold(benchmark_config, t_law, 0.05, method="tube")
        c_exact = solve_threshold(benchmark_config, t_law, 0.05, method="exact")
        assert c_exact <= c_tube
        assert p_exact(benchmark_config, t_law, c_exact) == pytest.approx(0.05, abs=1e-8)

    def test_exact_threshold_bracketed_by_bounds(self, benchmark_config, t_law):
        # the exact curve sits between (1 - bound) p_tube and p_tube, so its
        # threshold sits between the thresholds solved from those two curves
        gamma = 0.05
        c_exact = solve_threshold(benchmark_config, t_law, gamma, method="exact")
        c_from_upper = solve_threshold(benchmark_config, t_law, gamma, method="tube")
        bound = delta_bar(benchmark_config, 1.5)
        c_from_lower = solve_threshold(
            benchmark_config, t_law, gamma / (1.0 - bound), method="tube"
        )
        assert c_from_lower <= c_exact <= c_from_upper

    def test_unattainable_target(self, benchmark_config, t_law):
        with pytest.raises(ValueError, match="attainable"):
            solve_threshold(benchmark_config, t_law, 1.2, method="tube")
        with pytest.raises(ValueError, match="attainable"):
            solve_threshold(benchmark_config, t_law, 0.95, method="exact")

    def test_search_ends_are_checked_when_reached(self, benchmark_config):
        # the search covers all c > 0: a law with its mass near 0 has its
        # threshold there, and P scales with the law, so c scales by sqrt(1e-12)
        c_unit = solve_threshold(benchmark_config, LogNormal(scale=1.0), 0.3, method="tube")
        law = counting_law(LogNormal(scale=1e-12))
        c = solve_threshold(benchmark_config, law, 0.3, method="tube")
        assert type(law).builds <= 5
        assert c == pytest.approx(1e-6 * c_unit, rel=1e-9)
        # F(3, 0.01) still exceeds the target at c = 2^200, which the tail
        # bound cannot rule out: that end is checked before the search starts
        law = counting_law(FDist(3.0, 0.01))
        with pytest.raises(ValueError, match="failed to bracket the threshold"):
            solve_threshold(benchmark_config, law, 0.1, method="tube")
        assert type(law).builds <= 1

    @pytest.mark.parametrize("method", ["tube", "exact"])
    @pytest.mark.parametrize("law", [MIXTURE_LAWS[i] for i in (0, 2, 3, 4)],
                             ids=lambda law: law.family)
    def test_threshold_scales_with_the_law(self, benchmark_config, law, method):
        # scaling R by s scales P's argument c by sqrt(s), over any range of s
        for target in (0.3, 1e-3, 1e-9):
            c_unit = solve_threshold(benchmark_config, law, target, method=method)
            for s in (1e-20, 1e-14, 1e-8, 1e-2, 1e4, 1e14):
                scaled = dataclasses.replace(law, scale=law.scale * s)
                c = solve_threshold(benchmark_config, scaled, target, method=method)
                assert abs(c / math.sqrt(s) - c_unit) <= 1e-9 * c_unit

    @pytest.mark.parametrize("method", ["tube", "exact"])
    def test_single_point_target_near_half(self, single_point, method):
        # P(0+) is 1/2 for one point: a target just below it has its root at c ~ 3e-7
        law = ChiSquare(3.0)
        c = solve_threshold(single_point, law, 0.4999999, method=method)
        prob = p_tube if method == "tube" else p_exact
        assert prob(single_point, law, c) == pytest.approx(0.4999999, rel=1e-9)

    @pytest.mark.parametrize("method", ["tube", "exact"])
    def test_single_point_target_above_half_is_refused_up_front(self, single_point, method):
        law = counting_law(ChiSquare(3.0))
        with pytest.raises(ValueError, match=r"not attainable \(must lie in \(0, 0\.5\)\)"):
            solve_threshold(single_point, law, 0.50000001, method=method)
        assert type(law).builds == 1

    def test_unknown_method(self, benchmark_config, t_law):
        with pytest.raises(ValueError, match="method"):
            solve_threshold(benchmark_config, t_law, 0.05, method="simulate")

    def test_deep_tail_target_is_solved(self, benchmark_config, gauss_law):
        # P_tube = 1.5 erfc(c / sqrt(2)) is still a normal float at c = 37.08
        c = solve_threshold(benchmark_config, gauss_law, 1e-300, method="tube")
        assert p_tube(benchmark_config, gauss_law, c) == pytest.approx(1e-300, rel=1e-9)

    def test_underflow_at_bracket_end_names_target_and_threshold(
        self, benchmark_config, gauss_law
    ):
        # the computed P drops to 0 near c = 38.488 before it reaches 1e-320
        # (the chi-square tail itself is a subnormal there, 6e-321), and the
        # first point, where the tail bound meets the target, already lies there
        with pytest.raises(
            FloatingPointError, match=r"c=38\.48\d* while solving for target 1e-320"
        ):
            solve_threshold(benchmark_config, gauss_law, 1e-320, method="tube")

    @pytest.mark.parametrize("target", [0.3, 0.1, 1e-3, 1e-6])
    @pytest.mark.parametrize("method", ["tube", "exact"])
    @pytest.mark.parametrize("case", sorted(REPRODUCE_CASES))
    def test_few_mixture_builds_and_brent_accuracy(self, benchmark_config, case, method, target):
        law = counting_law(REPRODUCE_CASES[case]["law"])
        c = solve_threshold(benchmark_config, law, target, method=method)
        assert type(law).builds <= (6 if target <= 0.1 else 8)
        prob = p_tube if method == "tube" else p_exact

        def log_excess(x):
            return math.log(prob(benchmark_config, law, x)) - math.log(target)

        tol = 1e-10 * (1.0 + c)
        reference = brentq(log_excess, c - 10.0 * tol, c + 10.0 * tol, xtol=1e-14)
        assert abs(c - reference) <= tol

    # mixture builds of each benchmark solve, as counted before the guide was
    # memoized: steering may get cheaper, but must not move a build
    BENCHMARK_BUILDS = {
        ("t", 0.1): (5, 5), ("t", 1e-3): (4, 4),
        ("lognormal", 0.1): (5, 5), ("lognormal", 1e-3): (4, 4),
        ("bessel", 0.1): (5, 5), ("bessel", 1e-3): (4, 5),
        ("gauss", 0.1): (6, 6), ("gauss", 1e-3): (5, 5),
    }

    @pytest.mark.parametrize("method", ["tube", "exact"])
    @pytest.mark.parametrize("case, target", sorted(BENCHMARK_BUILDS))
    def test_guide_reads_each_argument_once(self, benchmark_config, case, target, method):
        preset = REPRODUCE_CASES[case]["law"]
        law = counting_law(preset)
        c = solve_threshold(benchmark_config, law, target, method=method)
        assert type(law).builds == self.BENCHMARK_BUILDS[case, target][method == "exact"]
        arguments = type(law).arguments
        assert arguments and max(arguments.values()) == 1
        assert c == solve_threshold(benchmark_config, preset, target, method=method)

    def test_a_point_that_hits_the_target_is_returned(self, benchmark_config, monkeypatch):
        # the first point solves (N/2) tail(c^2) = target; where P there is the
        # target itself, the search stops at that one evaluation
        law, target, calls = ChiSquare(3.0), 1e-3, []

        def hit(config, law, c):
            calls.append(c)
            return target

        monkeypatch.setattr(excursion, "p_tube", hit)
        c = solve_threshold(benchmark_config, law, target, method="tube")
        assert calls == [c]
        assert 1.5 * law.tail(c * c) == pytest.approx(target, rel=1e-12)

    def test_root_finder_tolerance_saves_a_build(self, benchmark_config):
        # a model step must land within the search's own 1e-10 c of the root:
        # with find_root stopping at 1e-10 (1 + |t|) in t = log c the step fell
        # 1e-9 c short and the next one bisected, a third build
        law = counting_law(FDist(3.0, 1.0))
        c = solve_threshold(benchmark_config, law, 1e-6, method="exact")
        assert type(law).builds == 2
        assert c == pytest.approx(374137.0015836, rel=1e-10)


class TestTailDependence:
    def test_gaussian_pair_is_independent(self, pair_config):
        assert tail_dependence(pair_config, ChiSquare(2.0)) == 0.0

    def test_subexponential_pair_is_independent(self, pair_config):
        assert tail_dependence(pair_config, LogNormal()) == 0.0

    def test_bivariate_t_value(self, pair_config):
        law = FDist(2.0, 3.0)
        value = tail_dependence(pair_config, law)
        assert value == pytest.approx(2.0 * delta_rv_limit(pair_config, 1.5), rel=1e-14)
        # frozen elliptical-copula closed form 2 t-tail_{nu+1}(sqrt((nu+1)(1-r)/(1+r)))
        expected = 2.0 * student_t_tail(math.sqrt(4.0 * 0.75 / 1.25), 4.0)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_wrong_count_rejected(self, benchmark_config, t_law):
        with pytest.raises(ValueError):
            tail_dependence(benchmark_config, t_law)


class TestInvariances:
    def _scalene_config(self):
        a, b = 0.5, 0.3
        pts = np.array(
            [
                [1.0, 0.0, 0.0],
                [a, math.sqrt(1 - a * a), 0.0],
                [b, 0.0, math.sqrt(1 - b * b)],
            ]
        )
        return pts

    def test_permutation_invariance(self, t_law):
        pts = self._scalene_config()
        base = PointConfiguration.from_points(pts)
        shuffled = PointConfiguration.from_points(pts[[2, 0, 1]])
        for c in (1.0, 3.0):
            assert p_exact(base, t_law, c) == pytest.approx(
                p_exact(shuffled, t_law, c), rel=1e-12
            )
            assert p_tube(base, t_law, c) == pytest.approx(
                p_tube(shuffled, t_law, c), rel=1e-12
            )

    def test_rotation_invariance(self, benchmark_config, t_law):
        rng = np.random.default_rng(21)
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q = q * np.sign(np.diag(r))
        rotated = PointConfiguration.from_points(benchmark_config.points @ q.T)
        for c in (1.0, 4.0):
            assert p_exact(rotated, t_law, c) == pytest.approx(
                p_exact(benchmark_config, t_law, c), rel=1e-6
            )
            assert p_tube(rotated, t_law, c) == pytest.approx(
                p_tube(benchmark_config, t_law, c), rel=1e-12
            )


class TestReports:
    def test_rv_report_fields(self, benchmark_config, t_law):
        report = build_report(benchmark_config, t_law, 6.0)
        assert report.branch == "RV"
        assert 0.0 <= report.p_exact <= report.p_tube
        assert report.p_tube_capped == min(1.0, report.p_tube)
        assert 0.0 <= report.delta_exact < 1.0
        assert report.delta_bar == 0.390625
        assert report.p_lower < report.p_exact
        assert report.flags == ""

    @pytest.mark.parametrize("law, c", [
        (FDist(3.0, 20.0), 0.1), (FDist(3.0, 20.0), 1.0), (FDist(3.0, 20.0), 2.0),
        (FDist(3.0, 3.0), 0.1),
    ])
    def test_pre_asymptotic_where_the_lower_bound_fails(self, benchmark_config, law, c):
        report = build_report(benchmark_config, law, c)
        assert report.p_lower > report.p_exact
        assert report.flags == "pre_asymptotic"

    @pytest.mark.parametrize("c", [0.5, 1.0, 3.0, 6.0])
    def test_no_pre_asymptotic_flag_where_the_bound_holds(self, benchmark_config, c):
        report = build_report(benchmark_config, FDist(3.0, 3.0), c)
        assert report.p_lower < report.p_exact
        assert report.flags == ""

    @pytest.mark.parametrize("c", [0.1, 1.0, 6.0])
    def test_no_pre_asymptotic_flag_where_delta_bar_is_zero(self, single_point, c):
        # for one point and an antipodal pair the lower bound is P_tube itself,
        # which P equals: the sandwich holds with equality
        antipodal = PointConfiguration.from_points([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        for config in (single_point, antipodal):
            report = build_report(config, FDist(3.0, 3.0), c)
            assert report.delta_bar == 0.0
            assert report.p_lower == report.p_exact
            assert report.flags == ""

    def test_subexp_report_fields(self, benchmark_config, gauss_law):
        report = build_report(benchmark_config, gauss_law, 4.0)
        assert report.branch == "SUBEXP"
        assert math.isnan(report.p_lower)
        assert math.isnan(report.delta_bar)
        assert report.delta_prediction == pytest.approx(
            math.exp(log_delta_asymptotic(benchmark_config, gauss_law, 4.0)), rel=1e-12
        )

    def test_prediction_below_the_expansion_range_is_flagged(self, benchmark_config):
        # log c^2 < 0 at c = 0.9: the log-normal Laplace rate is negative
        law = LogNormal()
        with pytest.raises(ValueError, match="threshold too small for the asymptotic expansion"):
            log_delta_asymptotic(benchmark_config, law, 0.9)
        report = build_report(benchmark_config, law, 0.9)
        assert report.flags == "pred_unavailable"
        assert math.isnan(report.delta_prediction)
        assert report.delta_exact == delta_exact(benchmark_config, law, 0.9)

    def test_prediction_of_one_or_more_is_flagged(self, benchmark_config):
        # just above c^2 / scale = 1 the log-normal Laplace rate log c^2 is
        # near 0 and the prediction exceeds 1, which no relative error can;
        # the value is kept
        law = LogNormal()
        report = build_report(benchmark_config, law, 1.1)
        assert report.flags == "pre_asymptotic"
        assert report.delta_prediction == math.exp(log_delta_asymptotic(benchmark_config, law, 1.1))
        assert report.delta_prediction == pytest.approx(1.3658, rel=1e-4)
        assert report.delta_exact < 1.0
        # c = 1.2 predicts 0.91, 5.6 times Delta, at b = log 1.44 = 0.36 and is
        # flagged by the rate rule below; b = log 4 = 1.39 at c = 2
        assert build_report(benchmark_config, law, 2.0).flags == ""

    @pytest.mark.parametrize(
        "law",
        [law for law in MIXTURE_LAWS if not law.class_descriptor().regularly_varying]
        + [LogNormal(), ChiSquare(5.0, scale=2.0), Bessel(5.0, 2.0)],
        ids=lambda law: f"{law.family}-{law.scale:g}",
    )
    def test_no_unflagged_prediction_below_a_laplace_rate_of_one(self, benchmark_config, law):
        desc = law.class_descriptor()
        unflagged = 0
        for c in np.linspace(0.1, 8.0, 80):
            try:
                report = build_report(benchmark_config, law, c)
            except FloatingPointError:
                # P_tube underflows: chi(3) above c = 6.1, where no row exists
                assert law.family == "chi" and c > 6.0
                continue
            if report.flags == "":
                assert excursion._laplace_rate(law, desc, c) >= 1.0, c
                unflagged += 1
            elif report.flags == "pre_asymptotic":
                # a flagged prediction is still printed
                assert report.delta_prediction == math.exp(
                    log_delta_asymptotic(benchmark_config, law, c))
        # every law with a correction term has rows past the gate
        assert (unflagged > 0) == (law.family != "chi")

    def test_capping_at_small_threshold(self, benchmark_config, t_law):
        report = build_report(benchmark_config, t_law, 1e-6)
        assert report.p_tube > 1.0
        assert report.p_tube_capped == 1.0
        assert report.p_exact <= 1.0

    def test_report_matches_exact_probability_and_error(self, benchmark_config, t_law):
        for c in (1.0, 6.0):
            report = build_report(benchmark_config, t_law, c)
            assert report.p_exact == p_exact(benchmark_config, t_law, c)
            assert report.delta_exact == delta_exact(benchmark_config, t_law, c)

    @pytest.mark.parametrize(
        "c, expected",
        # mpmath inclusion-exclusion over the equicorrelated normal orthant
        # probabilities of two and three points, 30-digit working precision
        [(10.0, 5.914812000050609e-15), (20.0, 2.4565137508299954e-54)],
    )
    def test_gaussian_deep_tail_error(self, benchmark_config, gauss_law, c, expected):
        report = build_report(benchmark_config, gauss_law, c)
        assert report.delta_exact == pytest.approx(expected, rel=1e-4, abs=0.0)
