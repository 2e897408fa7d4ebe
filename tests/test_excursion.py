import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq
from scipy.special import beta as beta_function
from scipy.special import betainc, erfc, ndtr

from spheretail import excursion
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
    log_delta_asymptotic,
    marginal_tail,
    p_bounds,
    p_exact,
    p_tube,
    simulate_pmax,
    solve_threshold,
    tail_dependence,
)
from spheretail.cli import REPRODUCE_CASES


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
        assert se == float.fromhex("0x1.1f89a6a7e893cp-14")  # 6.85543296854761e-05


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


def random_config(n, n_points, seed):
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n_points, n))
    return PointConfiguration.from_points(points / np.linalg.norm(points, axis=1, keepdims=True))


# configurations of every direction rule: n = 2 and 3 (anchored), n > 3 (Sobol),
# plus a single point and an antipodal pair
MOMENT_CONFIGS = [
    *(random_config(n, n_points, seed=n) for n, n_points in ((2, 3), (3, 4), (5, 6), (10, 8))),
    PointConfiguration.from_points([[1.0, 0.0, 0.0]]),
    PointConfiguration.from_points([[0.0, 0.0, 0.0, 0.0, 1.0]]),
    PointConfiguration.from_points([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
    PointConfiguration.from_points([[1.0, 0.0], [-1.0, 0.0]]),
]


def per_node_profiles(config):
    """cos^2 local angles at every node of the direction rule, point by point."""
    if config.n_points == 1:
        return [np.zeros(1)]
    return [
        config.cos_sq_local_angle(i, config.normal_directions(i))
        for i in range(config.n_points)
    ]


class TestDirectionMoments:
    """The moment form of the direction averages against node-by-node evaluation."""

    def test_piece_index_matches_binary_search(self):
        psi = excursion._psi_grid(math.pi / 2.0)
        rng = np.random.default_rng(5)
        x = np.concatenate([
            psi, np.nextafter(psi[1:], 0.0), np.nextafter(psi[:-1], 2.0),
            rng.uniform(0.0, math.pi / 2.0, 10**5),
            np.arcsin(np.sqrt(rng.uniform(0.0, 1e-12, 10**4))), [5e-324, 1e-300],
        ])
        expected = np.clip(np.searchsorted(psi, x, side="right") - 1, 0, psi.size - 2)
        assert np.array_equal(excursion._psi_piece(psi, x), expected)

    @pytest.mark.parametrize("config", MOMENT_CONFIGS, ids=lambda g: f"n{g.dim}N{g.n_points}")
    def test_corrections_and_se_match_per_node_pchip(self, config):
        n = config.dim
        for law in (ChiSquare(float(n)), FDist(float(n), 3.0)):
            for c in (0.5, 2.0, 5.0):
                psi, cum = excursion._cumulative_mixture(law, n, 1, c, math.pi / 2.0)
                with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                    mixture = PchipInterpolator(psi, cum)
                corrections = var = 0.0
                for a in per_node_profiles(config):
                    vals = 0.5 * mixture(np.arcsin(np.sqrt(a)))
                    corrections += vals.mean()
                    var += vals.var() / vals.size
                tube = p_tube(config, law, c)
                value, se = p_exact(config, law, c, with_se=True)
                assert delta_exact(config, law, c) == pytest.approx(
                    corrections / tube, rel=1e-13, abs=0.0
                )
                assert value == pytest.approx(tube - corrections, rel=1e-13, abs=0.0)
                expected_se = math.sqrt(var) if n > 3 else 0.0
                assert se == pytest.approx(expected_se, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("config", MOMENT_CONFIGS, ids=lambda g: f"n{g.dim}N{g.n_points}")
    def test_rv_limit_matches_per_node_betainc(self, config):
        for gamma in (0.5, 1.5, 5.0):
            p, q = gamma + 0.5, (config.dim - 1) / 2.0
            expected = np.mean(
                [betainc(p, q, a).mean() for a in per_node_profiles(config)]
            )
            assert delta_rv_limit(config, gamma) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_rv_limit_is_not_negative_where_it_vanishes(self):
        # rounding leaves cos^2 angles of 1.8e-34 at this antipodal pair, where
        # the cubic pieces of the Beta distribution function dip below 0
        config = PointConfiguration.from_points([[0.6, 0.8], [-0.6, -0.8]])
        for gamma in (0.5, 1.5, 5.0):
            assert 0.0 <= delta_rv_limit(config, gamma) < 1e-30


class TestRegularlyVaryingLimit:
    def test_single_point_is_zero(self, single_point):
        assert delta_rv_limit(single_point, 1.5) == 0.0

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


class TestDeltaBar:
    def test_benchmark_value_exact(self, benchmark_config):
        assert delta_bar(benchmark_config, 1.5) == 0.390625

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
        excursion._mixture.cache_clear()
        c = solve_threshold(benchmark_config, LogNormal(scale=1e-12), 0.3, method="tube")
        assert excursion._mixture.cache_info().misses <= 5
        assert c == pytest.approx(1e-6 * c_unit, rel=1e-9)
        # F(3, 0.01) still exceeds the target at c = 2^200, which the tail
        # bound cannot rule out: that end is checked before the search starts
        excursion._mixture.cache_clear()
        with pytest.raises(ValueError, match="failed to bracket the threshold"):
            solve_threshold(benchmark_config, FDist(3.0, 0.01), 0.1, method="tube")
        assert excursion._mixture.cache_info().misses <= 1

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
        excursion._mixture.cache_clear()
        with pytest.raises(ValueError, match=r"not attainable \(must lie in \(0, 0\.5\)\)"):
            solve_threshold(single_point, ChiSquare(3.0), 0.50000001, method=method)
        assert excursion._mixture.cache_info().misses == 1

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
        # the computed tail, and with it P, drops to 0 near c = 37.9414 before P
        # reaches 1e-320, and the first point, where the tail bound meets the
        # target, already lies there
        with pytest.raises(ValueError, match=r"c=37\.94\d* while solving for target 1e-320"):
            solve_threshold(benchmark_config, gauss_law, 1e-320, method="tube")

    @pytest.mark.parametrize("target", [0.3, 0.1, 1e-3, 1e-6])
    @pytest.mark.parametrize("method", ["tube", "exact"])
    @pytest.mark.parametrize("case", sorted(REPRODUCE_CASES))
    def test_few_mixture_builds_and_brent_accuracy(self, benchmark_config, case, method, target):
        law = REPRODUCE_CASES[case]["law"]
        excursion._mixture.cache_clear()
        c = solve_threshold(benchmark_config, law, target, method=method)
        builds = excursion._mixture.cache_info().misses
        assert builds <= (6 if target <= 0.1 else 8)
        prob = p_tube if method == "tube" else p_exact

        def log_excess(x):
            return math.log(prob(benchmark_config, law, x)) - math.log(target)

        tol = 1e-10 * (1.0 + c)
        reference = brentq(log_excess, c - 10.0 * tol, c + 10.0 * tol, xtol=1e-14)
        assert abs(c - reference) <= tol

    def test_root_finder_tolerance_saves_a_build(self, benchmark_config):
        # a model step must land within the search's own 1e-10 c of the root:
        # with find_root stopping at 1e-10 (1 + |t|) in t = log c the step fell
        # 1e-9 c short and the next one bisected, a third build
        excursion._mixture.cache_clear()
        c = solve_threshold(benchmark_config, FDist(3.0, 1.0), 1e-6, method="exact")
        assert excursion._mixture.cache_info().misses == 2
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

    def test_subexp_report_fields(self, benchmark_config, gauss_law):
        report = build_report(benchmark_config, gauss_law, 4.0)
        assert report.branch == "SUBEXP"
        assert math.isnan(report.p_lower)
        assert math.isnan(report.delta_bar)
        assert report.delta_prediction == pytest.approx(
            math.exp(log_delta_asymptotic(benchmark_config, gauss_law, 4.0)), rel=1e-12
        )

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
