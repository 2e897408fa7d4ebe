import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from scipy.stats import qmc

from spheretail import PointConfiguration
from spheretail import geometry

from conftest import equicorrelated, psi_angle_oracle, random_config, sobol_gaussians


def random_rotation(dim, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    q[:, 0] *= np.linalg.det(q)  # proper rotation: keeps the orientation of u_i x v0
    return q


class TestConstruction:
    def test_identity_correlation(self):
        config = PointConfiguration.from_correlation(np.eye(3))
        assert config.dim == 3
        assert np.allclose(config.correlation, np.eye(3), atol=1e-12)
        assert config.rho_star == pytest.approx(0.0, abs=1e-12)
        assert config.theta_star == pytest.approx(math.pi / 4.0, abs=1e-12)

    def test_benchmark_configuration(self, benchmark_config):
        assert benchmark_config.dim == 3
        assert benchmark_config.rho_star == pytest.approx(0.25, abs=1e-12)
        assert abs(benchmark_config.theta_star - math.acos(math.sqrt(5.0 / 8.0))) <= 1e-12
        assert benchmark_config.multiplicity == 6

    def test_tan_theta_star(self, benchmark_config):
        expected = math.sqrt((1.0 - 0.25) / (1.0 + 0.25))
        assert benchmark_config.tan_theta_star == pytest.approx(expected, rel=1e-12)

    def test_non_psd_rejected(self):
        rho = np.array([[1.0, 0.9, 0.0], [0.9, 1.0, 0.9], [0.0, 0.9, 1.0]])
        with pytest.raises(ValueError, match="positive semidefinite"):
            PointConfiguration.from_correlation(rho)

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError, match="duplicated"):
            PointConfiguration.from_correlation([[1.0, 1.0], [1.0, 1.0]])
        u = [1.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="duplicated"):
            PointConfiguration.from_points([u, u])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ValueError, match="points must be finite"):
            PointConfiguration.from_points([[1.0, 0.0, 0.0], [bad, 0.0, 0.0]])
        rho = [[1.0, bad, 0.0], [bad, 1.0, 0.0], [0.0, 0.0, 1.0]]
        with pytest.raises(ValueError, match="correlation matrix must be finite"):
            PointConfiguration.from_correlation(rho)

    def test_rank_deficient_correlation_drops_dimensions(self):
        # three points on a great circle: rank 2
        angles = [0.0, 1.0, 2.0]
        pts = np.array([[math.cos(a), math.sin(a), 0.0] for a in angles])
        config = PointConfiguration.from_correlation(pts @ pts.T)
        assert config.dim == 2

    def test_gram_roundtrip(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            pts = rng.standard_normal((4, 3))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            gram = pts @ pts.T
            rebuilt = PointConfiguration.from_correlation(gram)
            assert np.max(np.abs(rebuilt.correlation - gram)) <= 1e-10

    @pytest.mark.parametrize("points, message", [
        ([1.0, 0.0, 0.0], "points must be a 2-d array of shape"),
        (np.empty((0, 3)), "at least one point is required"),
        ([[1.0], [-1.0]], "ambient dimension must be at least 2"),
    ])
    def test_malformed_points_rejected(self, points, message):
        with pytest.raises(ValueError, match=message):
            PointConfiguration.from_points(points)

    @pytest.mark.parametrize("rho, message", [
        ([[1.0, 0.2, 0.1], [0.2, 1.0, 0.3]], "correlation matrix must be square"),
        ([[1.0, 0.2], [0.3, 1.0]], "correlation matrix must be symmetric"),
        ([[1.0, 0.2], [0.2, 0.9]], "correlation matrix must have unit diagonal"),
        ([[1.0, -1.0], [-1.0, 1.0]], "correlation matrix has rank below 2"),  # antipodal pair
    ])
    def test_malformed_correlation_rejected(self, rho, message):
        with pytest.raises(ValueError, match=message):
            PointConfiguration.from_correlation(rho)

    def test_non_unit_points_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            PointConfiguration.from_points([[1.0, 1.0, 0.0]])

    def test_points_are_frozen(self, benchmark_config):
        with pytest.raises(ValueError):
            benchmark_config.points[0, 0] = 2.0

    def test_antipodal_pair_accepted(self):
        config = PointConfiguration.from_points([[1.0, 0.0], [-1.0, 0.0]])
        assert config.rho_star == pytest.approx(-1.0, abs=1e-12)
        # the cotangent rule gives angle pi/2 in the only normal direction pair
        assert np.array_equal(config.cos_sq_local_angle(0, [[0.0, 1.0], [0.0, -1.0]]), [0.0, 0.0])


class TestValueEquality:
    """Configurations compare and hash by the shape and bits of their points."""

    def test_two_factorisations_of_one_matrix_are_equal(self):
        rho = equicorrelated(4, 0.3)
        a = PointConfiguration.from_correlation(rho)
        b = PointConfiguration.from_correlation(rho)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_json_round_trip_of_the_points_is_equal(self):
        config = random_config(5, 4, seed=3)
        rebuilt = PointConfiguration.from_points(json.loads(json.dumps(config.points.tolist())))
        assert rebuilt == config
        assert hash(rebuilt) == hash(config)

    def test_signed_zeros_differ(self):
        plus = PointConfiguration.from_points([[1.0, 0.0], [0.0, 1.0]])
        minus = PointConfiguration.from_points([[1.0, -0.0], [0.0, 1.0]])
        assert np.array_equal(plus.points, minus.points)
        assert plus != minus

    def test_shape_is_part_of_the_key(self):
        # the squared norms of valid points sum to N, so no two valid
        # configurations of different shapes share their bytes: the reshaped
        # points are set past the constructor's checks
        a = PointConfiguration.from_points([[0.6, 0.8, 0.0], [0.0, 0.6, 0.8]])
        b = object.__new__(PointConfiguration)
        object.__setattr__(b, "points", a.points.reshape(3, 2))
        assert b.points.tobytes() == a.points.tobytes()
        assert a != b and b != a

    @pytest.mark.parametrize("other", [None, 1.0, "points", [[1.0, 0.0], [0.0, 1.0]]])
    def test_a_non_configuration_is_unequal(self, other):
        config = PointConfiguration.from_points([[1.0, 0.0], [0.0, 1.0]])
        assert (config == other) is False
        assert (other == config) is False
        assert config != other
        assert config.__eq__(other) is NotImplemented


class TestLocalAngle:
    def test_orthogonal_pair_toward_neighbor(self):
        config = PointConfiguration.from_points([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        a = config.cos_sq_local_angle(0, [0.0, 1.0, 0.0])
        assert a.shape == (1,)
        assert a[0] == pytest.approx(0.5, abs=1e-12)

    def test_single_point_convention(self):
        config = PointConfiguration.from_points([[1.0, 0.0, 0.0]])
        a = config.cos_sq_local_angle(0, [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.array_equal(a, [0.0, 0.0])

    def test_quarter_correlation_toward_neighbor(self):
        u1 = np.array([1.0, 0.0, 0.0])
        u2 = np.array([0.25, math.sqrt(1.0 - 0.0625), 0.0])
        config = PointConfiguration.from_points([u1, u2])
        v = u2 - 0.25 * u1
        v /= np.linalg.norm(v)
        a = float(config.cos_sq_local_angle(0, v)[0])
        assert a == pytest.approx(5.0 / 8.0, abs=1e-12)
        # independent construction: the geodesic midpoint of the pair
        midpoint = (u1 + u2) / np.linalg.norm(u1 + u2)
        assert a == pytest.approx(float(u1 @ midpoint) ** 2, abs=1e-12)

    def test_rotation_invariance(self, benchmark_config):
        rot = random_rotation(3, seed=13)
        rotated = PointConfiguration.from_points(benchmark_config.points @ rot.T)
        for i in range(benchmark_config.n_points):
            dirs = benchmark_config.normal_directions(i)
            # the rule is built from the geometry, so it rotates with the points
            assert np.allclose(rotated.normal_directions(i), dirs @ rot.T, atol=1e-12)
            a = benchmark_config.cos_sq_local_angle(i, dirs)
            b = rotated.cos_sq_local_angle(i, dirs @ rot.T)
            assert np.allclose(a, b, atol=1e-12)


class TestPointIndex:
    """A point index is read by the package's integer rule,
    ``radial_laws._as_integer``, and may count from the end like a sequence
    index: -N <= i < N."""

    SMALL = [[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [0.0, 0.6, 0.8]]
    DIRECTIONS = [[0.5, 0.3, 0.2], [0.1, 0.9, 0.4], [0.3, -0.2, 0.9]]

    @pytest.mark.parametrize("points, rows", [(SMALL, 2), ("benchmark", 3)])
    def test_negative_index_counts_from_the_end(self, benchmark_config, points, rows):
        # i = -1 once kept the point itself among its neighbours: 0/0 on the
        # first configuration, and on the benchmark one a point that counted
        # as its own neighbour where rho_ii rounds below 1
        config = benchmark_config if points == "benchmark" else PointConfiguration.from_points(points)
        z = np.array(self.DIRECTIONS[:rows])
        assert np.array_equal(config.cos_sq_local_angle(-1, z), config.cos_sq_local_angle(2, z))
        for i in range(-3, 0):
            assert np.array_equal(config.normal_directions(i), config.normal_directions(i + 3))
            assert np.array_equal(
                config.nearest_neighbor_direction(i), config.nearest_neighbor_direction(i + 3)
            )

    @pytest.mark.parametrize("method", ["cos_sq_local_angle", "normal_directions",
                                        "nearest_neighbor_direction"])
    @pytest.mark.parametrize("value", [True, 1.5, "0", np.array(0), None], ids=repr)
    def test_an_index_that_is_not_an_integer_is_refused(self, benchmark_config, method, value):
        # True once indexed as a new axis: normal_directions(True) had shape (4096, 9)
        args = (value, [0.0, 0.0, 1.0]) if method == "cos_sq_local_angle" else (value,)
        with pytest.raises(ValueError, match="^point index must be an integer, got "):
            getattr(benchmark_config, method)(*args)

    @pytest.mark.parametrize("value", [3, -4])
    def test_an_index_out_of_range_names_it_and_the_count(self, benchmark_config, value):
        for call in (
            lambda: benchmark_config.cos_sq_local_angle(value, [0.0, 0.0, 1.0]),
            lambda: benchmark_config.normal_directions(value),
            lambda: benchmark_config.nearest_neighbor_direction(value),
        ):
            with pytest.raises(ValueError, match=f"^point index {value} is out of range for 3 points$"):
                call()

    def test_integral_values_read_as_the_index(self, benchmark_config):
        for value in (1.0, np.int64(1)):
            assert np.array_equal(
                benchmark_config.normal_directions(value), benchmark_config.normal_directions(1)
            )


class TestLocalAngleKernel:
    """The one kernel behind every local angle, against explicit projection."""

    @pytest.mark.parametrize("config", [
        *(random_config(n, n_points, seed=n) for n, n_points in ((4, 3), (5, 6), (10, 8))),
        PointConfiguration.from_points([np.eye(6)[2]]),
    ], ids=lambda g: f"n{g.dim}N{g.n_points}")
    def test_rule_angles_match_projected_oracle(self, config):
        for i in range(config.n_points):
            angles = config._rule_psi_angles(i)
            assert angles.shape == (2**14,)
            assert np.max(np.abs(angles - psi_angle_oracle(config, i))) <= 1e-13

    def test_raw_sobol_rows_stand_for_the_rule(self):
        config = random_config(5, 6, seed=5)
        for i in range(config.n_points):
            a = config.cos_sq_local_angle(i, sobol_gaussians(5))
            b = config.cos_sq_local_angle(i, config.normal_directions(i))
            assert np.max(np.abs(a - b)) <= 1e-13

    def test_scaled_and_shifted_rows_match_the_unit_normal_row(self, benchmark_config):
        rng = np.random.default_rng(21)
        for i in range(benchmark_config.n_points):
            u = benchmark_config.points[i]
            dirs = benchmark_config.normal_directions(i)[::97]
            a = benchmark_config.cos_sq_local_angle(i, dirs)
            for scale in (2.0, 0.3, 7.5, 1e200, 1e-200):
                assert np.max(np.abs(benchmark_config.cos_sq_local_angle(i, scale * dirs) - a)) <= 1e-15
            for shift in (0.5, -0.5, rng.uniform(-0.5, 0.5)):
                moved = dirs + shift * u
                assert np.max(np.abs(benchmark_config.cos_sq_local_angle(i, moved) - a)) <= 1e-15

    def test_nearest_neighbor_row_in_any_form(self, benchmark_config):
        # cos^2 theta* = (1 + rho*) / 2 toward the neighbour, however the row is given
        u = benchmark_config.points[0]
        v0 = benchmark_config.nearest_neighbor_direction(0)
        a = benchmark_config.cos_sq_local_angle(0, [v0, 2.0 * v0, v0 + 0.5 * u])
        assert np.allclose(a, 0.625, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("n, n_points", [(3, 3), (5, 10), (10, 50)])
    def test_a_row_keeps_its_bits_at_any_power_of_two(self, n, n_points):
        # rows are scaled by a power of two before any square is formed, so a
        # row keeps its bits at any such scale, where its squared norm overflows too
        config = random_config(n, n_points, seed=n_points)
        rows = np.random.default_rng(100 + n).standard_normal((500, n))
        for i in (0, n_points - 1):
            a = config.cos_sq_local_angle(i, rows)
            for exponent in (600, -600, 1000, -1000):
                assert np.array_equal(config.cos_sq_local_angle(i, np.ldexp(rows, exponent)), a)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_row_that_is_not_finite_is_refused(self, benchmark_config, bad):
        rows = benchmark_config.normal_directions(0)[:3].copy()
        rows[1, 0] = bad
        with pytest.raises(ValueError, match="^directions must be finite$"):
            benchmark_config.cos_sq_local_angle(0, rows)

    @pytest.mark.parametrize("shape, read", [
        ((2,), (1, 2)), ((4,), (1, 4)), ((5, 4), (5, 4)), ((2, 2, 3), (2, 2, 3)),
    ])
    def test_rows_of_another_width_are_refused(self, benchmark_config, shape, read):
        message = re.escape(f"directions must have width 3, got shape {read}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            benchmark_config.cos_sq_local_angle(0, np.ones(shape))

    def test_row_along_the_point_raises(self, benchmark_config):
        u = benchmark_config.points[0]
        for row in (u, -3.0 * u, [u, benchmark_config.nearest_neighbor_direction(0)]):
            with pytest.raises(ValueError, match="no component normal to point 0"):
                benchmark_config.cos_sq_local_angle(0, row)


class TestCriticalRadius:
    def test_monotone_in_rho(self):
        thetas = []
        for rho in (0.0, 0.25, 0.5, 0.9, 0.999):
            config = PointConfiguration.from_correlation(equicorrelated(2, rho))
            thetas.append(config.theta_star)
        assert all(a > b for a, b in zip(thetas, thetas[1:]))
        assert thetas[-1] < 0.03  # rho* -> 1 drives the radius to zero

    def test_degenerate_single_point(self):
        config = PointConfiguration.from_points([[0.0, 0.0, 1.0]])
        assert config.rho_star is None
        assert config.cos_sq_theta_star == 0.0
        assert config.theta_star == math.pi / 2.0
        assert config.tan_theta_star == math.inf
        with pytest.raises(ValueError, match="multiplicity requires at least two points"):
            config.multiplicity

    @pytest.mark.parametrize("points", [
        [[0.6, 0.8], [-0.6, -0.8]],
        [[0.0, 0.6, 0.8], [0.0, -0.6, -0.8]],
    ])
    def test_antipodal_pair_has_a_right_angle_radius(self, points):
        config = PointConfiguration.from_points(points)
        assert config.rho_star == -1.0
        assert config.cos_sq_theta_star == 0.0
        assert config.theta_star == math.pi / 2.0
        assert config.tan_theta_star == math.inf

    def test_multiplicity_counts_ordered_pairs(self):
        pair = PointConfiguration.from_correlation(equicorrelated(2, 0.3))
        assert pair.multiplicity == 2
        # distinct correlations: only the maximal pair, in both orders
        a, b = 0.5, 0.3
        pts = np.array(
            [
                [1.0, 0.0, 0.0],
                [a, math.sqrt(1 - a * a), 0.0],
                [b, 0.0, math.sqrt(1 - b * b)],
            ]
        )
        config = PointConfiguration.from_points(pts)
        assert config.multiplicity == 2

    def test_matches_minimum_over_normal_circle(self, benchmark_config):
        # fine grid over each normal circle; resolution-limited agreement
        phi = np.linspace(0.0, 2.0 * math.pi, 20001)
        smallest = math.inf
        for i in range(benchmark_config.n_points):
            v0 = benchmark_config.nearest_neighbor_direction(i)
            w = np.cross(benchmark_config.points[i], v0)
            dirs = np.outer(np.cos(phi), v0) + np.outer(np.sin(phi), w)
            a = benchmark_config.cos_sq_local_angle(i, dirs)
            smallest = min(smallest, math.acos(math.sqrt(float(a.max()))))
        assert smallest == pytest.approx(benchmark_config.theta_star, abs=1e-6)


def circle_angles(config, i):
    """Angles of the normal directions at u_i in the frame (v0, u_i x v0)."""
    v0 = config.nearest_neighbor_direction(i)
    w = np.cross(config.points[i], v0)
    dirs = config.normal_directions(i)
    return np.arctan2(dirs @ w, dirs @ v0)


def assert_unit_and_normal(config, i, dirs):
    assert dirs.ndim == 2 and dirs.shape[1] == config.dim
    assert np.max(np.abs(np.linalg.norm(dirs, axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(dirs @ config.points[i])) <= 1e-12


class TestNormalDirections:
    def test_phi_zero_points_at_nearest_neighbor(self, benchmark_config):
        dirs = benchmark_config.normal_directions(0)
        v0 = benchmark_config.nearest_neighbor_direction(0)
        assert dirs.shape == (4096, 3)
        assert np.allclose(dirs[0], v0, atol=1e-12)
        a = benchmark_config.cos_sq_local_angle(0, dirs[:1])
        assert a[0] == pytest.approx((1.0 + 0.25) / 2.0, abs=1e-12)

    def test_construction_is_orthonormal(self, benchmark_config, pair_config):
        configs = [
            pair_config,
            benchmark_config,
            PointConfiguration.from_points([[1.0, 0.0], [-1.0, 0.0]]),
            PointConfiguration.from_points([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
            PointConfiguration.from_correlation(equicorrelated(4, 0.2)),
            PointConfiguration.from_correlation(equicorrelated(10, 0.1)),
        ]
        assert [c.dim for c in configs] == [2, 3, 2, 3, 4, 10]
        for config in configs:
            for i in range(config.n_points):
                assert_unit_and_normal(config, i, config.normal_directions(i))

    def test_higher_dimension(self):
        config = PointConfiguration.from_correlation(equicorrelated(4, 0.2))
        assert config.dim == 4
        first = config.normal_directions(1)
        assert first.shape == (2**14, 4)
        first_copy = first.copy()
        first[:] = 0.0  # the caller owns the returned array
        assert np.array_equal(config.normal_directions(1), first_copy)

    def test_pair_sideways_direction_gives_right_angle(self):
        config = PointConfiguration.from_points([[1.0, 0.0, 0.0], [0.25, math.sqrt(0.9375), 0.0]])
        dirs = config.normal_directions(0)
        # node 1024 of 4096 sits at phi = pi/2, orthogonal to the neighbor
        assert config.cos_sq_local_angle(0, dirs[1024:1025])[0] == pytest.approx(0.0, abs=1e-12)

    def test_antipodal_neighbor_fallback(self):
        # the tangent toward an antipodal neighbor is not unique; the fallback
        # is the second QR column of [u_i, I], frozen here
        cases = [
            ([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], [0.0, 1.0, 0.0]),
            ([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], [-1.0, 0.0, 0.0]),
            ([[1.0, 0.0], [-1.0, 0.0]], [0.0, 1.0]),
            ([[0.6, 0.8, 0.0], [-0.6, -0.8, 0.0]], [-0.8, 0.6, 0.0]),
        ]
        for points, expected in cases:
            config = PointConfiguration.from_points(points)
            assert np.array_equal(config.nearest_neighbor_direction(0), expected)
            assert np.array_equal(config.nearest_neighbor_direction(1), expected)

    @pytest.mark.parametrize("dim, size", [(2, 2), (3, 4096), (5, 2**14)])
    def test_single_point_rule(self, dim, size):
        # a lone point is anchored like an antipodal neighbor: at the second
        # QR column of [u, I], and no direction sees another point
        config = PointConfiguration.from_points([np.eye(dim)[0]])
        assert np.array_equal(config.nearest_neighbor_direction(0), np.eye(dim)[1])
        dirs = config.normal_directions(0)
        assert dirs.shape == (size, dim)
        assert_unit_and_normal(config, 0, dirs)
        assert np.array_equal(config.cos_sq_local_angle(0, dirs), np.zeros(size))

    def test_higher_dimension_rule_depends_only_on_the_point(self):
        # for n > 3 the rule projects one shared sample, so it ignores the
        # other points of the configuration
        u = np.array([0.5, 0.5, 0.5, 0.5, 0.0])
        a = PointConfiguration.from_points([u, [1.0, 0.0, 0.0, 0.0, 0.0]])
        b = PointConfiguration.from_points([[0.0, 0.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 0.0, 0.0], u])
        assert np.array_equal(a.normal_directions(0), b.normal_directions(2))

    def test_dimension_two_is_plus_minus_neighbor(self, pair_config):
        for i in range(2):
            v0 = pair_config.nearest_neighbor_direction(i)
            assert np.array_equal(pair_config.normal_directions(i), np.vstack([v0, -v0]))

    def test_closed_form_profile_near_neighbor(self, benchmark_config):
        # on the arc where the nearest neighbor attains the maximum the
        # squared cosine has an explicit form in the circle angle
        rho = 0.25
        phi = circle_angles(benchmark_config, 0)
        near = np.abs(phi) <= 0.3
        assert np.count_nonzero(near) > 300
        a = benchmark_config.cos_sq_local_angle(0, benchmark_config.normal_directions(0)[near])
        cos_sq_phi = np.cos(phi[near]) ** 2
        expected = (1.0 + rho) * cos_sq_phi / (1.0 - rho + (1.0 + rho) * cos_sq_phi)
        assert np.allclose(a, expected, rtol=0.0, atol=1e-10)


class TestNormalSampling:
    """The directions as an equal-weight sample of the normal sphere."""

    def test_orthogonality_and_norm(self):
        rng = np.random.default_rng(8)
        for dim, n_points in ((4, 3), (10, 50)):
            pts = rng.standard_normal((n_points, dim))
            config = PointConfiguration.from_points(pts / np.linalg.norm(pts, axis=1, keepdims=True))
            for i in range(n_points):
                assert_unit_and_normal(config, i, config.normal_directions(i))

    def test_mean_is_zero(self):
        for dim in (4, 10):
            config = PointConfiguration.from_correlation(equicorrelated(dim, 0.1))
            dirs = config.normal_directions(0)
            assert np.max(np.abs(dirs.mean(axis=0))) <= 3.0 / math.sqrt(dirs.shape[0])

    def test_circle_angle_uniform(self, benchmark_config):
        # the n = 3 rule is the uniform trapezoidal grid phi_j = 2 pi j / 4096
        phi = np.mod(circle_angles(benchmark_config, 0), 2.0 * math.pi)
        phi[np.isclose(phi, 2.0 * math.pi, rtol=0.0, atol=1e-9)] = 0.0
        assert np.allclose(phi, 2.0 * math.pi * np.arange(4096) / 4096, rtol=0.0, atol=1e-12)


def scipy_sobol(dim, log2_points):
    return qmc.Sobol(d=dim, scramble=True, seed=geometry._QMC_SEED).random_base2(log2_points)


class TestSobolPoints:
    """The numpy generator of the n > 3 sample against scipy's ``qmc.Sobol``."""

    @pytest.mark.parametrize("dim", [4, 5, 6, 10, 20, 31, 64])
    def test_equals_scipy_sobol(self, dim):
        points = geometry._sobol_points(dim, geometry.QMC_LOG2_POINTS)
        assert np.array_equal(points, scipy_sobol(dim, geometry.QMC_LOG2_POINTS).T)

    def test_equals_scipy_sobol_at_the_last_table_row(self):
        assert np.array_equal(geometry._sobol_points(21201, 2), scipy_sobol(21201, 2).T)

    def test_vendored_table_is_scipys(self):
        shipped = np.load(Path(scipy.stats.__file__).with_name("_sobol_direction_numbers.npz"))
        table = np.load(geometry._SOBOL_TABLE)
        assert table.dtype == np.uint32
        assert np.array_equal(table[:, 0], shipped["poly"])
        assert np.array_equal(table[:, 1:], shipped["vinit"])

    def test_beyond_the_table_raises(self):
        with pytest.raises(ValueError, match="dimensionality is 21201"):
            qmc.Sobol(d=21202, scramble=True, seed=geometry._QMC_SEED)
        with pytest.raises(ValueError, match="dimensionality is 21201"):
            geometry._sobol_points(21202, 2)
