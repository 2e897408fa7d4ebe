import math

import numpy as np
import pytest
from scipy.special import betaln, gammaln, ndtr

from spheretail import (
    QuadratureError,
    find_root,
    integrate,
    reg_inc_beta,
    reg_inc_gamma_upper,
)

# High-precision oracle values (40-digit arbitrary-precision quadrature /
# gamma evaluations), frozen.
Q_3_HALVES_AT_2 = 0.2614641299491106222028
INC_BETA_ORACLE = 0.01892712407194565165345  # I_0.3(2.5, 0.5)


class TestRegIncBeta:
    def test_full_mass(self):
        assert reg_inc_beta(1.0, 2.0, 3.0) == pytest.approx(1.0, abs=1e-14)

    def test_sqrt_case(self):
        # I_x(1/2, 1) = sqrt(x)
        assert reg_inc_beta(0.25, 0.5, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_square_case(self):
        # I_x(2, 1) = x^2
        assert reg_inc_beta(0.625, 2.0, 1.0) == pytest.approx(0.390625, abs=1e-14)

    def test_oracle_value(self):
        assert reg_inc_beta(0.3, 2.5, 0.5) == pytest.approx(INC_BETA_ORACLE, rel=1e-12)

    def test_reflection_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.uniform(0.0, 1.0)
            p, q = rng.uniform(0.2, 8.0, size=2)
            total = reg_inc_beta(x, p, q) + reg_inc_beta(1.0 - x, q, p)
            assert abs(total - 1.0) <= 1e-10

    def test_agrees_with_quadrature_of_density(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            x = rng.uniform(0.05, 0.95)
            p, q = rng.uniform(0.5, 5.0, size=2)
            direct = integrate(
                lambda y: y ** (p - 1.0) * (1.0 - y) ** (q - 1.0), 0.0, x
            ) / math.exp(betaln(p, q))
            assert reg_inc_beta(x, p, q) == pytest.approx(direct, abs=1e-8)

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 1.0, 25)
        vals = reg_inc_beta(xs, 1.7, 0.6)
        assert np.all(np.diff(vals) >= 0.0)
        assert vals[0] == 0.0 and vals[-1] == pytest.approx(1.0, abs=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reg_inc_beta(1.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, 0.0, 1.0)


class TestRegIncGammaUpper:
    def test_zero_lower_limit(self):
        assert reg_inc_gamma_upper(0.5, 0.0) == 1.0

    def test_exponential_case(self):
        assert reg_inc_gamma_upper(1.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-13)

    def test_three_halves_closed_form(self):
        # Pr(chi2_3 > 4) = 2(1 - Phi(2)) + sqrt(8/pi) e^-2, an independent
        # normal-tail identity, plus the frozen high-precision value.
        oracle = 2.0 * (1.0 - ndtr(2.0)) + math.sqrt(8.0 / math.pi) * math.exp(-2.0)
        value = reg_inc_gamma_upper(1.5, 2.0)
        assert value == pytest.approx(oracle, rel=1e-12)
        assert value == pytest.approx(Q_3_HALVES_AT_2, rel=1e-13)

    def test_three_halves_monte_carlo(self):
        # sum of three squared normals exceeding 4
        rng = np.random.default_rng(202)
        z = rng.standard_normal((10**6, 3))
        freq = np.mean((z**2).sum(axis=1) > 4.0)
        se = math.sqrt(freq * (1.0 - freq) / 10**6)
        assert abs(freq - reg_inc_gamma_upper(1.5, 2.0)) <= 4.0 * se

    def test_agrees_with_density_quadrature(self):
        for s, x in [(0.7, 0.5), (1.5, 2.0), (4.0, 6.0)]:
            big = x + 80.0
            piece = integrate(
                lambda t: math.exp((s - 1.0) * math.log(t) - t - gammaln(s)), x, big
            )
            remainder = reg_inc_gamma_upper(s, big)
            assert reg_inc_gamma_upper(s, x) == pytest.approx(piece + remainder, abs=1e-8)

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 30.0, 40)
        vals = reg_inc_gamma_upper(2.3, xs)
        assert np.all(np.diff(vals) <= 0.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reg_inc_gamma_upper(-1.0, 2.0)
        with pytest.raises(ValueError):
            reg_inc_gamma_upper(1.0, -0.5)


class TestIntegrate:
    def test_linear(self):
        assert integrate(lambda x: x, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_endpoint_singularity(self):
        assert integrate(lambda x: x**-0.5, 0.0, 1.0) == pytest.approx(2.0, rel=1e-9)

    def test_beta_integrand(self):
        value = integrate(lambda x: x**-0.5 * (1.0 - x) ** 0.5, 0.0, 1.0)
        assert value == pytest.approx(math.exp(betaln(0.5, 1.5)), rel=1e-10)
        assert value == pytest.approx(math.pi / 2.0, rel=1e-10)

    def test_linearity(self):
        f = lambda x: math.sin(x)
        g = lambda x: x**2
        combined = integrate(lambda x: 2.0 * f(x) + 3.0 * g(x), 0.0, 2.0)
        parts = 2.0 * integrate(f, 0.0, 2.0) + 3.0 * integrate(g, 0.0, 2.0)
        assert combined == pytest.approx(parts, rel=1e-9)

    def test_failure_carries_estimate(self):
        # 1/x diverges at 0: the fixed rule exhausts its subdivision budget
        with pytest.raises(QuadratureError) as err:
            integrate(lambda x: 1.0 / x, 0.0, 1.0)
        assert math.isfinite(err.value.estimate) and err.value.estimate > 1.0
        assert err.value.error_bound > 0.0
        assert str(err.value).endswith(
            f"(estimate {err.value.estimate:.6g}, "
            f"error bound {err.value.error_bound:.6g})"
        )

    def test_deterministic(self):
        f = lambda x: math.exp(-x) * math.cos(7.0 * x)
        assert integrate(f, 0.0, 5.0) == integrate(f, 0.0, 5.0)


class TestFindRoot:
    def test_linear(self):
        assert find_root(lambda x: x - 1.0, 0.0, 2.0) == pytest.approx(1.0, abs=1e-9)

    def test_sqrt_two(self):
        root = find_root(lambda x: x * x - 2.0, 0.0, 2.0)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_no_sign_change(self):
        with pytest.raises(ValueError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_endpoint_roots(self):
        assert find_root(lambda x: x, 0.0, 1.0) == 0.0
        assert find_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0
