import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betaln, gammaincc, gammaln, kve, logsumexp, ndtr

from spheretail import (
    Bessel,
    Chi,
    ChiSquare,
    FDist,
    LogNormal,
    TailClass,
    UnsupportedLawError,
    g_beta,
    law_from_dict,
)
from spheretail.montecarlo import _law_digest
from spheretail.radial_laws import _as_integer, _exp_minus_half_sqrt

# Frozen 40-digit quadrature values for the product-of-chi-squares tail.
BESSEL_TAIL_ORACLE = {
    (3.0, 4.0, 0.5): 0.9649880795204008836537,
    (3.0, 4.0, 10.0): 0.3878320633260521334723,
    (3.0, 4.0, 100.0): 0.002769395715511575943671,
    (3.0, 4.0, 784.0): 2.910962445021825466963e-10,
    (1.5, 2.5, 5.0): 0.2147892032674801125441,
    (1.5, 2.5, 60.0): 0.001441053579177958810839,
}

# Frozen 40-digit values of the regularized incomplete gamma and beta
# functions behind the chi-square and F tails.
Q_3_HALVES_AT_2 = 0.2614641299491106222028  # Q(3/2, 2) = Pr(chi2_3 > 4)
INC_BETA_ORACLE = 0.01892712407194565165345  # I_0.3(2.5, 0.5) = Pr(F(1, 5) > 35/3)

KS_CRITICAL_01_PERCENT = 1.94947 / math.sqrt(10**5)

ALL_FAMILIES = [ChiSquare(3.0), Chi(2.0), FDist(2.0, 5.0), LogNormal(), Bessel(3.0, 4.0)]


def bessel_tail_closed_form(nu1, nu2, x):
    """Product-of-chi-squares tail for even ``nu2``, in log space.

    With a = nu1/2, integer b = nu2/2 and z = x/4,
    P(R > x) = (2 / Gamma(a)) sum_{k<b} z^((a+k)/2) K_{a-k}(2 sqrt z) / k!.
    """
    a, b = nu1 / 2.0, round(nu2 / 2.0)
    assert b == nu2 / 2.0
    z = np.asarray(x, dtype=float) / 4.0
    y = 2.0 * np.sqrt(z)
    log_terms = [
        math.log(2.0) - gammaln(a) - gammaln(k + 1.0)
        + 0.5 * (a + k) * np.log(z) + np.log(kve(a - k, y)) - y
        for k in range(b)
    ]
    return np.exp(logsumexp(log_terms, axis=0))


def bessel_tail_mpmath(nu1, nu2, x):
    """The even-nu2 closed form of ``bessel_tail_closed_form`` in 30-digit mpmath."""
    import mpmath

    with mpmath.workdps(30):
        a, z = mpmath.mpf(nu1) / 2, mpmath.mpf(x) / 4
        total = mpmath.fsum(
            z ** ((a + k) / 2) * mpmath.besselk(a - k, 2 * mpmath.sqrt(z)) / mpmath.factorial(k)
            for k in range(round(nu2 / 2.0))
        )
        return 2 * total / mpmath.gamma(a)


DENSE_NODES, DENSE_WEIGHTS = np.polynomial.legendre.leggauss(1024)


def bessel_tail_dense(nu1, nu2, x):
    """Product-of-chi-squares tail by a 1024-node Gauss-Legendre rule in
    u = log(t / sqrt(x)) on the fixed window |u| <= log(2 + 150/sqrt(x)) + 0.5."""
    s = math.sqrt(x)
    half_width = math.log(2.0 + 150.0 / s) + 0.5
    log_t = math.log(s) + half_width * DENSE_NODES
    t = np.exp(log_t)
    log_fdt = (nu1 / 2.0) * (log_t - math.log(2.0)) - t / 2.0 - gammaln(nu1 / 2.0)
    integrand = np.exp(log_fdt) * gammaincc(nu2 / 2.0, x / (2.0 * t))
    return half_width * float(integrand @ DENSE_WEIGHTS)


def ks_statistic(samples, cdf_values):
    n = samples.size
    grid = np.arange(n, dtype=float)
    upper = np.max(np.abs((grid + 1.0) / n - cdf_values))
    lower = np.max(np.abs(grid / n - cdf_values))
    return max(upper, lower)


class TestExactTails:
    def test_f_median(self):
        # F with equal degrees of freedom has median 1 by symmetry
        assert FDist(3.0, 3.0).tail(1.0) == pytest.approx(0.5, abs=1e-12)

    def test_lognormal_median(self):
        assert LogNormal().tail(1.0) == pytest.approx(0.5, abs=1e-14)

    def test_chi_square_one_dof(self):
        oracle = 2.0 * (1.0 - ndtr(2.0))
        assert ChiSquare(1.0).tail(4.0) == pytest.approx(oracle, rel=1e-12)

    def test_chi_is_sqrt_of_chi_square(self):
        for x in (0.3, 1.0, 2.5):
            assert Chi(5.0).tail(x) == pytest.approx(ChiSquare(5.0).tail(x * x), rel=1e-13)

    def test_scale_is_exact_rescaling(self):
        for law, scaled in [
            (ChiSquare(3.0), ChiSquare(3.0, scale=4.0)),
            (FDist(3.0, 3.0), FDist(3.0, 3.0, scale=0.5)),
            (Bessel(3.0, 4.0), Bessel(3.0, 4.0, scale=0.25)),
            (LogNormal(), LogNormal(scale=2.0)),
        ]:
            for x in (0.7, 3.0, 11.0):
                assert scaled.tail(x) == law.tail(x / scaled.scale)

    def test_tail_at_zero_and_domain(self):
        for law in ALL_FAMILIES:
            assert law.tail(0.0) == 1.0
            # 5e-324 / 4 rounds to 0, so the rule must look at x / scale (the
            # log-normal's log of 0 would warn, and a warning fails the test)
            scaled = dataclasses.replace(law, scale=4.0)
            assert scaled.tail(5e-324) == 1.0
            assert np.array_equal(scaled.tail(np.array([0.0, 5e-324])), [1.0, 1.0])
            with pytest.raises(ValueError):
                law.tail(-1.0)

    @pytest.mark.parametrize("law", ALL_FAMILIES, ids=lambda law: law.family)
    def test_nan_argument_raises(self, law):
        # a NaN argument must not come back as a probability
        with pytest.raises(ValueError):
            law.tail(math.nan)
        with pytest.raises(ValueError):
            law.tail(np.array([1.0, math.nan]))

    def test_vectorized_matches_scalar(self):
        law = FDist(3.0, 3.0)
        xs = np.array([0.5, 1.0, 7.0])
        assert np.allclose(law.tail(xs), [law.tail(float(x)) for x in xs], rtol=1e-14)


# every family and every tail rule: chi-square and chi by their finite sums
# for odd and even nu (3, 10; 3, 2) and by gammaincc (2.5), Bessel by its
# elementary sum (3, 4) and (5, 2), its Bessel-K sum at a fractional order
# (2.5, 4), at integer orders (2, 2) and at orders up to 80 (160, 2), whose
# small-z expansion takes over where K overflows, below z = x/4 = 1.6e-5,
# its window rule (3, 5) and where that rule's window is widest (0.2, 1.5)
SCALAR_LAWS = [
    ChiSquare(3.0), ChiSquare(10.0), ChiSquare(2.5), Chi(2.0), Chi(3.0), FDist(2.0, 5.0),
    LogNormal(), Bessel(3.0, 4.0), Bessel(5.0, 2.0), Bessel(2.5, 4.0), Bessel(2.0, 2.0),
    Bessel(160.0, 2.0), Bessel(3.0, 5.0), Bessel(0.2, 1.5),
]
SCALAR_ARGUMENTS = [0.0, 5e-324] + [10.0**e for e in range(-300, 301, 25)]


class TestScalarTail:
    """A scalar argument takes its own branch of ``tail``, which must give the
    bits of the same argument's element in an array call."""

    @pytest.mark.parametrize("scale", [0.25, 4.0])
    @pytest.mark.parametrize("law", SCALAR_LAWS, ids=repr)
    def test_scalar_equals_its_array_element(self, law, scale):
        law = dataclasses.replace(law, scale=scale)
        xs = np.array(SCALAR_ARGUMENTS)
        array = law.tail(xs)
        for x, element in zip(SCALAR_ARGUMENTS, array):
            for arg in (x, np.float64(x), np.array(x)):
                value = law.tail(arg)
                assert type(value) is float
                assert np.float64(value).tobytes() == element.tobytes(), (x, type(arg))

    @pytest.mark.parametrize("law", [ChiSquare(64.0), Bessel(159.0, 160.0)], ids=repr)
    def test_many_group_sum_keeps_its_order(self, law):
        # the elementary sums add their groups of four terms in order; summed
        # by a reduction, which goes pairwise over a one-argument block from
        # eight groups on, a scalar lost its element's bits at 312 of these
        # arguments under chi-square(64)
        xs = np.concatenate([np.logspace(-300.0, 8.0, 400), np.linspace(0.5, 3000.0, 2000)])
        array = law.tail(xs)
        assert np.array_equal(array, [law.tail(float(x)) for x in xs])

    @pytest.mark.parametrize("law", SCALAR_LAWS, ids=repr)
    def test_scalar_domain_message(self, law):
        scaled = dataclasses.replace(law, scale=4.0)
        # -5e-324 / 4 rounds to -0.0, which passes a check made after the scale
        for x in (-1.0, -5e-324, math.nan):
            for arg in (x, np.float64(x), np.array(x)):
                with pytest.raises(
                    ValueError, match=r"^tail argument must be nonnegative \(and not NaN\)$"
                ):
                    scaled.tail(arg)


class TestIncompleteGammaBetaTails:
    """The chi-square tail is Q(nu/2, x/2) and the F(nu1, nu2) tail is
    I_t(nu2/2, nu1/2) with t = nu2 / (nu1 x + nu2)."""

    def test_f_tail_near_zero_is_full_mass(self):
        # I_t(2, 3) with t within rounding of 1
        assert FDist(6.0, 4.0).tail(1e-300) == pytest.approx(1.0, abs=1e-14)

    def test_f_tail_sqrt_case(self):
        # I_t(1/2, 1) = sqrt(t), at t = 1/4
        assert FDist(2.0, 1.0).tail(1.5) == pytest.approx(0.5, abs=1e-12)

    def test_f_tail_square_case(self):
        # I_t(2, 1) = t^2, at t = 5/8
        assert FDist(2.0, 4.0).tail(1.2) == pytest.approx(0.390625, abs=1e-14)

    def test_f_tail_oracle_value(self):
        assert FDist(1.0, 5.0).tail(35.0 / 3.0) == pytest.approx(INC_BETA_ORACLE, rel=1e-12)

    def test_f_tail_reflection_identity(self):
        # F(nu1, nu2) is 1 / F(nu2, nu1): I_t(p, q) + I_(1-t)(q, p) = 1
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.uniform(0.01, 20.0)
            nu1, nu2 = rng.uniform(0.4, 16.0, size=2)
            total = FDist(nu1, nu2).tail(x) + FDist(nu2, nu1).tail(1.0 / x)
            assert abs(total - 1.0) <= 1e-10

    def test_f_tail_agrees_with_quadrature_of_beta_density(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            x = rng.uniform(0.05, 20.0)
            nu1, nu2 = rng.uniform(1.0, 10.0, size=2)
            p, q = nu2 / 2.0, nu1 / 2.0
            t = nu2 / (nu1 * x + nu2)
            piece = quad(lambda y: y ** (p - 1.0) * (1.0 - y) ** (q - 1.0), 0.0, t,
                         epsabs=1e-14, epsrel=1e-10, limit=400)[0]
            expected = piece / math.exp(betaln(p, q))
            assert FDist(nu1, nu2).tail(x) == pytest.approx(expected, abs=1e-8)

    def test_f_tail_monotone(self):
        xs = np.append(np.linspace(0.0, 30.0, 25), math.inf)
        vals = FDist(1.2, 3.4).tail(xs)
        assert np.all(np.diff(vals) <= 0.0)
        assert vals[0] == 1.0 and vals[-1] == 0.0

    def test_f_domain_is_checked_where_inputs_enter(self):
        with pytest.raises(ValueError):
            FDist(1.0, 1.0).tail(-0.1)
        with pytest.raises(ValueError):
            FDist(2.0, 0.0)

    def test_chi_square_tail_at_zero(self):
        assert ChiSquare(1.0).tail(0.0) == 1.0

    def test_chi_square_exponential_case(self):
        # Q(1, 2) = e^-2
        assert ChiSquare(2.0).tail(4.0) == pytest.approx(math.exp(-2.0), rel=1e-13)

    def test_chi_square_three_halves_closed_form(self):
        # Pr(chi2_3 > 4) = 2(1 - Phi(2)) + sqrt(8/pi) e^-2, an independent
        # normal-tail identity, plus the frozen high-precision value.
        oracle = 2.0 * (1.0 - ndtr(2.0)) + math.sqrt(8.0 / math.pi) * math.exp(-2.0)
        value = ChiSquare(3.0).tail(4.0)
        assert value == pytest.approx(oracle, rel=1e-12)
        assert value == pytest.approx(Q_3_HALVES_AT_2, rel=1e-13)

    def test_chi_square_three_halves_monte_carlo(self):
        # sum of three squared normals exceeding 4
        rng = np.random.default_rng(202)
        z = rng.standard_normal((10**6, 3))
        freq = np.mean((z**2).sum(axis=1) > 4.0)
        se = math.sqrt(freq * (1.0 - freq) / 10**6)
        assert abs(freq - ChiSquare(3.0).tail(4.0)) <= 4.0 * se

    def test_chi_square_tail_agrees_with_density_quadrature(self):
        for s, x in [(0.7, 0.5), (1.5, 2.0), (4.0, 6.0)]:
            law, big = ChiSquare(2.0 * s), x + 80.0
            piece = quad(lambda t: math.exp((s - 1.0) * math.log(t) - t - gammaln(s)), x, big,
                         epsabs=1e-14, epsrel=1e-10, limit=400)[0]
            assert law.tail(2.0 * x) == pytest.approx(piece + law.tail(2.0 * big), abs=1e-8)

    def test_chi_square_tail_monotone(self):
        vals = ChiSquare(4.6).tail(np.linspace(0.0, 60.0, 40))
        assert np.all(np.diff(vals) <= 0.0)

    @pytest.mark.parametrize("law", [ChiSquare(1.0), ChiSquare(3.0), ChiSquare(64.0), Chi(3.0)],
                             ids=repr)
    def test_finite_sum_monotone(self, law):
        # strictly decreasing below 1 - 1e-12; within 1e-12 of 1 the sum of
        # terms near 1 may move by a few ulps either way (gammaincc gives 1)
        xs = np.logspace(-12.0, 6.0, 4000)
        vals = law.tail(np.sqrt(xs) if isinstance(law, Chi) else xs)
        keep = (vals >= 1e-290) & (vals <= 1.0 - 1e-12)
        assert keep.sum() > 400
        assert np.all(np.diff(vals[keep]) < 0.0)
        assert np.all(np.diff(vals) <= 1e-14)

    @pytest.mark.parametrize(
        "law",
        [ChiSquare(1.0), ChiSquare(2.0), ChiSquare(3.0), ChiSquare(10.0), ChiSquare(64.0),
         ChiSquare(65.0), ChiSquare(2.5), Chi(1.0), Chi(4.0), Chi(63.0), Chi(65.0)],
        ids=repr,
    )
    def test_tail_against_mpmath(self, law):
        # Q(nu/2, u), u = x/2 or x^2/2 from the double x, on every fourth
        # decade of [1e-300, 1e8] and in the deep tail, 1e-290 <= tail <= 1e-200.
        # The finite sums for integer nu <= 64 hold 1e-13, and 1e-14 in the deep
        # tail; beyond the cap and at nu = 2.5, gammaincc is off by up to 1.1e-13.
        import mpmath

        chi = isinstance(law, Chi)
        deep = np.linspace(900.0, 1400.0, 11)
        xs = np.concatenate([np.logspace(-300.0, 8.0, 78), np.sqrt(deep) if chi else deep])
        with mpmath.workdps(30):
            expected = np.array([
                float(mpmath.gammainc(
                    mpmath.mpf(law.nu) / 2, a=(mpmath.mpf(x) ** 2 if chi else mpmath.mpf(x)) / 2,
                    regularized=True,
                ))
                for x in xs
            ])
        got = law.tail(xs)
        keep = expected >= 1e-290
        assert keep.sum() > 30 and keep[-deep.size:].sum() > 5
        rel_err = np.abs(got[keep] / expected[keep] - 1.0)
        elementary = law.nu <= 64.0 and law.nu.is_integer()
        assert rel_err.max() <= (1e-13 if elementary else 2e-13)
        if elementary:
            assert rel_err[-keep[-deep.size:].sum():].max() <= 1e-14

    def test_chi_square_domain_is_checked_where_inputs_enter(self):
        with pytest.raises(ValueError):
            ChiSquare(-2.0)
        with pytest.raises(ValueError):
            ChiSquare(2.0).tail(-1.0)


class TestBesselTail:
    def test_frozen_oracle(self):
        for (n1, n2, x), expected in BESSEL_TAIL_ORACLE.items():
            assert Bessel(n1, n2).tail(x) == pytest.approx(expected, rel=1e-10, abs=0.0)

    def test_closed_form_matches_frozen_oracle(self):
        for (n1, n2, x), expected in BESSEL_TAIL_ORACLE.items():
            if n2 % 2 == 0:
                assert bessel_tail_closed_form(n1, n2, x) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize(
        "nu", [(3.0, 4.0), (2.0, 2.0), (5.5, 2.0), (1.5, 6.0), (20.0, 20.0), (0.5, 20.0)]
    )
    def test_closed_form_for_even_nu2(self, nu):
        # tail uses the closed form here, so the window rule is called directly
        xs = np.logspace(-14.0, 8.0, 441)
        expected = bessel_tail_closed_form(*nu, xs)
        keep = expected >= 1e-290
        assert keep.sum() > 300
        got = Bessel(*nu)._window_tail(xs)
        assert np.max(np.abs(got[keep] / expected[keep] - 1.0)) <= 1e-12

    @pytest.mark.parametrize(
        "nu",
        [(3.0, 4.0), (2.0, 2.0), (5.5, 2.0), (1.5, 6.0), (20.0, 20.0), (0.5, 20.0), (0.2, 2.0),
         (0.5, 2.0), (2.0, 0.5), (4.0, 6.0), (80.0, 2.0), (160.0, 2.0), (1.0, 2.0), (5.0, 2.0),
         (3.0, 8.0), (7.0, 6.0), (159.0, 160.0)],
    )
    def test_even_nu_tail_against_mpmath(self, nu):
        # every decade of [1e-300, 1e8] ((0.2, 2) and (0.5, 2) were off by up
        # to 6e-5 below 1e-24 under the window rule), and the deep tail below
        # 1e-200, where y = sqrt(x) exceeds 460 and its rounding alone would
        # move the tail by 5e-14 if it were not put back; one odd and one even
        # degree of freedom take the elementary sum, (159, 160) with 159 powers
        deep = np.linspace(2e5, 6e5, 41)
        xs = np.concatenate([np.logspace(-300.0, 8.0, 309), deep])
        got = Bessel(*nu).tail(xs)
        even_second = nu if nu[1] % 2.0 == 0.0 else nu[::-1]
        expected = np.array([float(bessel_tail_mpmath(*even_second, x)) for x in xs])
        keep = expected >= 1e-290
        assert keep.sum() > 300
        rel_err = np.abs(got[keep] / expected[keep] - 1.0)
        assert rel_err.max() <= 1e-13
        deep_kept = keep[-deep.size:].sum()
        assert deep_kept > 0 and rel_err[-deep_kept:].max() <= 1e-14

    @pytest.mark.parametrize("nu", [(2.0, 2.0), (20.0, 20.0), (160.0, 2.0), (2.5, 4.0)])
    def test_k_sum_across_the_old_seam(self, nu):
        # the Bessel-K sum once took z = x/4 <= 1 and z > 1 by two forms; a
        # dense sweep over where they met, with x = 4 and its neighbours
        grid = np.linspace(1.0, 16.0, 241)
        xs = np.unique(np.concatenate([grid, [np.nextafter(4.0, 0.0), 4.0, np.nextafter(4.0, 8.0)]]))
        got = Bessel(*nu).tail(xs)
        expected = np.array([float(bessel_tail_mpmath(*nu, x)) for x in xs])
        assert np.max(np.abs(got / expected - 1.0)) <= 1e-13
        # strictly decreasing on the grid below 1 - 1e-12, as in test_monotone;
        # a step of one ulp in x moves the tail by less than its rounding
        vals = Bessel(*nu).tail(grid)
        keep = (vals >= 1e-290) & (vals <= 1.0 - 1e-12)
        assert keep.sum() > 150
        assert np.all(np.diff(vals[keep]) < 0.0)

    def test_exp_minus_half_sqrt_puts_back_the_rounding(self):
        # exp(-sqrt(x) / 2) from the rounded sqrt, subnormal x included, for
        # every x where it is at least 1e-300; a plain exp is off by 5.6e-14
        import mpmath

        subnormal = [5e-324, 1e-321, 1e-315, 1e-310, 2.2250738585072014e-308]
        xs = np.concatenate([subnormal, np.logspace(-307.0, math.log10(2e6), 2000),
                             np.linspace(1e5, 2e6, 1000)])
        with mpmath.workdps(40):
            expected = np.array([float(mpmath.exp(-mpmath.sqrt(mpmath.mpf(x)) / 2)) for x in xs])
        keep = expected >= 1e-300
        assert keep[:len(subnormal)].all() and not keep.all()
        got = _exp_minus_half_sqrt(xs[keep], np.sqrt(xs[keep]))
        assert np.max(np.abs(got / expected[keep] - 1.0)) <= 1e-15

    @pytest.mark.parametrize("nu", [(3.0, 4.0), (20.0, 20.0), (0.2, 2.0), (3.0, 5.0), (0.5, 0.5)])
    def test_extreme_arguments(self, nu):
        # the mixture evaluates tail(c^2 / 0) = tail(inf); subnormal x / 4
        # underflows, and kve is NaN for arguments beyond about 1e15
        xs = np.array([5e-324, 1e-300, 1e30, 1e300, math.inf])
        got = Bessel(*nu).tail(xs)
        assert np.all(np.isfinite(got))
        assert np.all((got >= 0.0) & (got <= 1.0))
        assert got[0] > 0.99
        assert np.all(got[2:] == 0.0)

    def test_rule_follows_the_degrees_of_freedom(self):
        # Bessel: while both degrees of freedom are at most 160, the elementary
        # sum for one odd and one even, the Bessel-K sum for an even one and
        # any other, and the window rule otherwise
        xs = np.logspace(-10.0, 5.0, 50)
        for nu, rule in [
            ((3.0, 4.0), "_elementary_tail"), ((4.0, 3.0), "_elementary_tail"),
            ((1.0, 2.0), "_elementary_tail"), ((159.0, 160.0), "_elementary_tail"),
            ((2.0, 2.0), "_closed_form_tail"), ((2.5, 4.0), "_closed_form_tail"),
            ((160.0, 2.0), "_closed_form_tail"), ((161.0, 2.0), "_window_tail"),
            ((162.0, 2.0), "_window_tail"), ((3.0, 5.0), "_window_tail"),
            ((3.0, 4.5), "_window_tail"),
        ]:
            law = Bessel(*nu)
            assert np.array_equal(law.tail(xs), np.minimum(getattr(law, rule)(xs), 1.0)), nu
        # chi-square and chi: the finite sum for an integer nu up to 64,
        # scipy's gammaincc otherwise
        for nu in (1.0, 2.0, 3.0, 10.0, 64.0, 65.0, 66.0, 2.5, 0.5, 200.0):
            elementary = nu <= 64.0 and nu.is_integer()
            for law, u in ((ChiSquare(nu), xs / 2.0), (Chi(nu), xs * xs / 2.0)):
                rule = law._elementary_tail(xs) if elementary else gammaincc(nu / 2.0, u)
                assert np.array_equal(law.tail(xs), np.minimum(rule, 1.0)), law

    @pytest.mark.parametrize("nu, coefficients", [
        ((3.0, 4.0), [1.0, 1.0, 0.5]),  # Pr(Gamma(3) > sqrt x), by the duplication formula
        ((1.0, 2.0), [1.0]),            # E exp(-x / (2 Z^2)) = exp(-sqrt x)
        ((5.0, 2.0), [1.0, 1.0, 1.0 / 3.0]),
    ])
    def test_elementary_polynomial(self, nu, coefficients):
        # Pr(R > x) = exp(-y) P(y), y = sqrt(x), with P(0) = 1
        law = Bessel(*nu)
        xs = np.array([0.25, 4.0, 100.0, 1e4])
        y = np.sqrt(xs)
        expected = np.exp(-y) * np.polynomial.polynomial.polyval(y, coefficients)
        np.testing.assert_allclose(law.tail(xs), expected, rtol=1e-14)

    def test_dual_route_against_adaptive_convolution(self):
        # same convolution evaluated by adaptive QUADPACK, split at the
        # integrand's saddle t = sqrt(x); a QUADPACK warning fails the test.
        # QUADPACK holds about 1e-10 relative (less at tiny x), so a dense
        # fixed rule on a wide window is the 1e-12 reference.
        def adaptive(f, a, b):
            result = quad(f, a, b, epsabs=1e-300, epsrel=1e-11, limit=500, full_output=1)
            assert len(result) == 3, result[3]
            return result[0]

        for n1, n2 in [
            (3.0, 4.0), (2.0, 2.0), (5.5, 1.5), (1.5, 2.5), (10.0, 3.0), (0.5, 0.5), (20.0, 19.0),
            (80.0, 1.0),
        ]:
            law = Bessel(n1, n2)

            def density(t):
                return math.exp(
                    (n1 / 2.0 - 1.0) * math.log(t) - t / 2.0
                    - gammaln(n1 / 2.0) - (n1 / 2.0) * math.log(2.0)
                )

            for x in (1e-10, 1e-3, 0.8, 12.0, 150.0, 1e4, 1e6):
                got = law.tail(x)
                dense = bessel_tail_dense(n1, n2, x)
                assert got == pytest.approx(dense, rel=1e-12, abs=1e-300)
                # the window rule too where the tail takes the closed form
                window = law._window_tail(np.array([x]))[0]
                assert window == pytest.approx(dense, rel=1e-12, abs=1e-300)
                f = lambda t: density(t) * gammaincc(n2 / 2.0, x / (2.0 * t))
                split = math.sqrt(x)
                reference = adaptive(f, 0.0, split) + adaptive(f, split, np.inf)
                assert got == pytest.approx(reference, rel=1e-9, abs=0.0)

    def test_never_exceeds_one(self):
        # the rule's sum rounds above 1 wherever the tail is within 1e-14 of it
        x = np.logspace(-30.0, 1.0, 2000)
        for law in (Bessel(3.0, 4.0, scale=0.25), Bessel(20.0, 20.0)):
            assert law.tail(x).max() <= 1.0
        assert Bessel(3.0, 4.0).tail(5e-324) <= 1.0

    def test_monotone(self):
        # PCHIP mixtures and Brent's method rely on a strictly decreasing
        # tail, also where the per-argument window changes shape.  Within
        # 1e-12 of 1 the true decrements are below the rounding of the
        # quadrature sum, which may move the value by a few 1e-15 either way.
        xs = np.logspace(-12.0, 6.0, 4000)
        for nu in [(3.0, 4.0), (20.0, 20.0), (0.5, 0.5), (10.0, 3.0), (1.5, 6.0), (5.0, 2.0)]:
            vals = Bessel(*nu).tail(xs)
            keep = (vals >= 1e-290) & (vals <= 1.0 - 1e-12)
            assert keep.sum() > 1000
            assert np.all(np.diff(vals[keep]) < 0.0), nu
            assert np.all(np.diff(vals) <= 1e-14), nu


class TestSampling:
    def test_chi_square_mean(self):
        rng = np.random.default_rng(0)
        draws = ChiSquare(3.0).sample(rng, 10**6)
        assert abs(draws.mean() - 3.0) <= 0.01

    def test_scaled_lognormal_mean(self):
        # scale 3 e^{-1/2} gives mean exactly 3
        rng = np.random.default_rng(0)
        draws = LogNormal(scale=3.0 * math.exp(-0.5)).sample(rng, 10**6)
        assert abs(draws.mean() - 3.0) <= 0.03

    def test_scaled_bessel_mean(self):
        # quarter of the (3, 4) product has mean 3 * 4 / 4 = 3
        rng = np.random.default_rng(0)
        draws = Bessel(3.0, 4.0, scale=0.25).sample(rng, 10**6)
        assert abs(draws.mean() - 3.0) <= 0.03

    def test_f_mean(self):
        # F_{3,3} has mean nu2 / (nu2 - 2) = 3
        rng = np.random.default_rng(0)
        draws = FDist(3.0, 3.0).sample(rng, 10**6)
        # heavy tailed: compare the median to the exact 1 instead of the mean
        assert abs(np.median(draws) - 1.0) <= 0.01
        assert draws.min() > 0.0

    @pytest.mark.parametrize(
        "law",
        [
            ChiSquare(3.0),
            Chi(5.0),
            FDist(3.0, 3.0),
            LogNormal(scale=3.0 * math.exp(-0.5)),
            Bessel(3.0, 4.0, scale=0.25),
        ],
        ids=lambda law: law.family,
    )
    def test_sampler_matches_tail_kolmogorov_smirnov(self, law):
        rng = np.random.default_rng(12345)
        draws = np.sort(law.sample(rng, 10**5))
        cdf = 1.0 - law.tail(draws)
        assert ks_statistic(draws, cdf) < KS_CRITICAL_01_PERCENT


class TestTailClasses:
    def test_descriptors(self):
        cases = {
            FDist(3.0, 3.0): (1.0, 1.5, True),
            Bessel(3.0, 4.0): (0.5, 0.5, False),
            Chi(5.0): (-1.0, 1.0, False),
            ChiSquare(7.0): (0.0, 0.5, False),
            LogNormal(): (1.0, math.inf, False),
        }
        for law, (beta, gamma, rv) in cases.items():
            desc = law.class_descriptor()
            assert desc.beta == beta
            assert desc.gamma == gamma
            assert desc.regularly_varying is rv
        # regular variation and ell0 follow from (beta, gamma) alone
        assert [field.name for field in dataclasses.fields(TailClass)] == ["beta", "gamma"]

    def test_ell0_representatives(self):
        assert ChiSquare(3.0).class_descriptor().ell0(100.0) == 0.5
        assert Bessel(3.0, 4.0).class_descriptor().ell0(9.0) == 0.5
        assert Chi(4.0).class_descriptor().ell0(50.0) == 1.0
        assert LogNormal().class_descriptor().ell0(math.e**2) == pytest.approx(2.0)

    def test_regular_variation_ratio(self):
        # tail(lam x) / tail(x) -> lam^(-3/2), residual shrinking in x
        law = FDist(3.0, 3.0)
        for lam in (2.0, 5.0, 10.0):
            residuals = [
                abs(law.tail(lam * x) / law.tail(x) - lam**-1.5)
                for x in (1e2, 1e3, 1e4)
            ]
            assert residuals[0] > residuals[1] > residuals[2]
            assert residuals[-1] < 1e-3

    def test_non_regular_variation(self):
        for law in (LogNormal(), Bessel(3.0, 4.0)):
            ratio_small = law.tail(2e2) / law.tail(1e2)
            ratio_large = law.tail(2e4) / law.tail(1e4)
            assert ratio_large < ratio_small

    def test_long_tail_property(self):
        for law in (LogNormal(), Bessel(3.0, 4.0), FDist(3.0, 3.0)):
            gaps = [abs(law.tail(x - 1.0) / law.tail(x) - 1.0) for x in (1e2, 1e3, 1e4)]
            assert gaps[0] > gaps[1] > gaps[2]
            assert gaps[-1] < 0.01


class TestAsymptoticCalculus:
    def test_g_beta_trivial(self):
        assert g_beta(0.3, 1.0) == 0.0
        assert g_beta(1.0, 1.0) == 0.0
        assert g_beta(0.0, 0.5) == pytest.approx(1.0, rel=1e-14)
        assert g_beta(0.5, 0.25) == pytest.approx(2.0, rel=1e-14)

    def test_g_beta_continuity_at_one(self):
        for y in (0.9, 0.5, 0.1):
            assert abs(g_beta(1.0 - 1e-8, y) + math.log(y)) < 1e-6

    def test_g_beta_domain(self):
        with pytest.raises(ValueError):
            g_beta(0.5, 0.0)
        with pytest.raises(ValueError):
            g_beta(0.5, 1.5)
        with pytest.raises(ValueError):
            g_beta(1.2, 0.5)

    def test_r_beta_chi_square(self):
        # coefficient (nu - 2) / 2
        law = ChiSquare(3.0)
        for y in (0.9, 0.625, 0.2):
            assert law.r_beta(y) == pytest.approx(0.5 * math.log(y), rel=1e-14)

    def test_r_beta_bessel(self):
        # coefficient (nu1 + nu2 - 3) / 4 = 1 for (3, 4)
        law = Bessel(3.0, 4.0)
        for y in (0.9, 0.625, 0.2):
            assert law.r_beta(y) == pytest.approx(math.log(y), rel=1e-14)

    def test_r_beta_lognormal(self):
        law = LogNormal()
        assert law.r_beta(1.0) == 0.0
        assert law.r_beta(0.5) == pytest.approx(0.5 * math.log(0.5) ** 2, rel=1e-14)

    def test_r_beta_unsupported(self):
        with pytest.raises(UnsupportedLawError):
            FDist(3.0, 3.0).r_beta(0.5)
        with pytest.raises(UnsupportedLawError):
            Chi(5.0).r_beta(0.5)

    def test_r_beta_domain(self):
        # the threshold range of the expansion is excursion._laplace_rate's to
        # refuse (tests/test_excursion.py::TestLaplaceGate); r_beta checks y only
        with pytest.raises(ValueError, match=r"y must lie in \(0, 1\]"):
            ChiSquare(3.0).r_beta(1.5)


class TestConfigParsing:
    def test_roundtrip(self):
        laws = [
            ChiSquare(3.0, scale=2.0),
            Chi(4.0),
            FDist(3.0, 3.0),
            LogNormal(scale=3.0 * math.exp(-0.5)),
            Bessel(3.0, 4.0, scale=0.25),
        ]
        for law in laws:
            assert law_from_dict(law.to_dict()) == law

    @pytest.mark.parametrize(
        "law, digest",
        [
            (ChiSquare(3.0, scale=2.0), "0070075798a93169"),
            (Chi(4.0), "b15445459479b1e5"),
            (FDist(3.0, 3.0), "20b52e1daa194fd8"),
            (LogNormal(scale=3.0 * math.exp(-0.5)), "76078cb182424bbd"),
            (Bessel(3.0, 4.0, scale=0.25), "b82eccbc24c12c25"),
        ],
        ids=lambda value: getattr(value, "family", None),
    )
    def test_serialised_digest_is_frozen(self, law, digest):
        # SimulationResult.law_digest hashes to_dict, so its JSON must not drift
        assert _law_digest(law) == digest

    def test_int_parameters_digest_as_floats(self):
        # a law built in Python with ints equals the one read back from JSON,
        # which law_from_dict builds from floats, and must digest alike
        for law in (ChiSquare(3, scale=2), Bessel(3, 4, scale=0.25)):
            reread = law_from_dict(json.loads(json.dumps(law.to_dict())))
            assert _law_digest(law) == _law_digest(reread)
            assert all(type(value) is float for value in dataclasses.astuple(law))
        assert _law_digest(ChiSquare(3, scale=2)) == "0070075798a93169"

    def test_first_failing_field_is_named(self):
        spec = {"family": "bessel", "nu1": -1.0, "nu2": -2.0, "scale": 0.0}
        with pytest.raises(ValueError, match=r"^nu1 must be positive, got -1\.0$"):
            law_from_dict(spec)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            law_from_dict({"family": "weibull"})

    @pytest.mark.parametrize("spec, message", [
        (5, "law description must be a mapping with a 'family' key"),
        ("chi_square", "law description must be a mapping with a 'family' key"),
        ({"nu": 3.0}, "law description must be a mapping with a 'family' key"),
        ({"family": ["x"]}, r"unknown law family \['x'\]"),
        ({"family": "chi_square", "nu": None}, "law parameter 'nu' must be a number, got None"),
        ({"family": "f", "nu1": 3.0, "nu2": "three"},
         "law parameter 'nu2' must be a number, got 'three'"),
        ({"family": "chi_square", "nu": True}, "law parameter 'nu' must be a number, got True"),
        ({"family": "chi_square", "nu": "3"}, "law parameter 'nu' must be a number, got '3'"),
        ({"family": "chi_square", "nu": 3.0, "scal": 2.0},
         r"^law family 'chi_square' has no parameter 'scal'; expected \['nu', 'scale'\]$"),
    ])
    def test_malformed_description(self, spec, message):
        with pytest.raises(ValueError, match=message):
            law_from_dict(spec)

    def test_missing_parameter(self):
        with pytest.raises(ValueError, match="requires parameter"):
            law_from_dict({"family": "f", "nu1": 3.0})

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            law_from_dict({"family": "chi_square", "nu": -1.0})
        with pytest.raises(ValueError):
            law_from_dict({"family": "bessel", "nu1": 3.0, "nu2": 4.0, "scale": 0.0})
        with pytest.raises(ValueError, match=r"^nu must be positive, got nan$"):
            law_from_dict({"family": "chi_square", "nu": math.nan})
        with pytest.raises(ValueError, match=r"^nu must be finite, got inf$"):
            law_from_dict({"family": "chi_square", "nu": math.inf})
        with pytest.raises(ValueError, match=r"^scale must be finite, got inf$"):
            LogNormal(scale=math.inf)

    @pytest.mark.parametrize("value, message", [
        (True, r"^law parameter 'nu' must be a number, got True$"),
        ("3", r"^law parameter 'nu' must be a number, got '3'$"),
        (None, r"^law parameter 'nu' must be a number, got None$"),
        (10**400, r"^nu must be finite, got inf$"),
        (-10**400, r"^nu must be positive, got -inf$"),
    ], ids=["bool", "str", "none", "huge", "huge_negative"])
    def test_constructor_checks_parameters(self, value, message):
        # the one check of a parameter, for Python callers as for law_from_dict
        with pytest.raises(ValueError, match=message):
            ChiSquare(nu=value)


class TestIntegerRule:
    """``_as_integer`` is the package's one integer rule: trial counts, seeds,
    dimensions, orders and point indices are read by it."""

    @pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.float64(3.0), np.uint8(3)], ids=repr)
    def test_integral_values_read_as_python_ints(self, value):
        read = _as_integer("count", value)
        assert type(read) is int and read == 3

    def test_a_large_integer_is_kept_exactly(self):
        assert _as_integer("seed", 2**64 - 1) == 2**64 - 1

    @pytest.mark.parametrize(
        "value", [True, np.True_, 2.5, math.inf, math.nan, "3", None, np.array(3), [3]], ids=repr
    )
    def test_other_values_are_refused_by_name(self, value):
        with pytest.raises(ValueError) as err:
            _as_integer("count", value)
        assert str(err.value) == f"count must be an integer, got {value!r}"
