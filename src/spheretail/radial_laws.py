"""Probability laws of the squared radial part of the field.

Each law describes the distribution of the squared norm R = ||xi||^2 of the
driving random vector.  A law exposes its exact upper tail function, a
sampler, a (beta, gamma) tail-class descriptor, and the closed-form
correction term used by the asymptotic error formulas.

A ``scale`` factor ``a`` means the law of ``a * X`` for ``X`` from the base
family, so ``tail(x) = base_tail(x / a)``.  Law objects are immutable and
all operations except ``sample`` are pure; sampling draws from an explicitly
passed generator.
"""

import functools
import math
import numbers
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .special_functions import find_root

__all__ = [
    "UnsupportedLawError",
    "TailClass",
    "RadialLaw",
    "ChiSquare",
    "Chi",
    "FDist",
    "LogNormal",
    "Bessel",
    "g_beta",
    "law_from_dict",
]


@functools.cache
def _special():
    """``scipy.special``, imported on the first call.

    Importing it costs about as much as numpy, and ``import spheretail`` and
    ``simulate`` need none of its functions.  Every module of the package
    calls a special function through this accessor, at about the cost of a
    module attribute after the first call.
    """
    from scipy import special

    return special


class UnsupportedLawError(ValueError):
    """The requested operation is not defined for this law family."""


@dataclass(frozen=True)
class TailClass:
    """Tail classification of a law.

    ``beta <= 1`` and ``gamma > 0`` (possibly ``inf``) index the tail decay:
    the tail is asymptotically ``exp(-integral of ell(t)/t^beta)`` with
    ``ell -> gamma``.  The representative slowly varying term is the
    constant ``gamma`` when it is finite and ``log t`` otherwise.
    """

    beta: float
    gamma: float

    @property
    def regularly_varying(self):
        """Regular variation: ``beta = 1`` with a finite index ``gamma``."""
        return self.beta == 1.0 and self.gamma < math.inf

    def ell0(self, t):
        """Evaluate the representative slowly varying term at ``t``."""
        return np.log(t) if self.gamma == math.inf else self.gamma


def g_beta(beta, y):
    """Integrated tail-exponent kernel g_beta(y) on (0, 1].

    Equals ``(y**(beta-1) - 1) / (1 - beta)`` for ``beta < 1`` and
    ``-log(y)`` at ``beta = 1``; continuous in ``beta`` at 1.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0) or np.any(y > 1.0):
        raise ValueError("y must lie in (0, 1]")
    logy = np.log(y)
    if beta > 1.0:
        raise ValueError("beta must be <= 1")
    if beta == 1.0:
        out = -logy
    else:
        # -expm1((beta-1) log y) / (beta-1): stable as beta -> 1
        out = -np.expm1((beta - 1.0) * logy) / (beta - 1.0)
    return float(out) if np.ndim(out) == 0 else out


def _as_real(name, value):
    """A number as a float: a real number and not a bool (so ``True`` and
    ``"3"`` are refused), where an integer beyond double range reads as
    infinite.  The one rule for a real number that a law, an experiment file
    or a caller gives."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond double range
        return math.inf if value > 0 else -math.inf


def _as_integer(name, value):
    """An integer as a Python int: an int (``np.int64`` too) or an integral
    float, never a bool (so ``True``, ``2.5`` and ``"3"`` are refused).  The
    one rule for a trial count, a seed, a dimension, an order or a point
    index that a caller gives."""
    integral_float = isinstance(value, float) and value.is_integer()
    if not integral_float and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


class RadialLaw:
    """Base class for the law of the squared radial part; each family is a
    frozen dataclass whose fields are its parameters.

    Construction is the one check of a parameter, for Python callers and for
    ``law_from_dict`` alike: it must be a number by ``_as_real``, positive and
    finite.  It is stored as ``float``, so equal laws serialise, and digest,
    alike.
    """

    family = "base"

    def __post_init__(self):
        for param in fields(self):
            value = _as_real(f"law parameter {param.name!r}", getattr(self, param.name))
            if not value > 0.0:
                raise ValueError(f"{param.name} must be positive, got {value}")
            if value == math.inf:
                raise ValueError(f"{param.name} must be finite, got {value}")
            object.__setattr__(self, param.name, value)

    def tail(self, x):
        """Upper tail Pr(R > x) for x >= 0; accepts scalars or arrays.

        The tail is 1 wherever x / scale is 0; ``_base_tail`` sees only the
        positive arguments, and its values are clipped at 1.  A scalar (a
        Python or numpy float, or a 0-d array) skips the masks: it is 1 if
        x / scale is 0 and otherwise the same ``_base_tail`` on a one-element
        array with the same clip, so it equals its element of an array call
        to the bit.
        """
        xa = np.asarray(x, dtype=float)
        scalar = xa.ndim == 0
        if not (float(xa) >= 0.0 if scalar else np.all(xa >= 0.0)):
            raise ValueError("tail argument must be nonnegative (and not NaN)")
        if scalar:
            base = float(xa) / self.scale
            return 1.0 if base == 0.0 else min(float(self._base_tail(np.array([base]))[0]), 1.0)
        base = xa / self.scale
        out = np.ones_like(base)
        pos = base > 0.0
        out[pos] = np.minimum(self._base_tail(base[pos]), 1.0)
        return out

    def sample(self, rng, size=None):
        """Draw variates using an explicitly passed ``numpy`` generator."""
        return self.scale * self._base_sample(rng, size)

    def class_descriptor(self):
        raise NotImplementedError

    def r_beta(self, y):
        """Closed-form limit of the slowly-varying correction term at y in (0, 1].

        Defined per family; equals 0 at ``y = 1``.  It takes no threshold:
        where the expansion applies is decided by ``excursion._laplace_rate``.
        """
        y = np.asarray(y, dtype=float)
        if np.any(y <= 0.0) or np.any(y > 1.0):
            raise ValueError("y must lie in (0, 1]")
        return self._r_beta_limit(np.log(y))

    def _r_beta_limit(self, logy):
        raise UnsupportedLawError(
            f"no closed-form correction term for the {self.family} family"
        )

    def to_dict(self):
        return {"family": self.family, **asdict(self)}


@dataclass(frozen=True)
class ChiSquare(RadialLaw):
    """Chi-square law with ``nu`` degrees of freedom (light-tailed).

    For an integer ``nu`` up to 64 the tail Q(nu/2, t), t = x/2, is a finite
    sum (Abramowitz & Stegun 26.4.4-5): e^(-t) sum_{p<nu/2} t^p / p! for
    even ``nu``, and erfc(sqrt t) plus sqrt(t) e^(-t) sum_p t^p / Gamma(p + 3/2)
    over p < (nu - 1)/2 for odd ``nu``, taken by ``_poisson_sum`` so that no
    term under- or overflows before it is itself out of range.  Against
    30-digit mpmath it is within 1e-13 relative wherever the tail is at
    least 1e-290, for x in [1e-300, 1e8], and within 1e-14 where the tail
    lies between 1e-290 and 1e-200; it goes on into the subnormals, where
    ``gammaincc`` returns 0 below about 7.7e-312.  Every other ``nu`` takes
    scipy's ``gammaincc``, off by up to about 1.1e-13 in the deep tail.
    """

    nu: float
    scale: float = 1.0
    family = "chi_square"

    def _base_tail(self, x):
        if _elementary_nu(self.nu):
            return self._elementary_tail(x)
        return _special().gammaincc(self.nu / 2.0, x / 2.0)

    def _elementary_tail(self, x):
        """Q(nu/2, x/2) as a finite sum, for integer nu up to the cap."""
        t = 0.5 * np.minimum(x, _ELEMENTARY_X_MAX)
        return _gamma_sum(self.nu, t, np.exp(-0.5 * t))

    def _base_sample(self, rng, size):
        return rng.gamma(self.nu / 2.0, 2.0, size)

    def class_descriptor(self):
        return TailClass(0.0, 0.5)

    def _r_beta_limit(self, logy):
        return (self.nu - 2.0) / 2.0 * logy


@dataclass(frozen=True)
class Chi(RadialLaw):
    """Chi law (square root of a chi-square) with ``nu`` degrees of freedom.

    The tail is the chi-square tail at x^2 (see ``ChiSquare``): for an
    integer ``nu`` up to 64 the same finite sum, with t = x^2/2 and
    e^(-t/2) corrected for the rounding of x^2, to the same accuracy; for
    every other ``nu`` scipy's ``gammaincc``.
    """

    nu: float
    scale: float = 1.0
    family = "chi"

    def _base_tail(self, x):
        if _elementary_nu(self.nu):
            return self._elementary_tail(x)
        with np.errstate(over="ignore"):  # x^2 overflows beyond 1.3e154, where Q is 0
            return _special().gammaincc(self.nu / 2.0, x * x / 2.0)

    def _elementary_tail(self, x):
        """Q(nu/2, x^2/2) as a finite sum, for integer nu up to the cap."""
        x = np.minimum(x, _ELEMENTARY_X_MAX)
        sq = x * x
        t = 0.5 * sq
        # e^(-x^2/4) with the rounding of x^2 put back, so that it does not
        # cost |log tail| ulps in the deep tail
        root = np.exp(-0.5 * t) * (1.0 - 0.25 * _square_excess(x, sq))
        return _gamma_sum(self.nu, t, root, x * math.sqrt(0.5))

    def _base_sample(self, rng, size):
        return np.sqrt(rng.gamma(self.nu / 2.0, 2.0, size))

    def class_descriptor(self):
        return TailClass(-1.0, 1.0)


@dataclass(frozen=True)
class FDist(RadialLaw):
    """F law with ``(nu1, nu2)`` degrees of freedom (regularly varying)."""

    nu1: float
    nu2: float
    scale: float = 1.0
    family = "f"

    def _base_tail(self, x):
        t = self.nu2 / (self.nu1 * x + self.nu2)
        return _special().betainc(self.nu2 / 2.0, self.nu1 / 2.0, t)

    def _base_sample(self, rng, size):
        num = rng.gamma(self.nu1 / 2.0, 2.0, size) / self.nu1
        den = rng.gamma(self.nu2 / 2.0, 2.0, size) / self.nu2
        return num / den

    def class_descriptor(self):
        return TailClass(1.0, self.nu2 / 2.0)


@dataclass(frozen=True)
class LogNormal(RadialLaw):
    """Log-normal law exp(N(0, 1)) (subexponential, not regularly varying)."""

    scale: float = 1.0
    family = "log_normal"

    def _base_tail(self, x):
        return _special().ndtr(-np.log(x))

    def _base_sample(self, rng, size):
        return np.exp(rng.standard_normal(size))

    def class_descriptor(self):
        return TailClass(1.0, math.inf)

    def _r_beta_limit(self, logy):
        return 0.5 * logy**2


# Elementary tails.  For integer degrees of freedom the chi-square tail is a
# finite Poisson sum, Q(k, t) = e^(-t) sum_{p<k} t^p / p!, plus erfc(sqrt t)
# for half-integer k (Abramowitz & Stegun 6.5.13, 26.4.4-5), and the product
# law of one odd and one even degree of freedom has the tail e^(-y) P(y),
# y = sqrt(x), since K of half-integer order is elementary (DLMF 10.49.12).
#
# Largest degrees of freedom for which the chi-square and chi tails take the
# sum.  On one 2-vCPU Xeon core, on the 4096 arguments of a mixture at c from
# 1 to 10, chi-square(64) took 210-220 us against 210-330 us for gammaincc
# (80-115 us against 260-400 us at nu = 3 and 10), and at nu = 80 the sum
# tied with gammaincc at c = 0.5.  A scalar costs more than gammaincc's
# 2.2 us (13 us at nu = 3, 46 us at 64), so six threshold solves, which read
# about 280 scalar and 30 array tails, took about as long at nu = 40 to 64
# as with gammaincc (20-24 ms against 19-23 ms) and less at nu = 3
# (14-15 ms against 21-22 ms).
_ELEMENTARY_MAX_NU = 64.0
# Beyond this argument every elementary tail is 0 (e^(-t/2) has underflowed
# for each law's t); clipping there keeps inf * 0 out of the sums.
_ELEMENTARY_X_MAX = 1e8


def _elementary_nu(nu):
    """Whether a chi-square or chi law with ``nu`` degrees of freedom takes
    the finite sum: ``nu`` an integer up to ``_ELEMENTARY_MAX_NU``."""
    return nu <= _ELEMENTARY_MAX_NU and nu.is_integer()


# Arguments per block of ``_poisson_sum``: a mixture's tail is one block.
_POISSON_BLOCK = 4096


def _poisson_sum(t, t_sq, root, columns):
    """sum_p c_p t^p e^(-t) for arrays 0 <= t <= 1e16 and positive c_p, given
    as ``columns`` by ``_horner_columns``.

    ``t_sq`` is t^2, read only beyond four coefficients, and ``root`` is
    e^(-t/2), each as exact as the caller can form it.  The powers are
    summed in groups of four, the j-th as

        (t_sq^j root)^2 (c_4j + c_4j+1 t + c_4j+2 t^2 + c_4j+3 t^3),

    the polynomial by Horner's rule.  t_sq^j root is at most (4j/e)^(2j)
    (1e137 for the 159 powers of ``Bessel``) and is 0 wherever root has
    underflowed, and each group is formed as (polynomial * root) * root, so
    nothing under- or overflows before the group itself does.  Where t is
    rounded (t = sqrt x) and t_sq exact (x), a power carries at most three
    roundings of t, not p of them.  All groups are one 2-D array, one row
    per group, so that the number of numpy calls, which sets the cost of a
    short array, grows by two per group, not by eleven.  The groups are
    added in order whatever the width of the block, so that a scalar gets
    the bits of its element in an array call.  Arguments are taken in blocks of ``_POISSON_BLOCK``, which
    bounds the 2-D arrays at 2.6 MB for ``Bessel``'s 40 groups.
    """
    high, *lower = columns
    groups = high.shape[0]
    out = np.empty_like(t)
    for start in range(0, t.size, _POISSON_BLOCK):
        part = slice(start, start + _POISSON_BLOCK)
        t_part = t[part]
        factors = np.empty((groups, t_part.size))
        factors[0] = root[part]
        for j in range(1, groups):
            np.multiply(factors[j - 1], t_sq[part], out=factors[j])
        poly = np.empty_like(factors)
        poly[...] = high
        for c in lower:
            poly *= t_part
            poly += c
        poly *= factors
        poly *= factors
        # row by row: a reduction over axis 0 may sum pairwise where the
        # block is one argument wide, and a scalar would not get its bits
        total = out[part]
        total[...] = poly[0]
        for group in poly[1:]:
            total += group
    return out


def _horner_columns(coeffs):
    """``coeffs`` as ``_poisson_sum`` reads them: one (groups, 1) column per
    power within a group of four, highest first, row j holding group j.  The
    last group is padded with zeros, which Horner's rule carries exactly, and
    a group of fewer than four takes as many columns."""
    groups = -(-len(coeffs) // 4)
    table = np.zeros((groups, 4))
    table.flat[:len(coeffs)] = coeffs
    table.setflags(write=False)
    return tuple(table[:, r:r + 1] for r in reversed(range(min(4, len(coeffs)))))


@functools.lru_cache(maxsize=None)
def _gamma_coefficients(nu):
    """Coefficients c_p of the chi-square(nu) tail Q(nu/2, t) for integer nu:
    Q = sum_p c_p t^p e^(-t) with c_p = 1/p!, p < nu/2, for even nu, and
    Q = erfc(sqrt t) + sqrt(t) sum_p c_p t^p e^(-t) with
    c_p = 1/Gamma(p + 3/2), p < (nu - 1)/2, for odd nu; as ``_horner_columns``."""
    k = round(nu) // 2
    if nu % 2.0 == 0.0:
        return _horner_columns([1 / math.factorial(p) for p in range(k)])
    # Gamma(p + 3/2) = sqrt(pi) (2p + 2)! / (4^(p+1) (p + 1)!)
    return _horner_columns([
        4 ** (p + 1) * math.factorial(p + 1) / math.factorial(2 * p + 2) / math.sqrt(math.pi)
        for p in range(k)
    ])


def _gamma_sum(nu, t, root, s=None):
    """Q(nu/2, t) for integer nu, from ``root`` = e^(-t/2) and, for odd nu,
    ``s`` = sqrt t (taken from t if not given).

    For odd nu the erfc term is erfcx(s) e^(-t), whose factor e^(-t) is
    ``root`` squared: taken so, it keeps the care with which the caller
    formed ``root``, which ``erfc`` of a rounded s would lose (a relative
    2 t ulp).
    """
    columns = _gamma_coefficients(nu)
    t_sq = t * t if columns and columns[0].shape[0] > 1 else None
    if nu % 2.0 == 0.0:
        return _poisson_sum(t, t_sq, root, columns)
    s = np.sqrt(t) if s is None else s
    out = _special().erfcx(s) * root * root
    if columns:
        out += s * _poisson_sum(t, t_sq, root, columns)
    return out


@functools.lru_cache(maxsize=None)
def _bessel_coefficients(nu_odd, nu_even):
    """Coefficients of P, Pr(R > x) = e^(-y) P(y) with y = sqrt(x), for the
    product of chi-square(nu_odd) and chi-square(nu_even) variates.

    With a = nu_odd/2 = m + 1/2 and b = nu_even/2, term k < b of the Bessel-K
    sum (see ``Bessel``) is K of order n + 1/2, n = |m - k| or k - m - 1,
    which is sqrt(pi/(2y)) e^(-y) sum_{j<=n} (n+j)! / (j! (n-j)! (2y)^j).
    Each term then gives y^(m+k-j) the coefficient

        m! (n+j)! 2^(m-k-j) / ((2m)! k! j! (n-j)!),

    all positive.  The sums are exact rationals, rounded once; they are
    returned as ``_horner_columns``.
    """
    m, b = round((nu_odd - 1.0) / 2.0), round(nu_even / 2.0)
    f = math.factorial
    num, den = [0] * (m + b), [1] * (m + b)  # P's coefficients as fractions
    for k in range(b):
        n = m - k if k <= m else k - m - 1
        for j in range(n + 1):
            p, e = m + k - j, m - k - j
            top = f(m) * f(n + j) * 2 ** max(e, 0)
            bottom = f(2 * m) * f(k) * f(j) * f(n - j) * 2 ** max(-e, 0)
            num[p], den[p] = num[p] * bottom + top * den[p], den[p] * bottom
            g = math.gcd(num[p], den[p])
            num[p], den[p] = num[p] // g, den[p] // g
    return _horner_columns([num_p / den_p for num_p, den_p in zip(num, den)])


# Gauss-Legendre rule for the product-law convolution, placed per argument on
# the window where the integrand lives (see ``Bessel``).  Against the closed
# form (even nu2) and a 1024-node reference, 96 nodes agree to 2e-13 relative
# for every tail >= 1e-290 over x in [1e-14, 1e8] and nu1, nu2 in [0.2, 80].
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(96)
# Drop, in nepers below the peak, at which the window cuts the integrand.
_WINDOW_DEPTH = 45.0
# Largest degrees of freedom the Bessel-K sum takes.  Its orders |a - k| and
# powers (a + k)/2 then stay below 80: Gamma(a) k! is finite, and where K
# overflows (z below 1e-5) the first-order expansion that replaces it is
# exact to 1e-14.  Beyond, that expansion is off by 4e-9 at (300, 2), where
# the window rule, off by 5e-9, takes over.
_CLOSED_FORM_MAX_NU = 160.0


@functools.lru_cache(maxsize=None)
def _log_bulk(nu):
    """Range of log t outside which t times the chi-square(nu) density is
    below exp(-_WINDOW_DEPTH) of its peak at t = nu."""
    # (nu / 2)(e^w - 1 - w) = depth with w = log(t / nu), on each side of 0
    c = 2.0 * _WINDOW_DEPTH / nu

    def excess(w):
        return math.expm1(w) - w - c

    lo = find_root(excess, -1.0 - c, 0.0)
    hi = find_root(excess, 0.0, math.log1p(c) + math.sqrt(2.0 * c))
    return math.log(nu) + lo, math.log(nu) + hi


def _square_excess(v, sq):
    """v^2 - sq, exact where sq is v * v rounded (or v^2 is within an ulp of
    sq) and neither underflows, by Veltkamp splitting of v."""
    split = 134217729.0 * v  # 2^27 + 1
    hi = split - (split - v)
    lo = v - hi
    return ((hi * hi - sq) + 2.0 * hi * lo) + lo * lo


def _exp_minus_half_sqrt(x, y):
    """exp(-y / 2) for 0 < x <= 1e300 and y = sqrt(x) as rounded, with that
    rounding put back.

    The rounding of y, recovered exactly as y^2 - x, enters as a first-order
    factor: left in, it moves exp(-y) by up to y ulp(1)/2 relative, 7e-14
    where a tail nears 1e-290.  Below x = 1 the factor is within rounding
    of 1.  Beyond x = 1e300 it may be NaN (at x = inf it is), where the
    callers' tails are 0.
    """
    return np.exp(-0.5 * y) * (1.0 + _square_excess(y, x) / (4.0 * y))


@dataclass(frozen=True)
class Bessel(RadialLaw):
    """Law of the product of independent chi-square variates.

    The product of chi-square variables with ``nu1`` and ``nu2`` degrees of
    freedom (subexponential, not regularly varying).  The law is symmetric in
    the two.

    When one of them is odd and the other even, and neither exceeds 160, the
    tail is elementary, since K of half-integer order is (DLMF 10.49.12):
    ``Pr(R > x) = e^(-y) P(y)`` with ``y = sqrt(x)`` and ``P`` of degree
    ``(nu1 + nu2 - 3)/2`` with positive rational coefficients and
    ``P(0) = 1`` (``1 + y + y^2/2`` for ``(3, 4)``, the tail of Gamma(3) at
    ``y``).  ``P`` is summed exactly once per pair, and ``_poisson_sum`` takes
    the sum with ``exp(-y/2)`` corrected for the rounding of ``sqrt x``.
    Against 30-digit mpmath it is within 1e-13 relative wherever the tail
    is at least 1e-290, for ``x`` in [1e-300, 1e8], and within 1e-14 in the
    deep tail below 1e-200 (the tests sweep ``(1, 2)``, ``(3, 4)``,
    ``(5, 2)``, ``(3, 8)``, ``(7, 6)`` and ``(159, 160)``).

    When one of them is even and the other even too or not an integer, and
    neither exceeds 160, take the even one as ``2b`` (the smaller one if
    both are) and the other as ``2a``.  With ``z = x/4`` the tail is then
    the finite sum

        Pr(R > x) = (2 / Gamma(a)) sum_{k<b} z^((a+k)/2) K_{a-k}(2 sqrt z) / k!,

    the chi-square(2a) average of the chi-square(2b) tail, which is a Poisson
    sum.  With ``o = |a - k|`` and ``y = 2 sqrt z = sqrt x``, term ``k`` is
    taken at every ``x`` as one product, ``2 kve_o(y) root^2 / (Gamma(a) k!)``
    with the exponentially scaled ``K`` and ``root = z^((a+k)/4) exp(-y/2)``,
    ``exp`` corrected for the rounding of ``sqrt x``: no logarithm costs
    ``|log z|`` ulps where the tail is near 1, and neither logarithms nor
    that rounding cost ``|log tail|`` ulps in the deep tail.  Where ``K_o``
    overflows (``z`` below about 1.6e-5 at order 80, below 1e-300 for
    orders up to 2) the term takes its small-``z`` expansion
    ``z^min(k, a) Gamma(o) / (Gamma(a) k!) (1 - z / (o - 1))``, without the
    bracket for ``o <= 2``.  Against 30-digit mpmath the sum is within 1e-13
    relative wherever the tail is at least 1e-290, for ``x`` in
    [1e-300, 1e8] and the laws the tests sweep (degrees of freedom from 0.2
    to 20, ``(80, 2)`` and ``(160, 2)``); it rests on scipy's ``kve``, off
    like ``kv`` by up to about 2e-13 at some orders below 1 and arguments
    just under 2, and by up to about 8e-14 at order 80.

    Otherwise, with ``(a, b) = (nu1, nu2)``, swapped when
    ``nu2 > nu1 + 2`` so that ``k = (a - b)/2 + 1 >= 0``, the exact tail is the
    convolution ``int f_a(t) Q(b/2, x/(2t)) dt``.  It is taken by one
    Gauss-Legendre rule in ``u = log(t / s)``, ``s = sqrt(x)``, on a window
    chosen per argument from where the integrand lives:

    - large ``x``: around the saddle ``u = 0`` the integrand is about
      ``exp(k u - s cosh u)``, so the window holds ``-d0 <= u <= d`` with
      ``s (cosh d0 - 1) = depth`` and ``s (cosh d - 1) = depth + k d0``, the
      second covering the shift of the peak towards ``u > 0``;
    - small ``x``: the mass sits in the chi-square(a) bulk, cut off below
      where ``Q`` vanishes (``t < x / T``, ``T`` the upper end of the
      chi-square(b) bulk), so the window reaches the upper end of that bulk
      and never extends below its lower end.

    The bulk of chi-square(nu) is where ``t f_nu(t)`` is within
    ``exp(-depth)`` of its peak.  Below ``x = 1e-24``, when ``a`` is at most
    2, the window is too wide for the fixed rule (relative error 1.6e-4 at
    ``nu = (0.2, 1.5)`` and 1.5e-5 at ``(0.5, 0.5)``).  ``p_tube`` and
    ``p_exact`` reach that range at thresholds c <= 1e-12, whose mixtures
    evaluate tail(c^2 / y) from x = c^2 up.
    """

    nu1: float
    nu2: float
    scale: float = 1.0
    family = "bessel"

    def _base_tail(self, x):
        # where the tail is within rounding of 1 each sum can exceed it, so
        # the clip of ``tail`` matters here
        if max(self.nu1, self.nu2) > _CLOSED_FORM_MAX_NU:
            return self._window_tail(x)
        parities = sorted((self.nu1 % 2.0, self.nu2 % 2.0))
        if parities == [0.0, 1.0]:
            return self._elementary_tail(x)
        return (self._closed_form_tail if parities[0] == 0.0 else self._window_tail)(x)

    def _elementary_tail(self, x):
        """e^(-y) P(y), y = sqrt(x), for one odd and one even degree of freedom."""
        nu_odd, nu_even = sorted((self.nu1, self.nu2), key=lambda nu: nu % 2.0 == 0.0)
        x = np.minimum(x, _ELEMENTARY_X_MAX)
        y = np.sqrt(x)
        return _poisson_sum(y, x, _exp_minus_half_sqrt(x, y), _bessel_coefficients(nu_odd, nu_even))

    def _closed_form_tail(self, x):
        """Finite Bessel-K sum for x > 0 when a degree of freedom is even."""
        # nu_b is the even degree of freedom, the smaller one if both are
        nu_b, nu_a = sorted((self.nu1, self.nu2), key=lambda nu: (nu % 2.0 != 0.0, nu))
        a = nu_a / 2.0
        z = x / 4.0
        y = 2.0 * np.sqrt(z)  # sqrt(x) to the bit unless x / 4 is subnormal
        special = _special()
        out = np.zeros_like(z)
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            half = _exp_minus_half_sqrt(x, y)
            for k in range(round(nu_b / 2.0)):
                o, fact = abs(a - k), special.gamma(a) * math.factorial(k)
                k_o = special.kve(o, y)
                # z^((a+k)/2) exp(-y) as a square keeps every factor finite up to
                # y = 1e4 for orders up to 80; beyond it the tail is 0
                root = z ** (0.25 * (a + k)) * half
                term = 2.0 * k_o * root * root / fact
                # K_o overflows only at z = 0 (y = 0 where x / 4 underflows) and
                # where z^(o/2) < Gamma(o) / 3.6e308, for o <= 2 below z = 1e-300;
                # there z^(o/2) K_o(y) is Gamma(o) / 2 to rounding, times
                # 1 - z / (o - 1) for o > 2
                small = np.isinf(k_o)
                zs = z[small]
                bracket = 1.0 - zs / (o - 1.0) if o > 2.0 else 1.0
                term[small] = zs ** min(k, a) * (special.gamma(o) / fact) * bracket
                out += term
            # NaN where kve is (y beyond about 1e15, y = inf) and where a power of
            # z overflows as exp(-y/2) underflows; every term is 0 or NaN there
            return np.where(np.isnan(out), 0.0, out)

    def _window_tail(self, x):
        """Gauss-Legendre convolution on a per-argument window, for x > 0."""
        nu_a, nu_b = self.nu1, self.nu2
        if nu_b > nu_a + 2.0:
            nu_a, nu_b = nu_b, nu_a
        s = np.sqrt(x)
        log_s = 0.5 * np.log(x)
        bulk_lo, bulk_hi = _log_bulk(nu_a)
        q_hi = _log_bulk(nu_b)[1]
        k = 0.5 * (nu_a - nu_b) + 1.0
        d0 = np.arccosh(1.0 + _WINDOW_DEPTH / s)
        d = np.arccosh(1.0 + (_WINDOW_DEPTH + k * d0) / s)
        u_lo = np.maximum(bulk_lo - log_s, np.minimum(log_s - q_hi, -d0))
        u_hi = np.maximum(bulk_hi - log_s, d)
        half_width = 0.5 * (u_hi - u_lo)
        log_t = (log_s + 0.5 * (u_hi + u_lo))[:, None] + half_width[:, None] * _GL_NODES
        t = np.exp(log_t)
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            # chi-square(nu_a) density times the Jacobian dt = t du
            log_fdt = (
                (nu_a / 2.0) * log_t
                - t / 2.0
                - _special().gammaln(nu_a / 2.0)
                - (nu_a / 2.0) * math.log(2.0)
            )
            upper = _special().gammaincc(nu_b / 2.0, x[:, None] / (2.0 * t))
            integrand = np.exp(log_fdt) * upper
            integrand = np.where(np.isfinite(integrand), integrand, 0.0)
        # a row-wise reduction, unlike a BLAS product, sums each row alike
        # whatever rows share the call
        return (integrand * _GL_WEIGHTS).sum(axis=1) * half_width

    def _base_sample(self, rng, size):
        return rng.gamma(self.nu1 / 2.0, 2.0, size) * rng.gamma(self.nu2 / 2.0, 2.0, size)

    def class_descriptor(self):
        return TailClass(0.5, 0.5)

    def _r_beta_limit(self, logy):
        return (self.nu1 + self.nu2 - 3.0) / 4.0 * logy


_FAMILIES = {cls.family: cls for cls in (ChiSquare, Chi, FDist, LogNormal, Bessel)}


def law_from_dict(spec):
    """Build a radial law from a configuration mapping.

    Expected keys: ``family`` (one of ``chi_square``, ``chi``, ``f``,
    ``log_normal``, ``bessel``) and the family's fields: the required
    ``nu`` or ``nu1``/``nu2`` and an optional ``scale``.  A missing required
    field and any other key are refused by name; the values go to the
    family's constructor as given, which checks them.
    """
    try:
        family = spec["family"]
    except (KeyError, TypeError):
        raise ValueError("law description must be a mapping with a 'family' key")
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ValueError(f"unknown law family {family!r}; expected one of {sorted(_FAMILIES)}")
    cls = _FAMILIES[family]
    names = [param.name for param in fields(cls)]
    params = {key: value for key, value in spec.items() if key != "family"}
    for key in params:
        if key not in names:
            raise ValueError(f"law family {family!r} has no parameter {key!r}; expected {names}")
    for param in fields(cls):
        if param.default is MISSING and param.name not in params:
            raise ValueError(f"law family {family!r} requires parameter {param.name!r}")
    return cls(**params)
