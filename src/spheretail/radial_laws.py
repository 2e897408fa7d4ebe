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
    """Chi-square law with ``nu`` degrees of freedom (light-tailed)."""

    nu: float
    scale: float = 1.0
    family = "chi_square"

    def _base_tail(self, x):
        return _special().gammaincc(self.nu / 2.0, x / 2.0)

    def _base_sample(self, rng, size):
        return rng.gamma(self.nu / 2.0, 2.0, size)

    def class_descriptor(self):
        return TailClass(0.0, 0.5)

    def _r_beta_limit(self, logy):
        return (self.nu - 2.0) / 2.0 * logy


@dataclass(frozen=True)
class Chi(RadialLaw):
    """Chi law (square root of a chi-square) with ``nu`` degrees of freedom."""

    nu: float
    scale: float = 1.0
    family = "chi"

    def _base_tail(self, x):
        with np.errstate(over="ignore"):  # x^2 overflows beyond 1.3e154, where Q is 0
            return _special().gammaincc(self.nu / 2.0, x * x / 2.0)

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


def _exp_minus_half_sqrt(x):
    """exp(-sqrt(x) / 2) for x >= 1, with the rounding of sqrt(x) put back.

    The rounding of y = sqrt(x), recovered exactly as y^2 - x by Veltkamp
    splitting, enters as a first-order factor: left in, it moves exp(-y) by
    up to y ulp(1)/2 relative, 7e-14 where a tail nears 1e-290.
    """
    y = np.sqrt(x)
    split = 134217729.0 * y  # 2^27 + 1
    hi = split - (split - y)
    lo = y - hi
    excess = ((hi * hi - x) + 2.0 * hi * lo) + lo * lo
    return np.exp(-0.5 * y) * (1.0 + excess / (4.0 * y))


@dataclass(frozen=True)
class Bessel(RadialLaw):
    """Law of the product of independent chi-square variates.

    The product of chi-square variables with ``nu1`` and ``nu2`` degrees of
    freedom (subexponential, not regularly varying).  The law is symmetric in
    the two.

    When one of them is even and neither exceeds 160, take the even one as
    ``2b`` (the smaller one if both are) and the other as ``2a``.  With
    ``z = x/4`` the tail is then the finite sum

        Pr(R > x) = (2 / Gamma(a)) sum_{k<b} z^((a+k)/2) K_{a-k}(2 sqrt z) / k!,

    the chi-square(2a) average of the chi-square(2b) tail, which is a Poisson
    sum.  Term ``k`` is ``z^min(k, a) Gamma(o) / (Gamma(a) k!) h_o(z)`` with
    ``o = |a - k|`` and ``h_o(z) = 2 z^(o/2) K_o(2 sqrt z) / Gamma(o)`` in
    (0, 1].  For ``z <= 1`` the terms are taken as products, since a sum of
    logarithms loses about ``|log z|`` ulps where the tail is near 1; where
    ``K_o`` overflows, ``h_o`` takes its small-``z`` expansion.  For ``z > 1``
    they are products of the exponentially scaled ``kve`` and
    ``(z^((a+k)/4) exp(-sqrt x / 2))^2``, with ``exp`` corrected for the
    rounding of ``sqrt x``, so that neither logarithms nor that rounding
    cost ``|log tail|`` ulps in the deep tail.  Against 30-digit mpmath the
    sum is within 1e-13 relative wherever the tail is at least 1e-290, for
    ``x`` in [1e-300, 1e8] and the laws the tests sweep (degrees of freedom
    from 0.2 to 20, ``(80, 2)`` and ``(160, 2)``); it rests on scipy's
    ``K``, itself off by up to about 2e-13 at some orders below 1 and
    arguments just under 2.

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
        # where the tail is within rounding of 1 either sum can exceed it, so
        # the clip of ``tail`` matters here
        even = self.nu1 % 2.0 == 0.0 or self.nu2 % 2.0 == 0.0
        small = max(self.nu1, self.nu2) <= _CLOSED_FORM_MAX_NU
        rule = self._closed_form_tail if even and small else self._window_tail
        return rule(x)

    def _closed_form_tail(self, x):
        """Finite Bessel-K sum for x > 0 when a degree of freedom is even."""
        nu_a, nu_b = self.nu1, self.nu2
        if nu_b % 2.0 != 0.0 or (nu_a % 2.0 == 0.0 and nu_a < nu_b):
            nu_a, nu_b = nu_b, nu_a
        a = nu_a / 2.0
        z = x / 4.0
        near = z <= 1.0
        z_near, z_far = z[near], z[~near]
        out = np.empty_like(z)
        special = _special()
        facts = [special.gamma(a) * math.factorial(k) for k in range(round(nu_b / 2.0))]
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            if z_near.size:
                # 2 sqrt(z) is 0 where x / 4 underflows, so that h below reads 1 there
                y_near = 2.0 * np.sqrt(z_near)
                near_sum = np.zeros_like(z_near)
                for k, fact in enumerate(facts):
                    o, m = abs(a - k), min(k, a)
                    h = 2.0 * z_near ** (o / 2.0) * special.kv(o, y_near) / special.gamma(o)
                    # K_o overflows only at z = 0 and where z^(o/2) < Gamma(o) / 3.6e308,
                    # for o <= 2 below z = 1e-300, where h is 1 to rounding
                    h = np.where(np.isfinite(h), h, 1.0 - z_near / (o - 1.0) if o > 2.0 else 1.0)
                    near_sum += z_near**m * (special.gamma(o) / fact) * h
                out[near] = near_sum
            if z_far.size:
                y_far = 2.0 * np.sqrt(z_far)
                half = _exp_minus_half_sqrt(x[~near])
                far_sum = np.zeros_like(z_far)
                for k, fact in enumerate(facts):
                    # z^((a+k)/2) exp(-y) as a square keeps every factor finite up to
                    # y = 1e4 for orders up to 80; beyond it the tail is 0
                    root = z_far ** (0.25 * (a + k)) * half
                    far_sum += 2.0 * special.kve(abs(a - k), y_far) * root * root / fact
                # NaN where kve is (y beyond about 1e15, y = inf) and where the power
                # of z overflows as exp(-y/2) underflows: the tail is 0 there
                out[~near] = np.where(np.isnan(far_sum), 0.0, far_sum)
        return out

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
