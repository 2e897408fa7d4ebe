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
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np
from scipy import special as _sci_special

from .special_functions import find_root, reg_inc_beta, reg_inc_gamma_upper

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


class RadialLaw:
    """Base class for the law of the squared radial part; each family is a
    frozen dataclass whose fields are its parameters, all positive, finite and
    stored as ``float`` (so equal laws serialise, and digest, alike)."""

    family = "base"

    def __post_init__(self):
        for param in fields(self):
            value = getattr(self, param.name)
            if not value > 0.0:
                raise ValueError(f"{param.name} must be positive, got {value}")
            if value == math.inf:
                raise ValueError(f"{param.name} must be finite, got {value}")
            object.__setattr__(self, param.name, float(value))

    def tail(self, x):
        """Upper tail Pr(R > x) for x >= 0; accepts scalars or arrays."""
        xa = np.asarray(x, dtype=float)
        if not np.all(xa >= 0.0):
            raise ValueError("tail argument must be nonnegative (and not NaN)")
        out = self._base_tail(np.atleast_1d(xa) / self.scale)
        return float(out[0]) if np.ndim(x) == 0 else out.reshape(xa.shape)

    def sample(self, rng, size=None):
        """Draw variates using an explicitly passed ``numpy`` generator."""
        return self.scale * self._base_sample(rng, size)

    def class_descriptor(self):
        raise NotImplementedError

    def r_beta(self, h, y):
        """Closed-form limit of the slowly-varying correction term.

        Defined per family; equals 0 at ``y = 1`` and is evaluated at the
        asymptotic limit (the ``h`` dependence has already been taken).
        """
        if h < 1.0:
            raise ValueError("h must be >= 1")
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
        return reg_inc_gamma_upper(self.nu / 2.0, x / 2.0)

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
        return reg_inc_gamma_upper(self.nu / 2.0, x * x / 2.0)

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
        return reg_inc_beta(t, self.nu2 / 2.0, self.nu1 / 2.0)

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
        out = np.ones_like(x)
        pos = x > 0.0
        out[pos] = _sci_special.ndtr(-np.log(x[pos]))
        return out

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


@dataclass(frozen=True)
class Bessel(RadialLaw):
    """Law of the product of independent chi-square variates.

    The product of chi-square variables with ``nu1`` and ``nu2`` degrees of
    freedom (subexponential, not regularly varying).  The law is symmetric in
    the two; with ``(a, b) = (nu1, nu2)``, swapped when ``nu2 > nu1 + 2`` so
    that ``k = (a - b)/2 + 1 >= 0``, the exact tail is the convolution
    ``int f_a(t) Q(b/2, x/(2t)) dt``.  It is taken by one Gauss-Legendre rule
    in ``u = log(t / s)``, ``s = sqrt(x)``, on a window chosen per argument
    from where the integrand lives:

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
    2, the window is too wide for the fixed rule (relative error up to 6e-5
    at ``nu = (0.2, 2)``); no caller in this package evaluates the tail there.
    """

    nu1: float
    nu2: float
    scale: float = 1.0
    family = "bessel"

    def _base_tail(self, x):
        out = np.ones_like(x)
        pos = x > 0.0
        if not np.any(pos):
            return out
        nu_a, nu_b = self.nu1, self.nu2
        if nu_b > nu_a + 2.0:
            nu_a, nu_b = nu_b, nu_a
        xp = x[pos]
        s = np.sqrt(xp)
        log_s = 0.5 * np.log(xp)
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
                - _sci_special.gammaln(nu_a / 2.0)
                - (nu_a / 2.0) * math.log(2.0)
            )
            upper = _sci_special.gammaincc(nu_b / 2.0, xp[:, None] / (2.0 * t))
            integrand = np.exp(log_fdt) * upper
            integrand = np.where(np.isfinite(integrand), integrand, 0.0)
        # where the tail is within rounding of 1 the sum can exceed it
        out[pos] = np.minimum((integrand @ _GL_WEIGHTS) * half_width, 1.0)
        return out

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
    ``nu`` or ``nu1``/``nu2`` and an optional ``scale``.
    """
    try:
        family = spec["family"]
    except (KeyError, TypeError):
        raise ValueError("law description must be a mapping with a 'family' key")
    if family not in _FAMILIES:
        raise ValueError(f"unknown law family {family!r}; expected one of {sorted(_FAMILIES)}")
    cls = _FAMILIES[family]
    kwargs = {}
    for param in fields(cls):
        if param.name in spec:
            kwargs[param.name] = float(spec[param.name])
        elif param.default is MISSING:
            raise ValueError(f"law family {family!r} requires parameter {param.name!r}")
    return cls(**kwargs)
