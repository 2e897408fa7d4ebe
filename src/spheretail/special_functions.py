"""Self-contained numerical kernel.

Regularized incomplete beta/gamma functions, fixed-tolerance quadrature and
Brent root finding.  Each routine is a thin, domain-checked wrapper around
``scipy.special`` (Cephes), ``scipy.integrate.quad`` (QUADPACK, an adaptive
scheme with an embedded Gauss/Kronrod rule pair that copes with integrable
endpoint singularities) or ``scipy.optimize.brentq``.

``integrate`` has no caller inside the package; its absolute tolerance of
1e-14 gives no relative accuracy for integrals below about 1e-14.

Every routine here is a pure function of its inputs and safe for concurrent
invocation; there is no shared mutable state.
"""

import numpy as np
from scipy import integrate as _sci_integrate
from scipy import optimize as _sci_optimize
from scipy import special as _sci_special

__all__ = [
    "QuadratureError",
    "reg_inc_beta",
    "reg_inc_gamma_upper",
    "integrate",
    "find_root",
]


class QuadratureError(ArithmeticError):
    """Raised when adaptive integration cannot reach the requested tolerance.

    The message ends with the estimate and its error bound.

    Attributes
    ----------
    estimate : float
        Best available estimate of the integral.
    error_bound : float
        Bound on the absolute error of ``estimate``.
    """

    def __init__(self, message, estimate, error_bound):
        super().__init__(
            f"{message} (estimate {estimate:.6g}, error bound {error_bound:.6g})"
        )
        self.estimate = estimate
        self.error_bound = error_bound


def _require_positive(name, value):
    if np.any(np.asarray(value) <= 0.0):
        raise ValueError(f"{name} must be strictly positive, got {value}")


def reg_inc_beta(x, p, q):
    """Regularized incomplete beta function I_x(p, q).

    Parameters
    ----------
    x : float or array_like in [0, 1]
    p, q : float or array_like, > 0

    Returns
    -------
    float or ndarray in [0, 1], nondecreasing in ``x``.
    """
    _require_positive("p", p)
    _require_positive("q", q)
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0) or np.any(xa > 1.0):
        raise ValueError(f"x must lie in [0, 1], got {x}")
    out = _sci_special.betainc(p, q, xa)
    return float(out) if np.ndim(x) == 0 else out


def reg_inc_gamma_upper(s, x):
    """Regularized upper incomplete gamma function Q(s, x) = Gamma(s, x)/Gamma(s).

    Parameters
    ----------
    s : float or array_like, > 0
    x : float or array_like, >= 0

    Returns
    -------
    float or ndarray in [0, 1], nonincreasing in ``x``.
    """
    _require_positive("s", s)
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0):
        raise ValueError(f"x must be nonnegative, got {x}")
    out = _sci_special.gammaincc(s, xa)
    return float(out) if np.ndim(x) == 0 else out


def integrate(f, a, b):
    """Adaptive quadrature of ``f`` over ``[a, b]`` to a fixed tolerance.

    The rule is absolute 1e-14, relative 1e-10, at most 400 subintervals.
    Integrable endpoint singularities of power type are handled by the
    underlying extrapolating QUADPACK scheme.  Deterministic for fixed inputs.

    Raises
    ------
    QuadratureError
        If the tolerance is not reached within the subdivision budget; the
        exception carries the best estimate and error bound.
    """
    result = _sci_integrate.quad(
        f, a, b, epsabs=1e-14, epsrel=1e-10, limit=400, full_output=1
    )
    if len(result) > 3:
        raise QuadratureError(str(result[3]), estimate=result[0], error_bound=result[1])
    return result[0]


def find_root(f, lo, hi):
    """Root of ``f`` on the sign-changing bracket ``[lo, hi]`` by Brent's method.

    Stops at an absolute width of ``1e-13 * (1 + |hi|)``.  Raises
    ``ValueError`` when ``f(lo)`` and ``f(hi)`` have the same sign.
    """
    return _sci_optimize.brentq(f, lo, hi, xtol=1e-13 * (1.0 + abs(hi)))
