"""Self-contained numerical kernel: fixed-tolerance quadrature and Brent
root finding.

Each routine is a thin wrapper around ``scipy.integrate.quad`` (QUADPACK, an
adaptive scheme with an embedded Gauss/Kronrod rule pair that copes with
integrable endpoint singularities) or ``scipy.optimize.brentq``.  The
incomplete gamma and beta functions of the radial tails are called from
``scipy.special`` where they are used, through ``radial_laws._special``.

``integrate`` has no caller inside the package; its absolute tolerance of
1e-14 gives no relative accuracy for integrals below about 1e-14.

Each routine imports its scipy submodule on first call, as
``radial_laws._special`` imports ``scipy.special``, so importing this module,
and with it ``spheretail``, loads no scipy module.  A single CLI command's
wall time is mostly import: ``simulate`` needs numpy alone, and most
commands call neither routine.

Every routine here is a pure function of its inputs and safe for concurrent
invocation; there is no shared mutable state.
"""

__all__ = ["QuadratureError", "integrate", "find_root"]


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
    from scipy.integrate import quad

    result = quad(
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
    from scipy.optimize import brentq

    return brentq(f, lo, hi, xtol=1e-13 * (1.0 + abs(hi)))
