"""Generate the frozen reference data in ``bench/reference.json``.

Run from the repository root::

    python3 bench/make_reference.py

Nothing here imports the package under test: grids and laws are written out
explicitly.  Reference values come from ``mpmath`` (closed forms and
one-dimensional quadratures at 30 digits) and, for the t field, from nested
double-precision QUADPACK (about 1e-11 relative); the Genz-Bretz integrators
in ``scipy.stats`` are stored beside them as an independent cross-check.
No network access is needed; a run takes about ten minutes.

Closed forms used
-----------------
For a law ``r^2`` whose field is Gaussian (``chi_square(nu = n)`` in dimension
``n``) the field is N(0, Sigma) with Sigma the Gram matrix.  For
``F(n, nu)`` in dimension ``n`` the field is a multivariate t with ``nu``
degrees of freedom divided by ``sqrt(n)``, i.e. a Gaussian field scaled by
``sqrt(nu / (n W))`` with ``W ~ chi^2_nu``.  Every configuration with a
reference probability is equicorrelated (all pairwise correlations ``rho``),
so with a common factor ``F``::

    Pr(T_i >= h for all i in S) = int phi(f) Qbar((h - sqrt(rho) f) / sqrt(1 - rho))^|S| df

and the excursion probability follows from inclusion-exclusion
(``P_tube - P = 3 O_2 - O_3`` for three points) or from
``P = 1 - int phi(f) Phi(...)^N df``.  The t case mixes these over ``W``.
The log-normal marginal is a one-dimensional beta-mixture integral.
"""

import json
import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import scipy
from scipy.integrate import quad as _sci_quad
from scipy.optimize import brentq as _sci_brentq
from scipy.special import log_ndtr, ndtr
from scipy.stats import chi2, multivariate_normal, multivariate_t

OUT = Path(__file__).resolve().parent / "reference.json"

mp.mp.dps = 30

# Relative tolerances an operation must meet against its reference, and the
# floor below which a difference is not resolved by the comparison (double
# precision rounding of quadrature-based values).  An accuracy metric reports
# max(relative error, floor) per row.
TOL = {
    "ptube": 1e-8,         # n = 3 and n > 3: adaptive quadrature of the marginal
    "p_n3": 1e-7,          # exact probability, deterministic n = 3 circle rule
    "delta_n3": 1e-6,      # relative error at n = 3
    "p_qmc": 2e-3,         # exact probability, n > 3 Sobol direction sample
    "delta_qmc": 2e-2,     # relative error, n > 3 Sobol direction sample
    "deep_delta": 1e-4,    # deep-tail relative error; the paper's log prediction is off by 5e-3
    "threshold": 1e-7,     # solved threshold: P's tolerance over a log-slope of at least 1
}
FLOOR = 1e-12
MC_Z_LIMIT = 5.0

RHO = 0.25  # benchmark geometry: three points at pairwise correlation 1/4, n = 3

CASES = {
    "t": {"law": {"family": "f", "nu1": 3.0, "nu2": 3.0, "scale": 1.0}, "grid": (1.0, 8.0, 0.5)},
    "lognormal": {
        "law": {"family": "log_normal", "scale": 3.0 * math.exp(-0.5)},
        "grid": (2.0, 64.0, 2.0),
    },
    "bessel": {
        "law": {"family": "bessel", "nu1": 3.0, "nu2": 4.0, "scale": 0.25},
        "grid": (1.0, 12.0, 1.0),
    },
    "gauss": {"law": {"family": "chi_square", "nu": 3.0, "scale": 1.0}, "grid": (0.5, 6.0, 0.25)},
}
DEEP = [("gauss", 10.0), ("gauss", 20.0), ("gauss", 40.0), ("bessel", 100.0), ("bessel", 1000.0)]

# highdim: equicorrelated reference configurations (n = N) and the c-grids of
# the random configurations, whose Bonferroni sums depend only on (n, law, c)
HIGHDIM_REF = [(5, 0.3), (10, 0.5)]
HIGHDIM_RANDOM_DIMS = [5, 10]
HIGHDIM_NU = 3.0
HIGHDIM_GRID = {"f": [2.0, 5.0, 8.0], "chi_square": [2.0, 3.0, 4.0]}  # uniform: CLI c-grids
HIGHDIM_REF_GRID = [2.0, 3.0, 4.0]

THRESHOLD_TARGETS = [1e-1, 1e-3]


def grid(start, stop, step):
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [float(x) for x in start + step * np.arange(count)]


def highdim_laws(n):
    return {
        "f": {"family": "f", "nu1": float(n), "nu2": HIGHDIM_NU, "scale": 1.0},
        "chi_square": {"family": "chi_square", "nu": float(n), "scale": 1.0},
    }


# ----------------------------------------------------------------------
# Gaussian and t fields on equicorrelated configurations
# ----------------------------------------------------------------------

def qbar(x):
    return mp.erfc(x / mp.sqrt(2)) / 2


def _orthant_peak(h, rho, k):
    """Location of the maximum of the orthant integrand, found in double precision."""
    a, s = math.sqrt(rho), math.sqrt(1.0 - rho)
    xs = np.linspace(-12.0, 3.0 * h + 12.0, 20001)
    logf = -0.5 * xs * xs + k * log_ndtr(-(h - a * xs) / s)
    return float(xs[int(np.argmax(logf))])


def gauss_orthant(h, rho, k):
    """Pr(X_i >= h, i = 1..k) for equicorrelated standard normals."""
    h, rho = mp.mpf(h), mp.mpf(rho)
    if k == 1:
        return qbar(h)
    if k == 2:
        # condition on X_1: no cancellation, integrand decays on the scale 1/h
        s = mp.sqrt(1 - rho * rho)
        w = 1 / h if h > 1 else mp.mpf(1)
        pts = [h] + [h + j * w for j in (0.125, 0.25, 0.5, 1, 2, 4, 8, 16, 32, 64)] + [mp.inf]
        return mp.quad(lambda x: mp.npdf(x) * qbar((h - rho * x) / s), pts)
    a, s = mp.sqrt(rho), mp.sqrt(1 - rho)
    peak = _orthant_peak(float(h), float(rho), k)
    offsets = (-32, -16, -8, -4, -2, -1, -0.5, -0.25, 0, 0.25, 0.5, 1, 2, 4, 8, 16, 32)
    return mp.quad(
        lambda x: mp.npdf(x) * qbar((h - a * x) / s) ** k,
        [-mp.inf] + [peak + d for d in offsets] + [mp.inf],
    )


def gauss_p(h, rho, n_points):
    """Pr(max_i X_i >= h) for N equicorrelated standard normals."""
    if n_points == 3:
        return 3 * qbar(h) - gauss_tube_minus_p(h, rho, 3)
    h, rho = mp.mpf(h), mp.mpf(rho)
    a, s = mp.sqrt(rho), mp.sqrt(1 - rho)
    below = mp.quad(
        lambda x: mp.npdf(x) * mp.ncdf((h - a * x) / s) ** n_points,
        [-mp.inf, -8, -4, -2, -1, 0, 1, 2, 4, 8, mp.inf],
    )
    return 1 - below


def gauss_tube_minus_p(h, rho, n_points):
    """P_tube - P; inclusion-exclusion for three points, difference otherwise."""
    if n_points == 3:
        return 3 * gauss_orthant(h, rho, 2) - gauss_orthant(h, rho, 3)
    return n_points * qbar(h) - gauss_p(h, rho, n_points)


def _quad(f, a, b, points=None):
    return _sci_quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=400, points=points)[0]


def _orthant_double(h, rho, k):
    """Double-precision Pr(X_i >= h, i = 1..k), equicorrelated standard normals."""
    if k == 1:
        return float(ndtr(-h))
    a, s = math.sqrt(rho), math.sqrt(1.0 - rho)
    peak = _orthant_peak(h, rho, k)
    f = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi) * ndtr(-(h - a * x) / s) ** k
    return _quad(f, peak - 40.0, peak + 40.0, points=[peak - 4, peak - 1, peak, peak + 1, peak + 4])


def _p_double(h, rho, n_points):
    if n_points == 3:
        return 3 * _orthant_double(h, rho, 1) - 3 * _orthant_double(h, rho, 2) + _orthant_double(h, rho, 3)
    a, s = math.sqrt(rho), math.sqrt(1.0 - rho)
    f = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi) * ndtr((h - a * x) / s) ** n_points
    return 1.0 - _quad(f, -40.0, 40.0, points=[-4, -1, 0, 1, 4])


def _tube_minus_p_double(h, rho, n_points):
    if n_points == 3:
        return 3 * _orthant_double(h, rho, 2) - _orthant_double(h, rho, 3)
    return n_points * _orthant_double(h, rho, 1) - _p_double(h, rho, n_points)


def t_mix(fn, c, n, nu):
    """E_W fn(c sqrt(n W / nu)) with W ~ chi^2_nu: Gaussian quantity -> t field.

    Nested double-precision quadrature (relative accuracy about 1e-11), which
    is far below every tolerance it serves.
    """
    c, n, nu = float(c), float(n), float(nu)
    dens = lambda w: chi2.pdf(w, nu)
    f = lambda w: dens(w) * fn(c * math.sqrt(n * w / nu))
    mode = max(nu - 2.0, 0.5)
    return _quad(f, 0.0, 60.0 * mode + 400.0, points=[mode / 4, mode, 2 * mode + 4, 4 * mode + 20])


def t_marginal(c, n, nu):
    x = mp.mpf(c) * mp.sqrt(n)
    return mp.betainc(mp.mpf(nu) / 2, mp.mpf(1) / 2, 0, nu / (nu + x * x), regularized=True) / 2


def lognormal_marginal(c, n, scale):
    """Pr(<u, xi> >= c) for r^2 = scale * exp(N(0,1)) in dimension n."""
    c, scale = mp.mpf(c), mp.mpf(scale)
    p, q = mp.mpf(1) / 2, mp.mpf(n - 1) / 2

    # y = u^2 removes the y^(-1/2) singularity of the Beta(1/2, q) density
    def f(u):
        if u == 0:
            return mp.mpf(0)
        y = u * u
        return qbar(mp.log(c * c / (y * scale))) * 2 * (1 - y) ** (q - 1) / mp.beta(p, q)

    return mp.quad(f, [0, mp.mpf(1) / 4, mp.mpf(1) / 2, mp.mpf(3) / 4, 1]) / 2


def marginal(law, n, c):
    fam = law["family"]
    if fam == "chi_square" and law["nu"] == n and law["scale"] == 1.0:
        return qbar(c)
    if fam == "f" and law["nu1"] == n and law["scale"] == 1.0:
        return t_marginal(c, n, law["nu2"])
    if fam == "log_normal":
        return lognormal_marginal(c, n, law["scale"])
    return None


def field_quantities(law, n, rho, n_points, c):
    """(P, P_tube - P) for a Gaussian or t field, else None."""
    fam = law["family"]
    if fam == "chi_square" and law["nu"] == n:
        return gauss_p(c, rho, n_points), gauss_tube_minus_p(c, rho, n_points)
    if fam == "f" and law["nu1"] == n:
        nu = law["nu2"]
        return (
            t_mix(lambda h: _p_double(h, rho, n_points), c, n, nu),
            t_mix(lambda h: _tube_minus_p_double(h, rho, n_points), c, n, nu),
        )
    return None


def genz_bretz_p(law, n, rho, n_points, c):
    """Independent Genz-Bretz value of P(c) = 1 - Pr(all T_i < c)."""
    cov = np.full((n_points, n_points), rho)
    np.fill_diagonal(cov, 1.0)
    x = np.full(n_points, c, dtype=float)
    if law["family"] == "chi_square":
        below = multivariate_normal.cdf(
            x, cov=cov, abseps=1e-12, releps=1e-10, maxpts=2_000_000 * n_points,
            rng=np.random.default_rng(20250810),
        )
    else:
        below = multivariate_t.cdf(
            x * math.sqrt(n), shape=cov, df=law["nu2"], maxpts=2_000_000 * n_points,
            random_state=np.random.default_rng(20250810),
        )
    return float(1.0 - below)


def relerr(a, b):
    return abs(float(a) / float(b) - 1.0)


def ref(value, oracle, tol):
    """One reference entry: value (None when only the oracle's check applies)."""
    return {"value": None if value is None else float(value), "oracle": oracle, "tol": tol}


def mc_ref():
    return ref(None, "mc_z", MC_Z_LIMIT)


def p_oracle(law):
    return "mpmath" if law["family"] == "chi_square" else "quadrature_t"


# ----------------------------------------------------------------------
# sections
# ----------------------------------------------------------------------

def reproduce_section():
    rows = []
    for case, spec in CASES.items():
        law = spec["law"]
        for c in grid(*spec["grid"]):
            m = marginal(law, 3, c)
            fq = field_quantities(law, 3, RHO, 3, c)
            row = {
                "case": case,
                "c": c,
                "ptube": ref(3 * m, "mpmath", TOL["ptube"]) if m is not None else ref(None, "none", None),
                "p": mc_ref(),
                "delta": ref(None, "none", None),
                "genz_bretz_p": None,
            }
            if fq is not None:
                p, diff = fq
                row["p"] = ref(p, p_oracle(law), TOL["p_n3"])
                row["delta"] = ref(diff / (3 * m), p_oracle(law), TOL["delta_n3"])
                if c <= 4.0:
                    gb = genz_bretz_p(law, 3, RHO, 3, c)
                    row["genz_bretz_p"] = gb
                    print(f"  {case} c={c}: Genz-Bretz vs reference P: {relerr(gb, p):.1e}", file=sys.stderr)
            rows.append(row)
        print(f"reproduce {case}: done", file=sys.stderr)
    deep = []
    for case, c in DEEP:
        law = CASES[case]["law"]
        if law["family"] == "chi_square":
            delta = gauss_tube_minus_p(c, RHO, 3) / (3 * qbar(c))
            deep.append({"case": case, "c": c, "delta": ref(delta, "mpmath", TOL["deep_delta"])})
        else:
            # no closed form; Delta > 0 for any configuration of two or more points
            deep.append({"case": case, "c": c, "delta": ref(None, "positive_finite", None)})
    return {"rows": rows, "deep": deep}


def highdim_section():
    marginals = []
    for n in HIGHDIM_RANDOM_DIMS:
        for key, law in highdim_laws(n).items():
            for c in HIGHDIM_GRID[key]:
                marginals.append({"n": n, "law": key, "c": c, "marginal": float(marginal(law, n, c))})
    points = []
    for n, rho in HIGHDIM_REF:
        for key, law in highdim_laws(n).items():
            for c in HIGHDIM_REF_GRID:
                m = marginal(law, n, c)
                p, diff = field_quantities(law, n, rho, n, c)
                gb = genz_bretz_p(law, n, rho, n, c)
                print(f"highdim n={n} {key} c={c}: Genz-Bretz vs reference P: {relerr(gb, p):.1e}",
                      file=sys.stderr)
                points.append({
                    "n": n, "rho": rho, "law": key, "c": c,
                    "ptube": ref(n * m, "mpmath", TOL["ptube"]),
                    "p": ref(p, p_oracle(law), TOL["p_qmc"]),
                    "delta": ref(diff / (n * m), p_oracle(law), TOL["delta_qmc"]),
                    "genz_bretz_p": gb,
                })
    return {
        "laws": {str(n): highdim_laws(n) for n in sorted({*HIGHDIM_RANDOM_DIMS, *(n for n, _ in HIGHDIM_REF)})},
        "grid": HIGHDIM_GRID,
        "random_dims": HIGHDIM_RANDOM_DIMS,
        "ptube_tol": TOL["ptube"],
        "marginals": marginals,
        "reference_points": points,
    }


def threshold_section():
    rows = []
    for case, spec in CASES.items():
        law = spec["law"]
        for target in THRESHOLD_TARGETS:
            row = {"case": case, "target": target, "c_tube": mc_ref(), "c_exact": mc_ref(), "check": None}
            c_tube = None
            if marginal(law, 3, 1.0) is not None:
                c_tube = _sci_brentq(lambda c: float(3 * marginal(law, 3, c) / target) - 1.0,
                                     1.0, 12.0, xtol=1e-15, rtol=1e-15)
                row["c_tube"] = ref(c_tube, "mpmath", TOL["threshold"])
                row["check"] = {"c": float(c_tube), "ptube": ref(target, "mpmath", TOL["ptube"]),
                                "p": ref(None, "none", None), "delta": ref(None, "none", None)}
            if field_quantities(law, 3, RHO, 3, 1.0) is not None:
                fn = lambda c: float(field_quantities(law, 3, RHO, 3, c)[0]) / target - 1.0
                c_exact = _sci_brentq(fn, float(c_tube) * 0.8, float(c_tube), xtol=1e-14, rtol=1e-14)
                m = marginal(law, 3, c_exact)
                p, diff = field_quantities(law, 3, RHO, 3, c_exact)
                row["c_exact"] = ref(c_exact, p_oracle(law), TOL["threshold"])
                row["check"] = {
                    "c": float(c_exact),
                    "ptube": ref(3 * m, "mpmath", TOL["ptube"]),
                    "p": ref(p, p_oracle(law), TOL["p_n3"]),
                    "delta": ref(diff / (3 * m), p_oracle(law), TOL["delta_n3"]),
                }
                print(f"threshold {case} {target}: c_exact={c_exact:.12g}", file=sys.stderr)
            rows.append(row)
    return {"targets": THRESHOLD_TARGETS, "rows": rows}


def main():
    ref_data = {
        "generated_by": "python3 bench/make_reference.py",
        "mpmath_dps": mp.mp.dps,
        "versions": {"mpmath": mp.__version__, "numpy": np.__version__, "scipy": scipy.__version__},
        "oracles": {
            "mpmath": "closed form or 1-d quadrature in mpmath at 30 digits",
            "quadrature_t": "t field as a chi-square mixture of Gaussian orthants; nested "
                            "double-precision QUADPACK, relative accuracy about 1e-11",
            "mc_z": "seeded Monte Carlo z-check; tol is the z limit",
            "positive_finite": "no closed form; the value must be finite and positive",
            "none": "not checked",
        },
        "benchmark_rho": RHO,
        "cases": CASES,
        "tolerances": TOL,
        "floor": FLOOR,
        "mc_z_limit": MC_Z_LIMIT,
        "reproduce": reproduce_section(),
        "highdim": highdim_section(),
        "threshold": threshold_section(),
    }
    OUT.write_text(json.dumps(ref_data, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT}", file=sys.stderr)


if __name__ == "__main__":
    main()
