import math
import os
import subprocess
import sys

import pytest
from scipy.special import betaln

from spheretail.special_functions import QuadratureError, find_root, integrate

from conftest import SRC


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


FIRST_CALL = """
import math, sys
from spheretail.special_functions import QuadratureError, find_root, integrate

assert "scipy.optimize" not in sys.modules
f = lambda x: math.cos(x) - x
root = find_root(f, 0.0, 2.0)
from scipy.optimize import brentq
assert root == brentq(f, 0.0, 2.0, xtol=1e-13 * (1.0 + abs(2.0))), root
assert "scipy.integrate" not in sys.modules
try:
    integrate(lambda x: 1.0 / x, 0.0, 1.0)
except QuadratureError:
    pass
else:
    raise AssertionError("1/x over [0, 1] integrated without QuadratureError")
"""


def test_first_call_in_a_fresh_process():
    # scipy.optimize and scipy.integrate load inside the first call, not on
    # import; the lazy path must give scipy's Brent root to the bit
    proc = subprocess.run(
        [sys.executable, "-c", FIRST_CALL],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
