"""Host-speed calibration for the benchmark's timing metrics.

On a shared virtual machine (the 2-vCPU KVM guest the bounds were set on)
CPU speed drifts by 30-60 % between regimes lasting seconds to minutes.  A fixed
kernel, timed between passes, measures that speed; timings are scaled by
``NOMINAL_S / median kernel time`` so that they read in seconds of a host on
which the kernel takes ``NOMINAL_S``.  The kernel mixes the kinds of work
the package does (small numpy calls from a Python loop, as in quadrature
callbacks; QUADPACK with a Python integrand; vectorised special functions;
random draws and a matrix product, as in Monte Carlo) and uses nothing from
the package, so a change to the package cannot move it.
"""

import math
import time

import numpy as np
from scipy import integrate, special

NOMINAL_S = 0.020  # the kernel's median time on the guest the bounds were set on
REPEATS = 5

_NODES = np.polynomial.legendre.leggauss(256)[0]


def kernel():
    acc = 0.0
    for i in range(150):
        x = 1.0 + 0.01 * i
        t = x * np.exp(0.5 * _NODES)
        acc += float(special.gammaincc(2.0, x / t) @ np.exp(-t / 2.0))
    acc += integrate.quad(lambda s: math.exp(-s * s) * math.sin(s) ** 2, 0.0, 10.0,
                          epsabs=1e-14, limit=200)[0]
    x = np.linspace(1.0, 50.0, 4096)
    acc += float(special.gammaincc(1.5, x[:, None] / np.linspace(1.0, 3.0, 16)[None, :]).sum())
    rng = np.random.default_rng(1)
    z = rng.standard_normal((20000, 10))
    return acc + float((z @ rng.standard_normal((10, 50))).max(axis=1).sum())


def sample(times, repeats=REPEATS):
    """Append ``repeats`` kernel timings to ``times``."""
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
