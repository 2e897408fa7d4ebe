"""Start-up: importing the package loads numpy and no scipy module, and none
of ``concurrent.futures``, ``logging`` or ``hashlib``.

Each scipy submodule loads where it is first needed: ``scipy.special`` at the
first special function (a radial tail, a beta mixture, the Gaussian quantiles
of the n > 3 Sobol sample), ``scipy.optimize`` on the first Brent step
(``threshold``, the Bessel window rule).  ``simulate`` and a configuration
error load none, in any dimension.  No command loads ``scipy.stats``: the
n > 3 direction average draws its Sobol sample with numpy.  Each check runs
in a fresh interpreter, since the test process itself has long loaded them
all, and that interpreter imports the package from where the tests import it
(``conftest.SRC``), so the checks hold for an installed copy too.
"""

import json
import os
import subprocess
import sys

from conftest import SRC
from test_cli import PINNED_SOLVES

LAZY = ("scipy.special", "scipy.optimize", "scipy.integrate", "scipy.interpolate", "scipy.stats")

# every module of the scipy package that a process has loaded
SCIPY_LOADED = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"

# the Gaussian preset law on the benchmark's three points; its exact threshold
# at 1e-3 is pinned to the bit in test_cli, so a lazily imported Brent solver
# that stepped differently would show
GAUSS_PRESET = {
    "correlation": [[1.0, 0.25, 0.25], [0.25, 1.0, 0.25], [0.25, 0.25, 1.0]],
    "law": {"family": "chi_square", "nu": 3.0},
}
C_GAMMA_EXACT_1E3 = f"c_gamma = {PINNED_SOLVES['gauss', '0.001', 'exact']}\n"


def run_fresh(code, cwd):
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_scipy_module(tmp_path):
    out = run_fresh(
        "import sys, spheretail, spheretail.cli\n"
        f"print({SCIPY_LOADED})\n",
        tmp_path,
    )
    assert out == "[]\n"


def test_import_loads_no_executor_logging_or_hashlib(tmp_path):
    # the Monte Carlo chunks run on plain threads, with no concurrent.futures
    # executor (which would load logging), and hashlib loads at the first
    # digest a simulation takes
    out = run_fresh(
        "import sys, spheretail, spheretail.cli\n"
        "print(sorted({'concurrent.futures', 'logging', 'hashlib'} & set(sys.modules)))\n",
        tmp_path,
    )
    assert out == "[]\n"


SIMULATE = """
import json, sys
from spheretail import cli

low = dict({gauss!r}, c_grid={{"start": 1.0, "stop": 3.0, "step": 0.5}}, trials=20000)
# four unit vectors in R^10, one Monte Carlo chunk and a part
points = [[0.0] * 10 for _ in range(4)]
points[0][0] = points[2][4] = 1.0
points[1][0:2] = [0.6, 0.8]
points[3][8:10] = [0.6, 0.8]
high = dict(points=points, law={{"family": "chi_square", "nu": 10.0}},
            c_grid={{"start": 1.0, "stop": 3.0, "step": 0.5}}, trials=20000)
for name, cfg in (("n=3", low), ("n=10", high)):
    with open(name + ".json", "w") as handle:
        json.dump(cfg, handle)
    assert cli.run(["simulate", "--config", name + ".json", "--out", name + ".csv"]) == 0
    print(name, {loaded})
assert cli.run(["approx", "--config", "missing.json", "--out", "x.csv"]) == 1
print("config error", {loaded})
"""


def test_simulate_loads_no_scipy_module(tmp_path):
    # simulate needs numpy alone, at n <= 3 and above
    out = run_fresh(SIMULATE.format(gauss=GAUSS_PRESET, loaded=SCIPY_LOADED), tmp_path)
    lines = [line for line in out.splitlines(keepends=True) if not line.startswith("wrote ")]
    assert lines == ["n=3 []\n", "n=10 []\n", "config error []\n"]


TRAFFIC = """
import sys
from spheretail import cli

LAZY = {lazy!r}

def loaded():
    return sorted(set(LAZY) & set(sys.modules))

for case in ("t", "lognormal", "bessel", "gauss"):
    assert cli.run(["reproduce", "--case", case, "--trials", "1000",
                    "--out", case + ".csv"]) == 0
for command in ("approx", "error"):
    assert cli.run([command, "--config", "cfg.json", "--out", command + ".csv"]) == 0
print("n<=3", loaded())

assert cli.run(["threshold", "--config", "cfg.json", "--target", "1e-3",
                "--method", "exact"]) == 0
print("threshold", loaded())
"""


def test_scipy_modules_load_on_first_use(tmp_path):
    cfg = dict(GAUSS_PRESET, c_grid={"start": 1.0, "stop": 3.0, "step": 0.5})
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = run_fresh(TRAFFIC.format(lazy=LAZY), tmp_path)
    # the grid commands print one "wrote" line each
    lines = [line for line in out.splitlines(keepends=True) if not line.startswith("wrote ")]
    # the n <= 3 tail commands (reproduce, approx, error) load scipy.special alone
    assert lines[0] == "n<=3 ['scipy.special']\n"
    # threshold's first Brent step adds scipy.optimize and solves as before
    assert lines[1:3] == [C_GAMMA_EXACT_1E3, "threshold ['scipy.optimize', 'scipy.special']\n"]
    assert len(lines) == 3


def test_n_above_three_loads_scipy_special_alone(tmp_path):
    # on its own, so that a module some earlier command loaded cannot hide one
    # this path loads: the first n > 3 direction average draws its Sobol sample
    # with numpy and maps it by scipy.special's ndtri, and no step of it needs
    # scipy.optimize or scipy.stats
    out = run_fresh(
        "import sys\n"
        "from spheretail import ChiSquare, PointConfiguration, p_exact\n"
        "config = PointConfiguration.from_points(\n"
        "    [[1, 0, 0, 0], [0.6, 0.8, 0, 0], [0.6, 0, 0.8, 0]])\n"
        "p_exact(config, ChiSquare(4.0), 3.0)\n"
        f"print(sorted(set({LAZY!r}) & set(sys.modules)))\n",
        tmp_path,
    )
    assert out == "['scipy.special']\n"
