"""Start-up: importing the package loads numpy and ``scipy.special`` only.

Every other scipy submodule loads where it is first needed: ``scipy.optimize``
on the first Brent step (``threshold``, the Bessel window rule).  No command
loads ``scipy.stats``: the n > 3 direction average draws its Sobol sample with
numpy.  Each check runs in a fresh interpreter, since the test process itself
has long loaded them all.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

LAZY = ("scipy.optimize", "scipy.integrate", "scipy.interpolate", "scipy.stats")

# the Gaussian preset law on the benchmark's three points; its exact threshold
# at 1e-3 is pinned to the bit, so a lazily imported Brent solver that stepped
# differently would show
GAUSS_PRESET = {
    "correlation": [[1.0, 0.25, 0.25], [0.25, 1.0, 0.25], [0.25, 0.25, 1.0]],
    "law": {"family": "chi_square", "nu": 3.0},
}
C_GAMMA_EXACT_1E3 = "c_gamma = 3.401521433180644\n"


def run_fresh(code, cwd):
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_lazy_scipy_module(tmp_path):
    out = run_fresh(
        "import sys, spheretail, spheretail.cli\n"
        f"print(sorted(set({LAZY!r}) & set(sys.modules)))\n",
        tmp_path,
    )
    assert out == "[]\n"


TRAFFIC = """
import sys
from spheretail import cli, excursion, ChiSquare, PointConfiguration

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

config = PointConfiguration.from_points([[1, 0, 0, 0], [0.6, 0.8, 0, 0], [0.6, 0, 0.8, 0]])
excursion.p_exact(config, ChiSquare(4.0), 3.0)
print("n>3", loaded())
"""


def test_scipy_modules_load_on_first_use(tmp_path):
    cfg = dict(GAUSS_PRESET, c_grid={"start": 1.0, "stop": 3.0, "step": 0.5})
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = run_fresh(TRAFFIC.format(lazy=LAZY), tmp_path)
    # the grid commands print one "wrote" line each
    lines = [line for line in out.splitlines(keepends=True) if not line.startswith("wrote ")]
    # the n <= 3 commands (reproduce, approx, error) call no lazy module
    assert lines[0] == "n<=3 []\n"
    # threshold's first Brent step loads scipy.optimize and solves as before
    assert lines[1:3] == [C_GAMMA_EXACT_1E3, "threshold ['scipy.optimize']\n"]
    # the first n > 3 direction average draws its Sobol sample without scipy.stats
    assert lines[3] == "n>3 ['scipy.optimize']\n"
    assert len(lines) == 4
