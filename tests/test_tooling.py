"""The benchmark's tracer wraps package functions by name; every name must exist."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import tracing, workloads
tracing.Tracer().install(workloads.fresh_package())
"""


def test_bench_tracer_installs_on_the_package():
    code = INSTALL.format(bench=str(ROOT / "bench"), src=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
