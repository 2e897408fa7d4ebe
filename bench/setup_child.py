"""Set-up of one benchmark run in a fresh interpreter, timed by ``run.py``.

Imports the package from ``src/`` and builds the workload's first-pass
inputs, then exits.  Usage: ``python3 bench/setup_child.py WORKLOAD SEED``.
"""

import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402


def main(workload, seed):
    ref = workloads.load_reference()
    mods = workloads.fresh_package()
    with tempfile.TemporaryDirectory(dir=BENCH.parent / ".bench_out") as tmp:
        workloads.make_inputs(mods, ref, workload, seed, 0, Path(tmp))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
