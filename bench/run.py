"""spheretail benchmark: one command, every metric by name and unit.

Run from the repository root::

    python3 bench/run.py --workload reproduce --seed 1 --seconds 30 --trace 0

Workloads are ``reproduce``, ``highdim`` and ``threshold`` (see
``BENCHMARK.json`` and ``bench/README.md``).  The run repeats cold-cache
passes until ``--seconds`` is used up (at least three), checks every output
against ``bench/reference.json``, and prints as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the run
alternates untraced and traced passes and reports the per-layer metrics.

The package is imported from ``src/`` of the checkout; the run exits with
code 2 and prints no result when it is missing.
"""

import os

# One process, no worker threads: pin the BLAS/OpenMP pools before numpy loads.
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in PINNED_THREADS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_PASSES = 3        # untraced passes of an end-to-end run
MIN_TRACED = 2        # of each kind in a traced run
SETUP_REPEATS = 3


@dataclass
class PassRecord:
    result: object        # workloads.PassResult, outputs dropped after the checks
    checks: object        # workloads.Checks
    layers: dict = None   # per-layer metrics of a traced pass
    spans: list = None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["reproduce", "highdim", "threshold"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def environment():
    import numpy
    import scipy

    return {
        "cpu": platform.processor() or platform.machine(), "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in PINNED_THREADS},
    }


def measure_setup(workload, seed, cal):
    """Wall times of fresh interpreters that import the package and build inputs."""
    import calibration

    times = []
    for _ in range(SETUP_REPEATS):
        calibration.sample(cal, 1)
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH / "setup_child.py"), workload, str(seed)],
            check=True, cwd=ROOT, timeout=120,
        )
        times.append(time.perf_counter() - start)
    return times


def run_passes(workload, seed, seconds, trace, ref, workdir, cal):
    """Cold-cache passes until the time is used up; returns (untraced, traced)."""
    import calibration
    import tracing
    import workloads

    untraced, traced = [], []
    start = time.perf_counter()
    index = 0
    while True:
        want_trace = trace and index % 2 == 1
        gc.collect()  # free the previous pass's package copy outside the timed region
        calibration.sample(cal)
        mods = workloads.fresh_package()
        inputs = workloads.make_inputs(mods, ref, workload, seed, index, workdir)
        tracer = None
        if want_trace:
            tracer = tracing.Tracer()
            tracer.install(mods)
        gc.disable()  # as timeit does: collector pauses are not the program's cost
        try:
            res = workloads.PASSES[workload](mods, ref, inputs, seed, index, workdir)
        finally:
            gc.enable()
        record = PassRecord(res, workloads.CHECKS[workload](res, ref, inputs, workdir))
        res.outputs = None
        if tracer is not None:
            record.layers, record.spans = tracer.layer_metrics(), tracer.spans
        (traced if want_trace else untraced).append(record)
        del mods, inputs, tracer
        index += 1
        if trace:
            done = len(traced) >= MIN_TRACED and len(untraced) >= MIN_TRACED
        else:
            done = len(untraced) >= MIN_PASSES
        walls = sorted(r.result.seconds for r in untraced + traced)
        if done and time.perf_counter() - start + walls[len(walls) // 2] > seconds:
            calibration.sample(cal)
            return untraced, traced


def operation_times(records):
    """Each operation's median time over the passes."""
    import metrics

    labels = records[0].result.times
    return {lbl: metrics.median([r.result.times[lbl] for r in records]) for lbl in labels}


def end_to_end(records, setup_times, ref, scale):
    """End-to-end metrics; times are multiplied by ``scale``, rates divided."""
    import metrics

    op = {lbl: t * scale for lbl, t in operation_times(records).items()}
    first = records[0].result
    pass_s = sum(op.values())
    cli = [op[lbl] for lbl in first.cli]
    acc = {k: [e for r in records for e in r.checks.acc[k]] for k in ("ptube", "p", "delta", "threshold")}
    return {
        "setup_s": metrics.median(setup_times) * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_s": pass_s,
        "rows_per_s": first.n_rows / pass_s,
        "row_ms_p50": 1e3 * metrics.percentile([op[lbl] for lbl in first.rows], 50),
        "row_ms_p90": 1e3 * metrics.percentile([op[lbl] for lbl in first.rows], 90),
        "solves_per_s": len(cli) / sum(cli),
        "solve_s_p50": metrics.median(cli),
        "mc_trials_per_s": sum(first.trials.values()) / sum(op[lbl] for lbl in first.trials),
        "fail_frac": metrics.median(
            [metrics.fail_frac(len(r.checks.failures()), r.checks.count()) for r in records]),
        "acc_ptube_relerr_max": metrics.accuracy(acc["ptube"], ref["floor"]),
        "acc_p_relerr_max": metrics.accuracy(acc["p"], ref["floor"]),
        "acc_delta_relerr_max": metrics.accuracy(acc["delta"], ref["floor"]),
        "acc_threshold_relerr_max": metrics.accuracy(acc["threshold"], ref["floor"]),
    }


def per_layer(untraced, traced):
    import metrics

    out = {name: metrics.median([r.layers[name] for r in traced]) for name in traced[0].layers}
    plain = sum(operation_times(untraced).values())
    out["trace.overhead_frac"] = sum(operation_times(traced).values()) / plain - 1.0
    return out


def write_spans(path, traced):
    """Store every traced span, one JSON line each, when the run ends."""
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for index, record in enumerate(traced):
            for span in record.spans:
                handle.write(json.dumps([index, *span]) + "\n")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "spheretail" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'spheretail'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import calibration
    import metrics
    import workloads

    ref = workloads.load_reference()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    cal = []
    try:
        setup_times = [] if args.trace else measure_setup(args.workload, args.seed, cal)
        untraced, traced = run_passes(args.workload, args.seed, args.seconds, args.trace, ref, workdir, cal)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = per_layer(untraced, traced)
        declared_metrics = declared["per_layer"]
        write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz", traced)
    else:
        values = end_to_end(untraced, setup_times, ref, calibration.NOMINAL_S / metrics.median(cal))
        declared_metrics = declared["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared_metrics}
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")

    records = untraced + traced
    walls = [r.result.seconds for r in untraced]
    reasons = Counter(why for r in records for _, why in r.checks.failures())
    print(json.dumps({"environment": environment(), "workload": args.workload, "seed": args.seed}))
    print(json.dumps({
        "passes": len(untraced), "traced_passes": len(traced),
        "pass_wall_s": {"p25": metrics.percentile(walls, 25), "median": metrics.median(walls),
                        "p75": metrics.percentile(walls, 75), "all": [round(w, 4) for w in walls]},
        "setup_s_all": [round(t, 4) for t in setup_times],
        "calibration_s": {"min": min(cal), "median": metrics.median(cal), "samples": len(cal),
                          "scale": calibration.NOMINAL_S / metrics.median(cal)},
        "row_samples": len(records[0].result.rows),
        "solve_samples": len(records[0].result.cli),
        "operations_per_pass": records[0].checks.count(),
        "failures_per_pass": {k: v / len(records) for k, v in sorted(reasons.items())},
        "probe_failures": sorted({f"{lbl}: {why}" for r in records for lbl, why in r.checks.failures(probe=True)}),
        "other_failures": sorted({f"{lbl}: {why}" for r in records for lbl, why in r.checks.failures(probe=False)}),
    }, default=str))
    failed = sum(len(r.checks.failures(probe=False)) for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r.checks.count(probe=False) for r in records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
