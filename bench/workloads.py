"""The benchmark's workloads: inputs from the seed, one cold-cache pass, checks.

A pass re-imports ``spheretail`` so that its ``lru_cache``s start empty, the
way they do in a new process, then drives the package only through its
public entry points (``cli.run``, ``excursion.*``, ``montecarlo.simulate_pmax``
and ``PointConfiguration``).  Each pass returns a ``PassResult`` with the
timings of its operations; ``check_*`` then compares the outputs with the
frozen references in ``reference.json`` outside the timed region.
"""

import contextlib
import csv
import importlib
import io
import json
import math
import sys
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import metrics

PKG = "spheretail"
MODULES = ("radial_laws", "special_functions", "geometry", "excursion", "montecarlo", "cli")
REFERENCE = Path(__file__).resolve().parent / "reference.json"

CASES = ("t", "lognormal", "bessel", "gauss")
MC_TRIALS = {"reproduce": 100_000, "highdim": 1_000_000, "threshold": 400_000}
HIGHDIM_SHAPES = ((5, 10), (10, 50))  # (dimension n, points N) of the random configurations
THRESHOLD_METHODS = ("tube", "exact")
RV_LIMIT_TOL = 0.05  # |Delta(c_max) - limit| for the regularly varying law


def fresh_package():
    """Import the package anew; every module-level cache starts empty."""
    for name in [m for m in sys.modules if m == PKG or m.startswith(PKG + ".")]:
        del sys.modules[name]
    return {m: importlib.import_module(f"{PKG}.{m}") for m in MODULES}


def load_reference(path=REFERENCE):
    """Load the frozen references and check the sections the workloads read."""
    ref = json.loads(Path(path).read_text(encoding="utf-8"))
    for key in ("floor", "mc_z_limit", "tolerances", "cases", "reproduce", "highdim", "threshold"):
        if key not in ref:
            raise ValueError(f"reference data lacks {key!r}")
    for row in ref["reproduce"]["rows"]:
        for q in ("ptube", "p", "delta"):
            if set(row[q]) != {"value", "oracle", "tol"}:
                raise ValueError(f"reference row {row['case']} c={row['c']} has a malformed {q!r}")
    if {row["case"] for row in ref["reproduce"]["rows"]} != set(CASES):
        raise ValueError("reference data must cover every reproduce case")
    return ref


def sub_seed(seed, *labels):
    """Stable 63-bit seed derived from the run seed and labels."""
    text = "/".join(str(x) for x in (seed, *labels)).encode()
    return (zlib.crc32(text) << 31) ^ zlib.crc32(text[::-1])


# ----------------------------------------------------------------------
# pass bookkeeping
# ----------------------------------------------------------------------

@dataclass
class PassResult:
    """Timings and outputs of one pass."""

    seconds: float = 0.0                            # wall time of the whole pass
    n_rows: int = 0                                 # result rows the pass produced
    times: dict = field(default_factory=dict)       # label -> seconds of one timed operation
    rows: list = field(default_factory=list)        # labels of operations timing one row each
    cli: list = field(default_factory=list)         # labels of CLI commands
    trials: dict = field(default_factory=dict)      # label -> Monte Carlo trials it ran
    outputs: dict = field(default_factory=dict)     # label -> value or Failure


@dataclass(frozen=True)
class Failure:
    kind: str  # exception type name


def attempt(fn):
    try:
        return fn()
    except Exception as exc:  # a failing operation is recorded, not fatal
        return Failure(type(exc).__name__)


class Timer:
    """Times one operation, keeps its value or failure, and files its label."""

    def __init__(self, result):
        self.result = result

    def __call__(self, label, fn, row=False, cli=False, trials=0):
        start = time.perf_counter()
        value = attempt(fn)
        self.result.times[label] = time.perf_counter() - start
        self.result.outputs[label] = value
        if row:
            self.result.rows.append(label)
        if cli:
            self.result.cli.append(label)
        if trials:
            self.result.trials[label] = trials
        return value


def quiet_cli(cli, argv):
    """Run one CLI command with its console output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
    return out.getvalue()


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def benchmark_correlation(rho=0.25, n_points=3):
    corr = np.full((n_points, n_points), rho)
    np.fill_diagonal(corr, 1.0)
    return corr


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

def random_points(seed, pass_index, n, n_points):
    """Uniform points on the sphere in R^n, new for every (seed, pass)."""
    rng = np.random.default_rng([seed, pass_index, n, n_points])
    pts = rng.standard_normal((n_points, n))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def make_inputs(mods, ref, workload, seed, pass_index, workdir):
    """Inputs of one pass, built from the seed; also what ``setup_s`` times."""
    geo, rl, cli = mods["geometry"], mods["radial_laws"], mods["cli"]
    bench = geo.PointConfiguration.from_correlation(benchmark_correlation())
    laws = {case: cli.REPRODUCE_CASES[case]["law"] for case in CASES}
    inputs = {"config": bench, "laws": laws}
    if workload == "highdim":
        hd = ref["highdim"]
        randoms = []
        for n, n_points in HIGHDIM_SHAPES:
            pts = random_points(seed, pass_index, n, n_points)
            config = geo.PointConfiguration.from_points(pts)
            for key, spec in hd["laws"][str(n)].items():
                grid = hd["grid"][key]
                path = workdir / f"highdim-{n}-{n_points}-{key}.json"
                path.write_text(json.dumps({
                    "points": pts.tolist(),
                    "law": spec,
                    "c_grid": {"start": grid[0], "stop": grid[-1], "step": grid[1] - grid[0]},
                }), encoding="utf-8")
                randoms.append((n, n_points, config, key, rl.law_from_dict(spec), grid, path))
        ref_configs = {}
        for point in hd["reference_points"]:
            key = (point["n"], point["rho"])
            if key not in ref_configs:
                corr = benchmark_correlation(point["rho"], point["n"])
                ref_configs[key] = geo.PointConfiguration.from_correlation(corr)
        inputs.update(randoms=randoms, ref_configs=ref_configs)
    elif workload == "threshold":
        paths = {}
        for case in CASES:
            path = workdir / f"threshold-{case}.json"
            path.write_text(json.dumps({
                "correlation": benchmark_correlation().tolist(),
                "law": ref["cases"][case]["law"],
            }), encoding="utf-8")
            paths[case] = path
        inputs.update(paths=paths, single=geo.PointConfiguration.from_points([[1.0, 0.0, 0.0]]))
    return inputs


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------

def reproduce_pass(mods, ref, inputs, seed, pass_index, workdir):
    cli, exc, mc = mods["cli"], mods["excursion"], mods["montecarlo"]
    res = PassResult(n_rows=len(ref["reproduce"]["rows"]) + len(ref["reproduce"]["deep"]))
    timer = Timer(res)
    config, laws = inputs["config"], inputs["laws"]
    start = time.perf_counter()
    for case in CASES:
        out = workdir / f"reproduce_{case}.csv"
        timer(("cli", case), lambda: quiet_cli(cli, ["reproduce", "--case", case, "--out", str(out)]),
              cli=True)
    for case in CASES:
        grid = np.array([r["c"] for r in ref["reproduce"]["rows"] if r["case"] == case])
        trials = MC_TRIALS["reproduce"]
        timer(("mc", case), lambda: mc.simulate_pmax(
            config, laws[case], grid, trials, sub_seed(seed, pass_index, "mc", case)), trials=trials)
    for deep in ref["reproduce"]["deep"]:
        law, c = laws[deep["case"]], deep["c"]
        timer(("deep", deep["case"], c), lambda: (
            attempt(lambda: exc.build_report(config, law, c)),
            attempt(lambda: exc.delta_exact(config, law, c))), row=True)
    res.seconds = time.perf_counter() - start
    return res


def highdim_pass(mods, ref, inputs, seed, pass_index, workdir):
    cli, exc, rl = mods["cli"], mods["excursion"], mods["radial_laws"]
    res = PassResult()
    timer = Timer(res)
    trials = MC_TRIALS["highdim"]
    start = time.perf_counter()
    for n, _n_points, config, key, law, grid, path in inputs["randoms"]:
        for c in grid:
            def row():
                p, se = exc.p_exact(config, law, c, with_se=True)
                return p, se, exc.delta_exact(config, law, c)
            timer(("row", n, key, c), row, row=True)
        if key == "f":
            timer(("rv", n, key), lambda: exc.delta_rv_limit(config, law.class_descriptor().gamma))
        timer(("mc", n, key), lambda: quiet_cli(cli, [
            "simulate", "--config", str(path), "--out", str(path.with_suffix(".csv")),
            "--trials", str(trials), "--seed", str(sub_seed(seed, pass_index, n, key))]),
            cli=True, trials=trials)
    laws = ref["highdim"]["laws"]
    for point in ref["highdim"]["reference_points"]:
        config = inputs["ref_configs"][(point["n"], point["rho"])]
        law = rl.law_from_dict(laws[str(point["n"])][point["law"]])
        c = point["c"]
        timer(("refrow", point["n"], point["law"], c), lambda: exc.build_report(config, law, c), row=True)
    res.seconds = time.perf_counter() - start
    res.n_rows = len(res.rows)
    return res


def threshold_pass(mods, ref, inputs, seed, pass_index, workdir):
    cli, exc, mc = mods["cli"], mods["excursion"], mods["montecarlo"]
    res = PassResult()
    timer = Timer(res)
    config, laws = inputs["config"], inputs["laws"]
    trials = MC_TRIALS["threshold"]
    start = time.perf_counter()
    for row in ref["threshold"]["rows"]:
        case, target = row["case"], row["target"]
        for method in THRESHOLD_METHODS:
            value = timer(("solve", case, method, target), lambda: _parse_threshold(quiet_cli(cli, [
                "threshold", "--config", str(inputs["paths"][case]),
                "--target", repr(target), "--method", method])), cli=True)
            if row[f"c_{method}"]["oracle"] == "mc_z" and not isinstance(value, Failure):
                # tube: the marginal of one point; exact: the configuration's maximum
                target_config = inputs["single"] if method == "tube" else config
                timer(("mc", case, method, target), lambda: mc.simulate_pmax(
                    target_config, laws[case], np.array([value]), trials,
                    sub_seed(seed, pass_index, case, method, target)), trials=trials)
        if row["check"] is not None:
            c = row["check"]["c"]
            timer(("check", case, target), lambda: exc.build_report(config, laws[case], c), row=True)
    res.seconds = time.perf_counter() - start
    res.n_rows = len(res.rows)
    return res


def _parse_threshold(text):
    for line in text.splitlines():
        if line.startswith("c_gamma = "):
            return float(line.split("=", 1)[1])
    raise ValueError(f"no threshold in CLI output {text!r}")


PASSES = {"reproduce": reproduce_pass, "highdim": highdim_pass, "threshold": threshold_pass}


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------

class Checks:
    """Outcome of every checked operation of one pass, plus accuracy errors.

    ``probe`` marks the deep-tail rows that are known to fail at the seed:
    they count in ``fail_frac`` but not in the run's ``failed``/``correct``.
    """

    def __init__(self):
        self.items = []  # (label, reason or None, probe)
        self.acc = {"ptube": [], "p": [], "delta": [], "threshold": []}

    def add(self, label, reason, probe=False):
        self.items.append((label, reason, probe))

    def failures(self, probe=None):
        return [(lbl, why) for lbl, why, pr in self.items
                if why is not None and (probe is None or pr == probe)]

    def count(self, probe=None):
        return sum(1 for _, _, pr in self.items if probe is None or pr == probe)

    def against(self, value, entry, acc_key=None):
        """Reason the value misses its reference entry, or None."""
        if entry["value"] is None:
            if entry["oracle"] == "positive_finite":
                return _finite_positive(value)
            return None
        if value is None or not math.isfinite(value):
            return "non_finite"
        if value == 0.0 and entry["value"] != 0.0:
            return "zero_where_reference_nonzero"
        err = metrics.relerr(value, entry["value"])
        if acc_key is not None:
            self.acc[acc_key].append(err)
        return "tolerance" if err > entry["tol"] else None


def _finite_positive(value):
    if value is None or not math.isfinite(value):
        return "non_finite"
    return None if value > 0.0 else "zero_where_reference_nonzero"


def _first(*reasons):
    return next((r for r in reasons if r is not None), None)


def _z_reason(z, limit):
    return None if z <= limit else "mc_z"


def check_reproduce(res, ref, inputs, workdir):
    chk = Checks()
    zlim = ref["mc_z_limit"]
    trials = MC_TRIALS["reproduce"]
    for case in CASES:
        rows = [r for r in ref["reproduce"]["rows"] if r["case"] == case]
        ran = res.outputs[("cli", case)]
        mc = res.outputs[("mc", case)]
        chk.add(("mc", case), mc.kind if isinstance(mc, Failure) else None)
        out = read_csv(workdir / f"reproduce_{case}.csv") if not isinstance(ran, Failure) else []
        if len(out) != len(rows):
            for r in rows:
                chk.add(("row", case, r["c"]), ran.kind if isinstance(ran, Failure) else "missing_row")
            continue
        for j, (r, got) in enumerate(zip(rows, out)):
            vals = {k: float(got[k]) for k in ("c", "p_tube", "p_exact", "delta_exact", "p_sim")}
            p_hat = None if isinstance(mc, Failure) else float(mc.estimates[j])
            reason = _first(
                None if vals["c"] == r["c"] else "grid_mismatch",
                chk.against(vals["p_tube"], r["ptube"], "ptube"),
                chk.against(vals["p_exact"], r["p"], "p"),
                chk.against(vals["delta_exact"], r["delta"], "delta"),
                None if p_hat is None else _z_reason(metrics.mc_z(vals["p_exact"], p_hat, trials), zlim),
                _z_reason(metrics.mc_z(vals["p_exact"], vals["p_sim"], 10_000), zlim),
            )
            chk.add(("row", case, r["c"]), reason)
    for deep in ref["reproduce"]["deep"]:
        report, delta = res.outputs[("deep", deep["case"], deep["c"])]
        for kind, value in (("build_report", report), ("delta_exact", delta)):
            if isinstance(value, Failure):
                reason = value.kind
            else:
                reason = chk.against(value.delta_exact if kind == "build_report" else value, deep["delta"])
            chk.add((kind, deep["case"], deep["c"]), reason, probe=True)
    return chk


def check_highdim(res, ref, inputs, workdir):
    chk = Checks()
    zlim = ref["mc_z_limit"]
    hd = ref["highdim"]
    marginals = {(m["n"], m["law"], m["c"]): m["marginal"] for m in hd["marginals"]}
    for n, n_points, _config, key, _law, grid, path in inputs["randoms"]:
        sim = res.outputs[("mc", n, key)]
        chk.add(("mc", n, key), sim.kind if isinstance(sim, Failure) else None)
        p_hat = None
        if not isinstance(sim, Failure):
            p_hat = [float(r["p_hat"]) for r in read_csv(path.with_suffix(".csv"))]
        for j, c in enumerate(grid):
            value = res.outputs[("row", n, key, c)]
            if isinstance(value, Failure):
                chk.add(("row", n, key, c), value.kind)
                continue
            p, se, delta = value
            entry = {"value": n_points * marginals[(n, key, c)], "oracle": "mpmath", "tol": hd["ptube_tol"]}
            reason = _first(
                None if 0.0 < p <= 1.0 else "non_finite",
                None if math.isfinite(delta) and 0.0 < delta < 1.0 else "non_finite",
                # P = P_tube (1 - Delta) holds exactly for the returned pair
                chk.against(p / (1.0 - delta), entry, "ptube"),
                None if p_hat is None else _z_reason(metrics.mc_z(p, p_hat[j], MC_TRIALS["highdim"], se), zlim),
            )
            chk.add(("row", n, key, c), reason)
        if key == "f":
            limit = res.outputs[("rv", n, key)]
            last = res.outputs[("row", n, key, grid[-1])]
            if isinstance(limit, Failure):
                reason = limit.kind
            elif not (math.isfinite(limit) and 0.0 < limit < 1.0):
                reason = "non_finite"
            elif isinstance(last, Failure) or abs(last[2] - limit) > RV_LIMIT_TOL:
                reason = "tolerance"
            else:
                reason = None
            chk.add(("rv", n, key), reason)
    for point in hd["reference_points"]:
        label = ("refrow", point["n"], point["law"], point["c"])
        report = res.outputs[label]
        if isinstance(report, Failure):
            chk.add(label, report.kind)
            continue
        chk.add(label, _first(
            chk.against(report.p_tube, point["ptube"], "ptube"),
            chk.against(report.p_exact, point["p"], "p"),
            chk.against(report.delta_exact, point["delta"], "delta"),
        ))
    return chk


def check_threshold(res, ref, inputs, workdir):
    chk = Checks()
    zlim = ref["mc_z_limit"]
    trials = MC_TRIALS["threshold"]
    for row in ref["threshold"]["rows"]:
        case, target = row["case"], row["target"]
        for method in THRESHOLD_METHODS:
            label = ("solve", case, method, target)
            value = res.outputs[label]
            entry = row[f"c_{method}"]
            if isinstance(value, Failure):
                chk.add(label, value.kind)
                continue
            if entry["oracle"] == "mc_z":
                sim = res.outputs[("mc", case, method, target)]
                if isinstance(sim, Failure):
                    chk.add(label, sim.kind)
                    continue
                # tube solves P_tube = 3 Pr(T_1 >= c) = target on a single point
                model = target / 3.0 if method == "tube" else target
                chk.add(label, _z_reason(metrics.mc_z(model, float(sim.estimates[0]), trials), zlim))
            else:
                chk.add(label, chk.against(value, entry, "threshold"))
        if row["check"] is not None:
            label = ("check", case, target)
            report = res.outputs[label]
            if isinstance(report, Failure):
                chk.add(label, report.kind)
                continue
            chk.add(label, _first(
                chk.against(report.p_tube, row["check"]["ptube"], "ptube"),
                chk.against(report.p_exact, row["check"]["p"], "p"),
                chk.against(report.delta_exact, row["check"]["delta"], "delta"),
            ))
    return chk


CHECKS = {"reproduce": check_reproduce, "highdim": check_highdim, "threshold": check_threshold}
