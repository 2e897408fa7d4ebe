"""Command-line front end.

Subcommands compute the Bonferroni approximation, the exact excursion
probability, Monte Carlo estimates, relative-error tables with predictions
and bounds, solve for thresholds, and reproduce the built-in benchmark
cases (three points at pairwise correlation 1/4 in three dimensions, under
four radial laws).  All output is CSV with a header row; floats carry 17
significant digits so files are bit-stable across runs.

Exit codes: 0 success, 1 configuration or validation error, 2 numerical
failure or a usage error from the argument parser.
"""

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import excursion, montecarlo
from .geometry import PointConfiguration
from .radial_laws import Bessel, ChiSquare, FDist, LogNormal, _as_real, law_from_dict

__all__ = ["ExperimentConfig", "run", "main", "REPRODUCE_CASES"]


# The keys an experiment file may hold, and those of its ``c_grid`` object;
# any other key, such as a misspelt "trials", is refused rather than ignored.
_CONFIG_KEYS = ("points", "correlation", "law", "c_grid", "trials", "seed", "output")
_GRID_KEYS = ("start", "stop", "step")


def _refuse_unknown_keys(name, spec, keys):
    """Refuse, by name, the first key of the object ``spec`` outside ``keys``."""
    for key in spec:
        if key not in keys:
            raise ValueError(f"{name} has no key {key!r}; expected {list(keys)}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description assembled from file and flags."""

    configuration: PointConfiguration
    law: object
    c_grid: np.ndarray | None  # None for ``threshold``, which reads no grid
    trials: object        # as given; simulate_pmax reads it by montecarlo's rule
    seed: object          # as given; simulate_pmax reads it by montecarlo's rule
    output: str | None

    @classmethod
    def load(cls, args):
        """The experiment of the ``--config`` file, or of the ``--case`` preset
        of ``reproduce``, with ``--c-grid``, ``--out``, ``--trials`` and
        ``--seed`` overriding it.  ``threshold`` reads no grid, so none is
        built or checked for it."""
        if args.command == "reproduce":
            raw = _reproduce_preset(args.case)
        else:
            with open(args.config, encoding="utf-8") as handle:
                raw = json.load(handle)
        if not isinstance(raw, dict):
            raise ValueError(f"config must be a JSON object, got {raw!r}")
        _refuse_unknown_keys("config", raw, _CONFIG_KEYS)
        has_points = "points" in raw
        has_corr = "correlation" in raw
        if has_points == has_corr:
            raise ValueError(
                "config must contain exactly one of 'points' or 'correlation'"
            )
        source = "points" if has_points else "correlation"
        array = _config_array(source, raw[source])
        if has_points:
            configuration = PointConfiguration.from_points(array)
        else:
            configuration = PointConfiguration.from_correlation(array)
        if "law" not in raw:
            raise ValueError("config must contain a 'law' object")
        law = law_from_dict(raw["law"])
        grid_spec = raw.get("c_grid")
        if args.command == "threshold":
            grid = None
        elif args.c_grid:
            grid = _parse_grid(args.c_grid)
        elif grid_spec is not None:
            if not isinstance(grid_spec, dict) or not set(_GRID_KEYS) <= grid_spec.keys():
                raise ValueError(
                    f"c_grid must be an object with 'start', 'stop' and 'step', got {grid_spec!r}"
                )
            _refuse_unknown_keys("c_grid", grid_spec, _GRID_KEYS)
            bounds = [_as_real(f"c_grid {key}", grid_spec[key]) for key in _GRID_KEYS]
            grid = _build_grid(*bounds)
        else:
            grid = _build_grid(1.0, 8.0, 0.5)
        trials = getattr(args, "trials", None)
        if trials is None:
            trials = raw.get("trials", 10000)
        seed = getattr(args, "seed", None)
        if seed is None:
            seed = raw.get("seed", 0)
        output = args.out or raw.get("output")
        if output is not None and not isinstance(output, str):
            # open() would take an integer for a file descriptor
            raise ValueError(f"output must be a file path, got {output!r}")
        return cls(configuration, law, grid, trials, seed, output)


# Most thresholds a grid may hold.  Each row of ``approx``, ``exact`` and
# ``error`` builds its own beta mixture (about 1 ms), so a grid this long
# already runs for minutes; a longer one is refused before it is allocated.
MAX_GRID_ROWS = 100_000


def _build_grid(start, stop, step):
    """The thresholds start, start + step, ... up to stop, from three floats;
    at most ``MAX_GRID_ROWS`` of them."""
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"grid start, stop and step must be finite, got {start}:{stop}:{step}")
    if step <= 0.0:
        raise ValueError("grid step must be positive")
    if not start < stop:
        raise ValueError("grid start must be below stop")
    span = (stop - start) / step + 1e-9  # inf where the quotient overflows
    if span >= MAX_GRID_ROWS:
        raise ValueError(
            f"grid {start}:{stop}:{step} has more than {MAX_GRID_ROWS} thresholds"
        )
    count = int(math.floor(span)) + 1
    # a step below the spacing of doubles repeats a threshold
    return excursion._threshold_grid(start + step * np.arange(count))


def _parse_grid(text):
    """The grid of the ``--c-grid`` text START:STOP:STEP."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("--c-grid expects START:STOP:STEP")
    try:
        bounds = [float(part) for part in parts]
    except ValueError:
        raise ValueError(
            f"grid start, stop and step must be numbers, got {':'.join(map(repr, parts))}"
        ) from None
    return _build_grid(*bounds)


def _fmt(value):
    return format(value, ".17g")


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([x if isinstance(x, str) else _fmt(x) for x in row])


def _log(value):
    """Natural log of a CSV cell: -inf at or below 0, nan passes through."""
    if math.isnan(value):
        return value
    return math.log(value) if value > 0.0 else -math.inf


def _report_cells(report):
    """The CSV cells of one ``ExcursionReport``, by column name."""
    return {
        "c": report.c,
        "p_tube": report.p_tube,
        "p_tube_capped": report.p_tube_capped,
        "p_exact": report.p_exact,
        "p_lower": report.p_lower,
        "log_p_tube": _log(report.p_tube),
        "log_p_exact": _log(report.p_exact),
        "log_p_lower": _log(report.p_lower),
        "delta_exact": report.delta_exact,
        "delta_pred": report.delta_prediction,
        "delta_bar": report.delta_bar,
        "log_delta_exact": _log(report.delta_exact),
        "log_delta_pred": _log(report.delta_prediction),
        "branch": report.branch,
        "flags": report.flags,
    }


# ----------------------------------------------------------------------
# benchmark presets: N = 3 points, pairwise correlation 1/4, n = 3
# ----------------------------------------------------------------------

REPRODUCE_CASES = {
    "t": {
        "law": FDist(3.0, 3.0),
        "grid": (1.0, 8.0, 0.5),
    },
    "lognormal": {
        "law": LogNormal(scale=3.0 * math.exp(-0.5)),
        "grid": (2.0, 64.0, 2.0),
    },
    "bessel": {
        "law": Bessel(3.0, 4.0, scale=0.25),
        "grid": (1.0, 12.0, 1.0),
    },
    "gauss": {
        "law": ChiSquare(3.0),
        "grid": (0.5, 6.0, 0.25),
    },
}


def _reproduce_preset(case):
    """The experiment description of a built-in case, as ``load`` reads a file."""
    start, stop, step = REPRODUCE_CASES[case]["grid"]
    return {
        "correlation": (np.full((3, 3), 0.25) + 0.75 * np.eye(3)).tolist(),
        "law": REPRODUCE_CASES[case]["law"].to_dict(),
        "c_grid": {"start": start, "stop": stop, "step": step},
        "trials": 10000,
        "seed": 20250810,
        "output": f"reproduce_{case}.csv",
    }


_REPRODUCE_HEADER = [
    "c",
    "p_sim",
    "se_sim",
    "p_tube",
    "p_tube_capped",
    "p_exact",
    "p_lower",
    "log_p_sim",
    "log_p_tube",
    "log_p_exact",
    "log_p_lower",
    "delta_exact",
    "delta_sim",
    "se_delta_sim",
    "delta_pred",
    "delta_bar",
    "log_delta_exact",
    "log_delta_pred",
    "branch",
    "flags",
]


# ----------------------------------------------------------------------
# generic subcommands
# ----------------------------------------------------------------------

def _run_approx(exp):
    tubes = [excursion.p_tube(exp.configuration, exp.law, c) for c in exp.c_grid]
    rows = [[c, tube, min(1.0, tube)] for c, tube in zip(exp.c_grid, tubes)]
    return ["c", "p_tube", "p_tube_capped"], rows


def _run_exact(exp):
    rows = [
        [c, excursion.p_exact(exp.configuration, exp.law, c)] for c in exp.c_grid
    ]
    return ["c", "p_exact"], rows


def _config_array(name, value):
    """A rectangular JSON array of numbers as a float array; every entry is
    read by ``_as_real``."""
    def entries(item):
        if isinstance(item, list):
            return [entries(entry) for entry in item]
        return _as_real(f"{name} entry", item)

    message = f"{name!r} must be a rectangular array of numbers"
    if not isinstance(value, list):
        raise ValueError(message)
    nested = entries(value)
    try:
        return np.array(nested, dtype=float)
    except ValueError:  # ragged
        raise ValueError(message) from None


def _run_simulate(exp):
    sim = montecarlo.simulate_pmax(exp.configuration, exp.law, exp.c_grid, exp.trials, exp.seed)
    rows = [
        [c, p, se, sim.trials, sim.seed]
        for c, p, se in zip(sim.c_grid, sim.estimates, sim.standard_errors)
    ]
    return ["c", "p_hat", "se", "trials", "seed"], rows


_ERROR_HEADER = ["c", "p_tube", "p_tube_capped", "p_exact", "p_lower",
                 "delta_exact", "delta_pred", "branch", "flags"]


def _run_error(exp):
    rows = []
    for c in exp.c_grid:
        cells = _report_cells(excursion.build_report(exp.configuration, exp.law, c))
        rows.append([cells[name] for name in _ERROR_HEADER])
    return _ERROR_HEADER, rows


def _run_reproduce(exp):
    rows = []
    for c, p_hat, se, _, _ in _run_simulate(exp)[1]:
        cells = _report_cells(excursion.build_report(exp.configuration, exp.law, c))
        tube = cells["p_tube"]
        cells.update(
            p_sim=p_hat,
            se_sim=se,
            log_p_sim=_log(p_hat),
            delta_sim=(tube - p_hat) / tube,
            se_delta_sim=se / tube,
        )
        rows.append([cells[name] for name in _REPRODUCE_HEADER])
    return _REPRODUCE_HEADER, rows


# grid subcommands: each returns (header, rows) for ``run`` to write
_GRID_COMMANDS = {
    "approx": _run_approx,
    "exact": _run_exact,
    "simulate": _run_simulate,
    "error": _run_error,
    "reproduce": _run_reproduce,
}


def _run_threshold(exp, args):
    c_gamma = excursion.solve_threshold(
        exp.configuration, exp.law, args.target, method=args.method
    )
    print(f"c_gamma = {_fmt(c_gamma)}")
    if exp.output:
        _write_csv(
            exp.output,
            ["target", "method", "c_gamma"],
            [[args.target, args.method, c_gamma]],
        )
        print(f"wrote {exp.output}")
    return 0


@functools.cache
def _build_parser():
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="spheretail",
        description=(
            "Excursion probabilities of spherically contoured random fields "
            "on finite subsets of the sphere"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, text in [
        ("approx", "Bonferroni approximation grid"),
        ("exact", "exact excursion probability grid"),
        ("simulate", "Monte Carlo estimate grid"),
        ("error", "relative error with predictions and bounds"),
        ("threshold", "solve for the threshold at a target level"),
        ("reproduce", "run a built-in benchmark case"),
    ]:
        p = commands[name] = sub.add_parser(name, help=text)
        if name == "reproduce":
            p.add_argument("--case", choices=sorted(REPRODUCE_CASES), required=True)
        else:
            p.add_argument("--config", required=True, help="JSON experiment description")
        p.add_argument("--out", help="output CSV path")
        if name != "threshold":
            p.add_argument("--c-grid", help="threshold grid as START:STOP:STEP")
        if name in ("simulate", "reproduce"):
            p.add_argument("--trials", type=int, help="Monte Carlo trials")
            p.add_argument("--seed", type=int, help="simulation seed in [0, 2^64)")
    thr = commands["threshold"]
    thr.add_argument("--target", type=float, required=True, help="target probability")
    thr.add_argument("--method", choices=["tube", "exact"], default="tube")
    return parser


def run(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        exp = ExperimentConfig.load(args)
        if args.command == "threshold":
            return _run_threshold(exp, args)
        header, rows = _GRID_COMMANDS[args.command](exp)
        out = exp.output or f"{args.command}.csv"
        _write_csv(out, header, rows)
        keys = f", trials={exp.trials}, seed={exp.seed}" if args.command == "reproduce" else ""
        print(f"wrote {out} ({len(rows)} rows{keys})")
        return 0
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
