"""Span tracing of the package from outside it.

A ``Tracer`` replaces public functions and methods, by name, in every
namespace that calls them (module attributes and class attributes) with
wrappers that record a span ``(id, parent_id, name, start, end)`` and bump
counters.  Spans stay in memory; the runner writes them out when the run ends.
Nothing inside ``src/`` is modified.
"""

import functools
import time

import numpy as np

import metrics


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []
        self._next_id = 0
        self._p_tube_keys = set()
        self._keep_alive = []  # configs keyed by id() must not be recycled

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(name + ".calls")
            if hook is not None:
                hook(tracer, args, kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, name, start, end))

        return wrapper

    def install(self, mods):
        """Wrap the layer entry points of one freshly imported package."""
        rl, sf, geo, exc, mc, cli = (mods[k] for k in (
            "radial_laws", "special_functions", "geometry", "excursion", "montecarlo", "cli"))
        targets = [
            ("radial_laws.tail", [(rl.RadialLaw, "tail")], _tail_hook),
            ("radial_laws.sample", [(rl.RadialLaw, "sample")], None),
            ("special_functions.integrate", [(sf, "integrate"), (exc, "integrate")], None),
            ("special_functions.find_root", [(sf, "find_root"), (exc, "find_root")], None),
            ("geometry.cos_sq_local_angle", [(geo.PointConfiguration, "cos_sq_local_angle")],
             _directions_hook),
            ("geometry.nearest_neighbor_direction",
             [(geo.PointConfiguration, "nearest_neighbor_direction")], None),
            ("excursion.p_tube", [(exc, "p_tube"), (mc, "p_tube")], _p_tube_hook),
            ("excursion.p_exact", [(exc, "p_exact")], None),
            ("excursion.delta_exact", [(exc, "delta_exact")], None),
            ("excursion.build_report", [(exc, "build_report")], None),
            ("excursion.delta_rv_limit", [(exc, "delta_rv_limit")], None),
            ("excursion.solve_threshold", [(exc, "solve_threshold")], None),
            ("montecarlo.simulate_pmax", [(mc, "simulate_pmax")], _trials_hook),
            ("cli.run", [(cli, "run")], None),
        ]
        for name, places, hook in targets:
            owner, attr = places[0]
            wrapper = self.wrap(name, getattr(owner, attr), hook)
            for owner, attr in places:
                setattr(owner, attr, wrapper)

    def layer_metrics(self):
        """Per-layer numbers of the spans and counters recorded so far."""
        selfs = metrics.self_times(self.spans)
        by_id = {s[0]: s for s in self.spans}
        self_s, durations = {}, {}
        for sid, _parent, name, start, end in self.spans:
            self_s[name] = self_s.get(name, 0.0) + selfs[sid]
            durations.setdefault(name, []).append(end - start)
        c = self.counters
        solves = c.get("excursion.solve_threshold.calls", 0)
        evals = sum(1 for s in self.spans
                    if s[2] in ("excursion.p_tube", "excursion.p_exact")
                    and _solver_parent(s, by_id) == "excursion.solve_threshold")
        tube_calls = c.get("excursion.p_tube.calls", 0)
        reports = durations.get("excursion.build_report", [])
        return {
            "radial_laws.tail.calls": c.get("radial_laws.tail.calls", 0),
            "radial_laws.tail.points": c.get("radial_laws.tail.points", 0),
            "radial_laws.tail.scalar_calls": c.get("radial_laws.tail.scalar_calls", 0),
            "radial_laws.tail.self_s": self_s.get("radial_laws.tail", 0.0),
            "radial_laws.sample.self_s": self_s.get("radial_laws.sample", 0.0),
            "special_functions.integrate.calls": c.get("special_functions.integrate.calls", 0),
            "special_functions.integrate.self_s": self_s.get("special_functions.integrate", 0.0),
            "special_functions.find_root.calls": c.get("special_functions.find_root.calls", 0),
            "excursion.solve_threshold.evals_per_solve": evals / solves if solves else 0.0,
            "geometry.cos_sq_local_angle.calls": c.get("geometry.cos_sq_local_angle.calls", 0),
            "geometry.cos_sq_local_angle.directions": c.get("geometry.cos_sq_local_angle.directions", 0),
            "geometry.cos_sq_local_angle.self_s": self_s.get("geometry.cos_sq_local_angle", 0.0),
            "geometry.nearest_neighbor_direction.calls":
                c.get("geometry.nearest_neighbor_direction.calls", 0),
            "excursion.p_tube.calls": tube_calls,
            "excursion.p_tube.repeat_frac":
                c.get("excursion.p_tube.repeats", 0) / tube_calls if tube_calls else 0.0,
            "excursion.p_exact.calls": c.get("excursion.p_exact.calls", 0),
            "excursion.p_exact.self_s": self_s.get("excursion.p_exact", 0.0),
            "excursion.build_report.ms_p50": 1e3 * metrics.percentile(reports, 50) if reports else 0.0,
            "excursion.build_report.ms_p90": 1e3 * metrics.percentile(reports, 90) if reports else 0.0,
            "excursion.delta_rv_limit.self_s": self_s.get("excursion.delta_rv_limit", 0.0),
            "montecarlo.simulate_pmax.calls": c.get("montecarlo.simulate_pmax.calls", 0),
            "montecarlo.simulate_pmax.trials": c.get("montecarlo.simulate_pmax.trials", 0),
            "montecarlo.simulate_pmax.self_s": self_s.get("montecarlo.simulate_pmax", 0.0),
            "cli.run.self_s": self_s.get("cli.run", 0.0),
        }


def _solver_parent(span, by_id):
    """Name of the nearest ancestor that is not the bisection helper."""
    parent = span[1]
    while parent is not None and by_id[parent][2] == "special_functions.find_root":
        parent = by_id[parent][1]
    return None if parent is None else by_id[parent][2]


def _tail_hook(tracer, args, kwargs):
    x = args[1] if len(args) > 1 else kwargs["x"]
    tracer.count("radial_laws.tail.points", int(np.size(x)))
    if np.ndim(x) == 0:
        tracer.count("radial_laws.tail.scalar_calls")


def _directions_hook(tracer, args, kwargs):
    directions = args[2] if len(args) > 2 else kwargs["directions"]
    tracer.count("geometry.cos_sq_local_angle.directions", int(np.atleast_2d(directions).shape[0]))


def _p_tube_hook(tracer, args, kwargs):
    config, law, c = args[:3]
    key = (id(config), law, float(c))
    if key in tracer._p_tube_keys:
        tracer.count("excursion.p_tube.repeats")
    else:
        tracer._p_tube_keys.add(key)
        tracer._keep_alive.append(config)


def _trials_hook(tracer, args, kwargs):
    trials = args[3] if len(args) > 3 else kwargs["trials"]
    tracer.count("montecarlo.simulate_pmax.trials", int(trials))
