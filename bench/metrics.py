"""Metric arithmetic shared by the benchmark runner and its tests.

Everything here is pure: percentiles, failure fractions, relative errors
against references, Monte Carlo z-scores, and span self times.
"""

import math

# Percentiles interpolate linearly between order statistics (numpy's default
# rule, statistics.quantiles' "inclusive" method).


def percentile(values, q):
    """q-th percentile (0 <= q <= 100) of a nonempty sample, linear rule."""
    xs = sorted(float(v) for v in values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must lie in [0, 100]")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50.0)


def fail_frac(failed, attempted):
    """Add-half (Jeffreys) estimate (failed + 1/2) / (attempted + 1).

    Never exactly 0, so a workload with no failures still reports a finite
    ratio that any new failure moves by a large factor.
    """
    if attempted < 0 or not 0 <= failed <= attempted:
        raise ValueError("need 0 <= failed <= attempted")
    return (failed + 0.5) / (attempted + 1.0)


def relerr(value, reference):
    """|value / reference - 1|; inf for a non-finite value or a zero reference."""
    if value is None or not math.isfinite(value) or reference == 0.0:
        return math.inf
    return abs(value / reference - 1.0)


def accuracy(errors, floor):
    """Largest relative error, each floored at the comparison's resolution.

    An empty list reports the floor: the workload checks nothing of that kind.
    """
    return max([floor] + [max(e, floor) for e in errors])


def mc_z(p_model, p_hat, trials, se_model=0.0):
    """z-score of a Monte Carlo estimate against a model probability.

    The binomial variance uses the larger of the two probabilities (and at
    least one hit), so a model value that underflows to 0 against observed
    hits is not flagged on a single hit, while a wrong tail mass is.
    """
    if p_model is None or not math.isfinite(p_model):
        return math.inf
    p = min(max(p_model, p_hat, 1.0 / trials), 0.5)
    se = math.sqrt(p * (1.0 - p) / trials + se_model**2)
    return abs(p_hat - p_model) / se


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of each span: its duration minus what its children cover.

    ``spans`` is a sequence of ``(span_id, parent_id, name, start, end)``;
    the result maps span_id to self time.  Child intervals are clipped to the
    parent's interval and overlapping children are counted once.
    """
    children = {}
    for sid, parent, _name, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, _name, start, end in spans:
        kids = [(max(s, start), min(e, end)) for s, e in children.get(sid, ())]
        covered = union_length([(s, e) for s, e in kids if e > s])
        out[sid] = (end - start) - covered
    return out
