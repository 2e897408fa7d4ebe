"""Tests of the benchmark's own arithmetic: ``python3 -m pytest bench``."""

import json
import math
import statistics

import pytest

import metrics
import tracing
import workloads


# ----------------------------------------------------------------------
# percentiles and spread
# ----------------------------------------------------------------------

def test_percentile_interpolates_between_order_statistics():
    xs = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert metrics.percentile(xs, 0) == 1.0
    assert metrics.percentile(xs, 100) == 5.0
    assert metrics.percentile(xs, 50) == 3.0
    assert metrics.percentile(xs, 90) == pytest.approx(4.6)
    assert metrics.percentile([1.0, 2.0], 25) == pytest.approx(1.25)


def test_percentile_matches_statistics_inclusive_rule():
    xs = [0.3, 1.7, 0.2, 9.1, 4.4, 2.5, 3.3]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    assert metrics.percentile(xs, 25) == pytest.approx(q1)
    assert metrics.median(xs) == pytest.approx(q2)
    assert metrics.percentile(xs, 75) == pytest.approx(q3)


def test_percentile_of_one_sample_and_errors():
    assert metrics.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        metrics.percentile([], 50)
    with pytest.raises(ValueError):
        metrics.percentile([1.0], 101)


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------

def test_self_time_subtracts_children_once():
    spans = [
        (0, None, "root", 0.0, 10.0),
        (1, 0, "a", 1.0, 4.0),
        (2, 0, "b", 3.0, 6.0),       # overlaps a: the union 1..6 is covered once
        (3, 1, "leaf", 2.0, 3.0),
        (4, None, "other", 20.0, 21.0),
    ]
    selfs = metrics.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(1.0)


def test_self_time_clips_children_to_the_parent():
    spans = [(0, None, "p", 0.0, 2.0), (1, 0, "c", 1.5, 3.0)]
    assert metrics.self_times(spans)[0] == pytest.approx(1.5)


def test_union_length():
    assert metrics.union_length([]) == 0.0
    assert metrics.union_length([(0, 1), (2, 3)]) == 2.0
    assert metrics.union_length([(0, 2), (1, 3), (5, 6)]) == 4.0


def test_tracer_records_parents_counts_and_self_time():
    tracer = tracing.Tracer()

    def inner(x):
        return x + 1

    inner_w = tracer.wrap("inner", inner)

    def outer(x):
        return inner_w(x) * 2

    outer_w = tracer.wrap("outer", outer)
    assert outer_w(1) == 4
    assert tracer.counters == {"outer.calls": 1, "inner.calls": 1}
    (sid_in, parent_in, name_in, *_), (sid_out, parent_out, name_out, *_) = tracer.spans
    assert (name_in, name_out) == ("inner", "outer")
    assert parent_in == sid_out and parent_out is None
    selfs = metrics.self_times(tracer.spans)
    duration = tracer.spans[1][4] - tracer.spans[1][3]
    assert 0.0 <= selfs[sid_out] <= duration


def test_tracer_span_closes_on_exception():
    tracer = tracing.Tracer()

    def boom():
        raise ZeroDivisionError

    with pytest.raises(ZeroDivisionError):
        tracer.wrap("boom", boom)()
    assert len(tracer.spans) == 1 and tracer._stack == []


# ----------------------------------------------------------------------
# failures and accuracy
# ----------------------------------------------------------------------

def test_fail_frac_add_half_rule():
    assert metrics.fail_frac(0, 99) == pytest.approx(0.005)
    assert metrics.fail_frac(7, 99) == pytest.approx(0.075)
    assert metrics.fail_frac(0, 0) == 0.5
    with pytest.raises(ValueError):
        metrics.fail_frac(3, 2)


def test_checks_count_probes_apart_from_the_run_verdict():
    chk = workloads.Checks()
    entry = {"value": 2.0, "oracle": "mpmath", "tol": 1e-6}
    chk.add("ok", chk.against(2.0 * (1 + 1e-9), entry, "p"))
    chk.add("off", chk.against(2.1, entry, "p"))
    chk.add("zero", chk.against(0.0, entry), probe=True)
    chk.add("raised", "ZeroDivisionError", probe=True)
    chk.add("nan", chk.against(math.nan, entry))
    assert chk.count() == 5 and chk.count(probe=False) == 3
    assert chk.failures(probe=False) == [("off", "tolerance"), ("nan", "non_finite")]
    assert chk.failures(probe=True) == [
        ("zero", "zero_where_reference_nonzero"), ("raised", "ZeroDivisionError")]
    assert metrics.fail_frac(len(chk.failures()), chk.count()) == pytest.approx(4.5 / 6)
    assert chk.acc["p"] == [pytest.approx(1e-9), pytest.approx(0.05)]


def test_positive_finite_oracle():
    chk = workloads.Checks()
    entry = {"value": None, "oracle": "positive_finite", "tol": None}
    assert chk.against(7.9e-25, entry) is None
    assert chk.against(0.0, entry) == "zero_where_reference_nonzero"
    assert chk.against(math.inf, entry) == "non_finite"
    assert chk.against(1.0, {"value": None, "oracle": "none", "tol": None}) is None


def test_accuracy_is_floored_and_defined_when_empty():
    assert metrics.accuracy([], 1e-12) == 1e-12
    assert metrics.accuracy([1e-15, 3e-9], 1e-12) == 3e-9
    assert metrics.relerr(0.0, 0.0) == math.inf
    assert metrics.relerr(None, 1.0) == math.inf


def test_mc_z():
    assert metrics.mc_z(0.5, 0.5, 100) == 0.0
    assert metrics.mc_z(0.1, 0.13, 10_000) == pytest.approx(0.03 / math.sqrt(0.13 * 0.87 / 10_000))
    # a model that underflows to 0 against one hit in 1e5 trials is not flagged
    assert metrics.mc_z(0.0, 1e-5, 100_000) == pytest.approx(1.0, rel=1e-4)
    assert metrics.mc_z(math.nan, 0.1, 100) == math.inf


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------

def test_reference_loads_and_covers_the_workloads():
    ref = workloads.load_reference()
    rows = ref["reproduce"]["rows"]
    assert {r["case"] for r in rows} == set(workloads.CASES)
    deep = {(d["case"], d["c"]) for d in ref["reproduce"]["deep"]}
    assert deep == {("gauss", 10.0), ("gauss", 20.0), ("gauss", 40.0),
                    ("bessel", 100.0), ("bessel", 1000.0)}
    gauss20 = next(d for d in ref["reproduce"]["deep"] if d["c"] == 20.0)
    assert gauss20["delta"]["oracle"] == "mpmath"
    assert gauss20["delta"]["value"] == pytest.approx(2.4565e-54, rel=1e-4)
    for row in rows:
        for q in ("ptube", "p", "delta"):
            assert row[q]["oracle"] in ref["oracles"]
    assert len(ref["highdim"]["reference_points"]) == 12
    assert {r["case"] for r in ref["threshold"]["rows"]} == set(workloads.CASES)


def test_reference_rejects_malformed_rows(tmp_path):
    ref = workloads.load_reference()
    ref["reproduce"]["rows"][0]["p"] = {"value": 1.0}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(ref))
    with pytest.raises(ValueError, match="malformed"):
        workloads.load_reference(bad)
    del ref["threshold"]
    bad.write_text(json.dumps(ref))
    with pytest.raises(ValueError, match="threshold"):
        workloads.load_reference(bad)


def test_sub_seed_is_stable_and_distinct():
    assert workloads.sub_seed(1, "mc", "t") == workloads.sub_seed(1, "mc", "t")
    assert workloads.sub_seed(1, "mc", "t") != workloads.sub_seed(2, "mc", "t")
    assert 0 <= workloads.sub_seed(123, 4, "x") < 2**63


# ----------------------------------------------------------------------
# aggregation over passes
# ----------------------------------------------------------------------

def _record(times, rows, cli, trials, failed):
    import run

    res = workloads.PassResult(n_rows=len(rows), times=times, rows=rows, cli=cli, trials=trials)
    chk = workloads.Checks()
    for i in range(10):
        chk.add(("op", i), "tolerance" if i < failed else None)
    return run.PassRecord(res, chk)


def test_end_to_end_uses_per_operation_medians_and_the_scale():
    import run

    ref = {"floor": 1e-12}
    passes = [
        _record({"a": 1.0, "b": 0.10, "m": 2.0}, ["b"], ["a"], {"m": 1000}, 1),
        _record({"a": 3.0, "b": 0.30, "m": 2.0}, ["b"], ["a"], {"m": 1000}, 1),
        _record({"a": 2.0, "b": 0.20, "m": 4.0}, ["b"], ["a"], {"m": 1000}, 1),
    ]
    assert run.operation_times(passes) == {"a": 2.0, "b": 0.2, "m": 2.0}
    values = run.end_to_end(passes, [1.0, 5.0, 2.0], ref, scale=0.5)
    assert values["pass_s"] == pytest.approx(0.5 * 4.2)
    assert values["setup_s"] == pytest.approx(1.0)
    assert values["rows_per_s"] == pytest.approx(1 / 2.1)
    assert values["row_ms_p50"] == pytest.approx(100.0)
    assert values["solve_s_p50"] == pytest.approx(1.0)
    assert values["solves_per_s"] == pytest.approx(1.0)
    assert values["mc_trials_per_s"] == pytest.approx(1000.0)
    assert values["fail_frac"] == pytest.approx(1.5 / 11)
    assert values["acc_threshold_relerr_max"] == 1e-12
