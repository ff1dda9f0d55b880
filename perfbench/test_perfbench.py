"""Tests of the benchmark harness itself (not collected by the tier-1 suite).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import io
import json
import os
import re
import statistics
import sys
import threading
import time
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNTS, LAYER, NAME, PARENT, THREAD  # noqa: E402


def _span(name, layer, cat, start, end, parent):
    return [name, layer, cat, start, end, parent, 1, None]


def test_self_times_on_nested_span_tree():
    spans = [
        _span("verify", "identities", "verify", 0.0, 10.0, None),
        _span("genfun_by_enumeration", "lattice", "genfun", 1.0, 4.0, 0),
        # a sibling from a pool thread, overlapping the first child
        _span("genfun_by_enumeration", "lattice", "genfun", 3.0, 6.0, 0),
        _span("__init__", "series", "construct", 2.0, 3.0, 1),
        _span("__mul__", "series", "mul", 7.0, 9.0, 0),
        _span("__mul__", "series", "mul", 7.5, 8.0, 4),
    ]
    # the root's children cover [1, 6] and [7, 9] of its [0, 10]
    assert tracer.self_times(spans) == [3.0, 2.0, 3.0, 1.0, 1.5, 0.5]
    m = tracer.layer_metrics(spans, -1.0, 12.0)
    assert m["identities.self_s"] == 3.0
    assert m["lattice.self_s"] == 5.0
    assert m["series.self_s"] == 3.0
    assert m["series.mul.self_s"] == 2.0
    assert m["series.mul.calls"] == 1  # the nested multiplication is part of the outer one
    assert m["lattice.genfun.calls"] == 2
    assert m["trace.unattributed_s"] == 3.0
    assert m["recur.self_s"] == 0.0


def _golden_report(goldens, label):
    golden = goldens["report_only"][label]
    return {
        "case": label,
        "status": "report",
        "window": {"q_truncation": golden["q_truncation"]},
        "comparisons": [
            {"label": lab, "equal": eq, "first_difference": diff}
            for lab, eq, diff in golden["comparisons"]
        ],
    }


def test_tampered_reports_count_as_failures():
    goldens = workloads.load_goldens()
    label = "mixed-weighted-pair"
    op = workloads.Op(label, lambda: None, lambda r: workloads.check_report(r, goldens, label))
    report = _golden_report(goldens, label)
    assert workloads.safe_check(op, report) == []

    wrong = json.loads(json.dumps(report))
    differing = next(c for c in wrong["comparisons"] if not c["equal"])
    differing["first_difference"]["q_exponent"] += 1
    assert workloads.safe_check(op, wrong)

    flipped = json.loads(json.dumps(report))
    flipped["comparisons"][1]["equal"] = True
    assert workloads.safe_check(op, flipped)

    passing = {"case": "euler-sum", "status": "pass", "comparisons": []}
    euler = workloads.Op("euler", lambda: None,
                         lambda r: workloads.check_report(r, goldens, "euler-sum"))
    assert workloads.safe_check(euler, passing) == []
    assert workloads.safe_check(euler, dict(passing, status="mismatch"))

    # malformed results are failures too, never exceptions
    assert workloads.safe_check(op, {"case": label})
    assert workloads.safe_check(op, None)
    cli = workloads.Op("cli", lambda: None,
                       lambda r: workloads.check_cli(r, goldens, ("euler-sum",)))
    assert workloads.safe_check(cli, (1, "not json"))


def test_run_pass_counts_failures_and_raises():
    def boom():
        raise RuntimeError("broken operation")

    ops = [
        workloads.Op("ok", lambda: 1, lambda r: []),
        workloads.Op("wrong", lambda: 2, lambda r: ["wrong result"]),
        workloads.Op("raises", boom, lambda r: []),
    ]
    result = worker.run_pass(ops)
    assert (result["attempted"], result["failed"]) == (3, 2)


def test_reference_scaling_stays_outside_operation_times():
    calls = []

    def reference():
        time.sleep(0.02)
        calls.append(None)
        return speed.NOMINAL_S * (2 if len(calls) > 2 else 1)

    ops = [workloads.Op("a", lambda: 1, lambda r: []), workloads.Op("b", lambda: 2, lambda r: [])]
    result = worker.run_pass(ops, reference)
    assert len(result["refs"]) == 3
    assert result["wall_s"] < 0.02  # the references' sleeps are not operation time
    # references at 1x, 1x and 2x nominal: the pass ran at 3/4 of nominal speed
    assert abs(speed.scaled(4.0, statistics.mean(result["refs"])) - 3.0) < 1e-12
    assert speed.sample() > 0


def test_metric_names_and_benchmark_json():
    pattern = re.compile(r"[A-Za-z0-9_.-]+\Z")
    names = list(run.END_TO_END) + list(run.PER_LAYER)
    assert all(pattern.match(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    derived = set(tracer.layer_metrics([], 0.0, 1.0))
    probes_and_run = {n for n in run.PER_LAYER if n.startswith("series.probe.")}
    probes_and_run |= {"trace.overhead_ratio", "cli.output_bytes"}
    assert set(run.PER_LAYER) - probes_and_run <= derived


def _small_ops():
    from cylq import cli, products, recur  # noqa: F401  (loaded before the tracer installs)

    goldens = workloads.load_goldens()
    ops = [
        workloads._verify_op("euler-sum", (20,), goldens),
        workloads._verify_op("mod5-chain-1", (12,), goldens),
        workloads.Op(
            "check width-4",
            lambda: recur.check_closed_form(
                recur.closed_form_width4((1, -1)), recur.width4_recurrence((1, -1)), 6
            ),
            workloads.check_closed_form_report,
        ),
        workloads.Op("census", lambda: products.balance_census(6),
                     lambda r: [] if all(b == t for b, t in r.values()) else ["unbalanced"]),
        workloads.Op("cli", _cli_two_cases, lambda r: [] if r[0] == 0 else ["exit %d" % r[0]]),
    ]
    return ops


def _cli_two_cases():
    from cylq import cli

    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["verify", "--case", "euler-sum", "--case", "rogers-ramanujan",
                         "--format", "json", "--jobs", "2"])
    return code, out.getvalue()


def test_counts_repeat_across_two_traced_passes():
    ops = _small_ops()
    counts = []
    for _ in range(2):
        t = tracer.Tracer()
        t.install()
        try:
            result = worker.run_pass(ops)
        finally:
            t.uninstall()
        assert result["failed"] == 0
        m = tracer.layer_metrics(t.spans, result["start"], result["end"])
        counts.append({k: v for k, v in m.items()
                       if k.endswith(".calls") or k in tracer.COUNTERS})
        assert {s[LAYER] for s in t.spans} >= {"series", "lattice", "products", "recur",
                                                "identities", "cli"}
        # spans in the CLI's pool threads hang under the submitting cli span
        pooled = [s for s in t.spans if s[THREAD] != threading.get_ident()]
        assert pooled and all(s[PARENT] is not None for s in pooled)
        assert all(t.spans[s[PARENT]][NAME] == "main" for s in pooled if s[NAME] == "verify")
    assert counts[0] == counts[1]
    assert counts[0]["identities.verify.calls"] == 4
    assert counts[0]["recur.degrees_checked"] > 0
    assert counts[0]["products.profiles"] >= 126  # balance_census(6) alone classifies 126
    assert any(s[COUNTS] for s in t.spans)
