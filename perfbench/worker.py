"""One workload in a fresh interpreter; prints one JSON object as its last line.

    python3 perfbench/worker.py setup   --workload W
    python3 perfbench/worker.py measure --workload W --seed N --seconds S
    python3 perfbench/worker.py trace   --workload W --seed N

``run.py`` starts this script once per set-up sample and once per run, so
that set-up time and peak memory belong to one workload alone.  ``cylq``
must be importable (``run.py`` puts the checkout's ``src`` on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACE_DIR = os.path.join(ROOT, "perfbench", "out")

#: A reference sample (about 70 ms) follows each operation once per started
#: half second of it.  The speed changes within seconds, so one sample after
#: a 12 s operation misjudges it; at one per second, the scaled times of
#: ``enumerate-deep`` and ``series-recur`` spread twice as much as the raw
#: ones in quiet phases.  More samples cost run time.
REFERENCE_EVERY_S = 0.5


def _cpu_s() -> float:
    """User + system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(ops: list, reference=None) -> dict:
    """Run the operations back to back (one closed-loop client), then check them.

    With ``reference`` (``speed.sample``), the machine's speed is also timed
    before the first operation and after each one, outside the operations'
    times: once per started ``REFERENCE_EVERY_S`` of the operation, so that
    the references weigh each part of the pass by its duration.
    """
    results, op_s, op_cpu = [], [], []
    refs = [reference()] if reference else []
    wall0 = time.perf_counter()
    for op in ops:
        start, cpu = time.perf_counter(), _cpu_s()
        try:
            results.append((True, op.run()))
        except Exception:  # a raising operation is a failed operation
            results.append((False, traceback.format_exc()))
        op_s.append(time.perf_counter() - start)
        op_cpu.append(_cpu_s() - cpu)
        if reference:
            refs += [reference() for _ in range(max(1, math.ceil(op_s[-1] / REFERENCE_EVERY_S)))]
    wall1 = time.perf_counter()
    failed, counts = 0, {}
    for op, (ok, result) in zip(ops, results):
        problems = workloads.safe_check(op, result) if ok else ["%s raised:\n%s" % (op.name, result)]
        for problem in problems:
            print("FAILED %s" % problem, file=sys.stderr)
        if problems:
            failed += 1
            continue
        for name, value in op.counts(result).items():
            counts[name] = counts.get(name, 0) + value
    rows: dict = {}
    for op, seconds in zip(ops, op_s):
        if op.row:
            rows[op.row] = rows.get(op.row, 0.0) + seconds
    return {
        "start": wall0, "end": wall1, "wall_s": sum(op_s), "cpu_s": sum(op_cpu),
        "refs": refs,
        "attempted": len(ops), "failed": failed, "rows": rows, "counts": counts,
    }


def _shuffled(ops: list, rng: random.Random) -> list:
    order = list(ops)
    rng.shuffle(order)
    return order


def setup(args) -> dict:
    """``import cylq`` and resolving the operation list, after the harness imports.

    The reference is timed afterwards (its ``fractions`` import is already
    done by then), so it does not shorten the import being timed.
    """
    goldens = workloads.load_goldens()
    start = time.perf_counter()
    workloads.operations(args.workload, goldens, ROOT)
    setup_s = time.perf_counter() - start
    import speed

    speed.sample()  # warm-up
    reference = statistics.median(speed.sample() for _ in range(3))
    return {"setup_s": setup_s, "reference_s": reference,
            "scaled_s": speed.scaled(setup_s, reference)}


def measure(args) -> dict:
    """Passes until the next one would overrun ``--seconds`` (at least one).

    Each pass's time is also scaled to nominal machine speed by the mean of
    the references timed between its operations (``speed.py``).
    """
    import speed

    goldens = workloads.load_goldens()
    ops = workloads.operations(args.workload, goldens, ROOT)
    rng = random.Random(args.seed)
    speed.sample()  # warm-up
    passes = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        passes.append(run_pass(_shuffled(ops, rng), speed.sample))
        now = time.perf_counter()
        if now - begin + (now - start) > args.seconds:
            break
    references = [statistics.mean(p["refs"]) for p in passes]
    # registry-cli runs in a child process: its peak is the children's peak.
    who = resource.RUSAGE_CHILDREN if args.workload == "registry-cli" else resource.RUSAGE_SELF
    return {
        "pass_s": [p["wall_s"] for p in passes],
        "pass_cpu_s": [p["cpu_s"] for p in passes],
        "scaled_s": [speed.scaled(p["wall_s"], r) for p, r in zip(passes, references)],
        "scaled_cpu_s": [speed.scaled(p["cpu_s"], r) for p, r in zip(passes, references)],
        "reference_s": references,
        "peak_rss_mib": resource.getrusage(who).ru_maxrss / 1024.0,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "rows": passes[0]["rows"],
    }


def trace(args) -> dict:
    """Probes, one untraced pass, then one traced pass of the same operations."""
    import probes
    import tracer

    goldens = workloads.load_goldens()
    ops = workloads.operations(args.workload, goldens, ROOT, in_process=True)
    rng = random.Random(args.seed)
    metrics, problems = probes.run_probes(args.seed)
    n_probes = len(metrics)
    for problem in problems:
        print("FAILED %s" % problem, file=sys.stderr)
    plain = run_pass(_shuffled(ops, rng))
    spans = tracer.Tracer()
    spans.install()
    try:
        traced = run_pass(_shuffled(ops, rng))
    finally:
        spans.uninstall()
    metrics.update(tracer.layer_metrics(spans.spans, traced["start"], traced["end"]))
    metrics.update(traced["counts"])
    metrics.setdefault("cli.output_bytes", 0)
    metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))
    spans.write(path)
    return {
        "metrics": metrics,
        "attempted": n_probes + plain["attempted"] + traced["attempted"],
        "failed": len(problems) + plain["failed"] + traced["failed"],
        "rows": plain["rows"],
        "untraced_pass_s": plain["wall_s"],
        "traced_pass_s": traced["wall_s"],
        "spans": len(spans.spans),
        "spans_file": os.path.relpath(path, ROOT),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    result = {"setup": setup, "measure": measure, "trace": trace}[args.mode](args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
