"""cylq benchmark: run one workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload enumerate-deep --seed 1 --seconds 20 --trace 0

Run it from a checkout of the repository; it uses the checkout's ``src``.
``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs the series probes, an untraced pass and a traced pass, and prints the
per-layer metrics.  Each workload runs in fresh interpreters started by this
script (``worker.py``), so set-up time and peak memory belong to that
workload alone.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
provenance and a comparison with the ROADMAP baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, HERE)
from workloads import ROADMAP_BASELINE, WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "pass_s": "s", "pass_cpu_s": "s", "peak_rss_mib": "MiB"}

PER_LAYER = {
    "series.self_s": "s",
    "series.construct.calls": "count",
    "series.construct.self_s": "s",
    "series.add.calls": "count",
    "series.add.self_s": "s",
    "series.mul.calls": "count",
    "series.mul.self_s": "s",
    "series.invert.calls": "count",
    "series.invert.self_s": "s",
    "series.poch.self_s": "s",
    "series.compare.self_s": "s",
    "series.terms_out": "count",
    "series.probe.mul_n800_s": "s",
    "series.probe.mul_n3200_s": "s",
    "series.probe.invert_n800_s": "s",
    "series.probe.invert_n3200_s": "s",
    "series.probe.qpoch_inv_n800_s": "s",
    "series.probe.qpoch_inv_n3200_s": "s",
    "series.probe.bivariate_41x40_s": "s",
    "lattice.self_s": "s",
    "lattice.genfun.calls": "count",
    "lattice.genfun.self_s": "s",
    "lattice.marked.calls": "count",
    "lattice.marked.self_s": "s",
    "lattice.objects": "count",
    "lattice.objects_per_s": "1/s",
    "products.self_s": "s",
    "products.expand.calls": "count",
    "products.expand.self_s": "s",
    "products.census.self_s": "s",
    "products.profiles": "count",
    "products.profiles_per_s": "1/s",
    "recur.self_s": "s",
    "recur.build.self_s": "s",
    "recur.solve.calls": "count",
    "recur.solve.self_s": "s",
    "recur.check.self_s": "s",
    "recur.degrees_checked": "count",
    "identities.self_s": "s",
    "identities.verify.calls": "count",
    "identities.compare.self_s": "s",
    "identities.comparisons": "count",
    "fitkit.self_s": "s",
    "fitkit.fit.self_s": "s",
    "fitkit.discover.self_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s",
}

#: Fresh interpreters timed for ``setup_s`` (after one untimed warm-up that
#: fills the bytecode cache, which users do not pay on every run).
SETUP_SAMPLES = 11
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def run_worker(*argv: str) -> dict:
    """Run ``worker.py`` in its own session; return its last output line."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any cylq child
        proc.wait()
        raise BenchError("worker %s timed out after %d s" % (argv[0], WORKER_TIMEOUT_S))
    if proc.returncode != 0 or not out.strip():
        raise BenchError("worker %s exited %d" % (argv[0], proc.returncode))
    return json.loads(out.strip().splitlines()[-1])


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail_percentile(samples: list):
    """The highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(samples)[n - 11]}


def baseline_line(rows: dict) -> str:
    parts = [
        "%s %.2f s (ROADMAP %.1f s, %.2fx)" % (row, rows[row], ref, rows[row] / ref)
        for row, ref in ROADMAP_BASELINE.items() if row in rows
    ]
    return "baseline, first pass vs ROADMAP: " + ("; ".join(parts) or "no matching row")


def measure_end_to_end(args) -> tuple:
    common = ("--workload", args.workload)
    run_worker("setup", *common)
    # half the set-up samples before the passes and half after, so that the
    # median spans the run rather than one moment of the machine's speed
    before = SETUP_SAMPLES // 2
    setups = [run_worker("setup", *common) for _ in range(before)]
    result = run_worker("measure", *common, "--seed", str(args.seed),
                        "--seconds", str(args.seconds))
    setups += [run_worker("setup", *common) for _ in range(SETUP_SAMPLES - before)]
    # times scaled to nominal machine speed (speed.py); raw ones in provenance
    metrics = {
        "setup_s": statistics.median(s["scaled_s"] for s in setups),
        "pass_s": statistics.median(result["scaled_s"]),
        "pass_cpu_s": statistics.median(result["scaled_cpu_s"]),
        "peak_rss_mib": result["peak_rss_mib"],
    }
    provenance = {
        "passes": len(result["scaled_s"]),
        "pass_s_samples": result["scaled_s"],
        "pass_s_tail": tail_percentile(result["scaled_s"]),
        "pass_cpu_s_samples": result["scaled_cpu_s"],
        "raw_pass_s_samples": result["pass_s"],
        "raw_pass_cpu_s_samples": result["pass_cpu_s"],
        "reference_s_samples": result["reference_s"],
        "setup_samples": len(setups),
        "setup_s_samples": [s["scaled_s"] for s in setups],
        "raw_setup_s_samples": [s["setup_s"] for s in setups],
        "setup_reference_s_samples": [s["reference_s"] for s in setups],
    }
    return metrics, result, provenance


def measure_per_layer(args) -> tuple:
    result = run_worker("trace", "--workload", args.workload, "--seed", str(args.seed))
    provenance = {key: result[key] for key in
                  ("untraced_pass_s", "traced_pass_s", "spans", "spans_file")}
    provenance["passes"] = 2
    return result["metrics"], result, provenance


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cylq benchmark (one workload, one seed)")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cylq", "__init__.py")):
        print("error: no cylq sources at %s; run from a repository checkout" % SRC,
              file=sys.stderr)
        return 2
    load = os.getloadavg()
    try:
        if args.trace:
            metrics, result, provenance = measure_per_layer(args)
            table = PER_LAYER
        else:
            metrics, result, provenance = measure_end_to_end(args)
            table = END_TO_END
        missing = sorted(set(table) - set(metrics))
        if missing:
            raise BenchError("worker reported no value for %s" % ", ".join(missing))
    except (BenchError, ValueError, KeyError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    provenance.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "loadavg_start": load,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
    })
    print(json.dumps({"provenance": provenance}))
    print(baseline_line(result["rows"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in table.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
