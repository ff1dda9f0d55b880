"""The four benchmark workloads: fixed operation lists and their exactness gate.

An operation is one call a researcher's script (or ``cylq verify``) makes,
paired with a check of its result.  Checks read only report fields whose
meaning survives the planned ``cylq-report/2`` schema (status, per-comparison
``equal`` and ``first_difference``, CheckReport flags, census counts, fitted
weights) and never look at formatting.  A check returns a list of problems;
an empty list means the result is exact.

Every call goes through a module attribute at call time (``identities.verify``
rather than a name bound at import), so the tracer's wrappers see it.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from typing import Callable, Optional

WORKLOADS = ("enumerate-deep", "series-recur", "census-fit", "registry-cli")

#: Cases whose comparisons genuinely differ; their reports are pinned to
#: goldens recorded at the commit that introduced this benchmark.
REPORT_ONLY = ("mixed-weighted-pair", "mod5-chain-1", "mod5-chain-2")

#: ``cylq verify`` arguments of the registry-cli workload (2 jobs = nproc).
CLI_ARGS = ("verify", "--format", "json", "--jobs", "2")

#: Seconds ROADMAP.md's baseline gives for the rows a pass can reproduce.
ROADMAP_BASELINE = {
    "criterion 08": 12.9,
    "criterion 11": 10.3,
    "census": 4.4,
    "registry": 3.5,
}

GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")


@dataclass
class Op:
    """One closed-loop operation: ``run()`` then ``check(result)``."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    row: Optional[str] = None  # ROADMAP baseline row this operation belongs to
    counts: Callable[[object], dict] = field(default=lambda result: {})


def load_goldens() -> dict:
    with open(GOLDENS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def safe_check(op: Op, result) -> list:
    """Run ``op.check``; a malformed result is a failure, never an exception."""
    try:
        return list(op.check(result))
    except Exception as err:  # the gate must keep counting, whatever it is fed
        return ["%s: check raised %s: %s" % (op.name, type(err).__name__, err)]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def comparison_digest(report: dict) -> list:
    """Per-comparison ``[label, equal, first_difference]``, as goldens store them."""
    return [[c["label"], c["equal"], c["first_difference"]] for c in report["comparisons"]]


def check_report(report, goldens: dict, label: str) -> list:
    """An equal-expected case must pass; a report-only case must match its golden."""
    if not isinstance(report, dict) or report.get("case") != label:
        return ["%s: no report for this case" % label]
    if label not in REPORT_ONLY:
        if report.get("status") != "pass":
            return ["%s: status %r, expected 'pass'" % (label, report.get("status"))]
        return []
    golden = goldens["report_only"][label]
    if report["window"]["q_truncation"] != golden["q_truncation"]:
        return ["%s: window q<%s has no golden" % (label, report["window"]["q_truncation"])]
    if comparison_digest(report) != golden["comparisons"]:
        return ["%s: comparisons differ from the golden" % label]
    return []


def check_closed_form_report(rep) -> list:
    if rep.holds and rep.initial_ok and not rep.vacuous:
        return []
    return ["holds=%s initial_ok=%s vacuous=%s" % (rep.holds, rep.initial_ok, rep.vacuous)]


def check_census(census) -> list:
    balanced = sum(b for b, _ in census.values())
    total = sum(t for _, t in census.values())
    if balanced == total == 8190:
        return []
    return ["census %d/%d, expected 8190/8190" % (balanced, total)]


def check_fit(report, expected: tuple) -> list:
    weights = [tuple(s["weights"]) for s in report["solutions"]]
    problems = []
    if weights != [expected]:
        problems.append("fitted %s, expected [%s]" % (weights, expected))
    if not all(s["forward_check"] is True for s in report["solutions"]):
        problems.append("a solution failed its forward check")
    return problems


def check_groups(groups, goldens: dict) -> list:
    if json.loads(json.dumps(groups)) != goldens["discover_groups"]:
        return ["discover_equivalences groups differ from the golden"]
    return []


def check_cli(result, goldens: dict, labels: tuple) -> list:
    """``(exit code, stdout)`` of ``cylq verify --format json`` over all cases."""
    code, text = result
    if code not in (0, 1):
        return ["cylq verify exited %r" % code]
    payload = json.loads(text)
    if payload.get("schema") != "cylq-cli/1" or payload.get("command") != "verify":
        return ["not a cylq-cli/1 verify payload"]
    reports = {r.get("case"): r for r in payload["reports"]}
    if sorted(reports) != sorted(labels):
        return ["reported cases %s, expected %s" % (sorted(reports), sorted(labels))]
    problems = []
    for label in labels:
        problems += check_report(reports[label], goldens, label)
    total = sum(len(r["comparisons"]) for r in payload["reports"])
    equal = sum(1 for r in payload["reports"] for c in r["comparisons"] if c["equal"])
    if (payload["comparisons_total"], payload["comparisons_equal"]) != (total, equal):
        problems.append("comparison totals disagree with the reports")
    if code != (0 if equal == total else 1):
        problems.append("exit code %d disagrees with %d/%d equal" % (code, equal, total))
    return problems


# ---------------------------------------------------------------------------
# operation lists
# ---------------------------------------------------------------------------


def _verify_op(label: str, window_args: tuple, goldens: dict, row=None) -> Op:
    from cylq import identities
    from cylq.series import Window

    window = Window(*window_args)
    identities.get_case(label)  # resolve now: an unknown label fails set-up
    return Op(
        "verify %s@%s" % (label, ",".join(map(str, window_args))),
        lambda: identities.verify(label, window),
        lambda report: check_report(report, goldens, label),
        row,
    )


def _closed_form_op(width: int, profile: tuple, n_max: int) -> Op:
    from cylq import recur

    def run():
        form = getattr(recur, "closed_form_width%d" % width)
        relation = getattr(recur, "width%d_recurrence" % width)
        return recur.check_closed_form(form(profile), relation(profile), n_max)

    return Op(
        "check_closed_form width-%d %s n<=%d" % (width, profile, n_max),
        run,
        check_closed_form_report,
        "criterion 11",
    )


def _enumerate_deep(goldens: dict) -> list:
    # The acceptance-gate windows of criteria 01, 02, 03, 08, 12 and 15.
    return [
        _verify_op("schmidt-refined", (21, 20), goldens, "criterion 08"),
        _verify_op("schmidt-marginals", (16,), goldens, "criterion 08"),
        _verify_op("cylinder-products", (17,), goldens),
        _verify_op("open-chain-products", (15,), goldens),
        _verify_op("open-chain-weighted-example", (13,), goldens),
        _verify_op("solver-vs-enumeration", (13, 12), goldens),
        _verify_op("distinct-pair-chains", (16, 16), goldens),
        _verify_op("mixed-weighted-pair", (12,), goldens),
        _verify_op("mod5-chain-1", (12,), goldens),
        _verify_op("mod5-chain-2", (12,), goldens),
    ]


def _series_recur(goldens: dict) -> list:
    # Criterion 11 plus the sum-side cases of criteria 05, 06, 07 and 10,
    # with the two single-sum classics at q^200.
    ops = [_closed_form_op(4, d, 40) for d in ((1, 1), (1, -1), (-1, 1))]
    ops += [
        _closed_form_op(6, d, 30)
        for d in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1))
    ]
    ops += [
        _verify_op("goellnitz-sums", (81,), goldens),
        _verify_op("mod12-sums", (61,), goldens),
        _verify_op("mod4-alternating-sum", (41, 10), goldens),
        _verify_op("signed-distinct-mod2", (41,), goldens),
        _verify_op("rogers-ramanujan", (200,), goldens),
        _verify_op("euler-sum", (200,), goldens),
    ]
    return ops


def _census_fit(goldens: dict) -> list:
    from cylq import fitkit, products
    from cylq.series import Window

    closed = fitkit.FitProblem.make("cylindric", (-1, -1, 1), ((1, 4, 5), 5))
    open_ = fitkit.FitProblem.make("skew-shifted", (1, -1), (((1, 1, 1), 1), ((1,), 2)))
    window = Window(12)
    return [
        Op("balance_census(12)", lambda: products.balance_census(12), check_census, "census"),
        Op("fit_report closed (1,4,5)@5", lambda: fitkit.fit_report(closed),
           lambda r: check_fit(r, (1, 3, 1))),
        Op("fit_report open (1,1,1)@1+(1)@2", lambda: fitkit.fit_report(open_),
           lambda r: check_fit(r, (0, 1, 0))),
        Op(
            "discover_equivalences q<12 width<=2",
            lambda: fitkit.discover_equivalences(
                window=window, max_width=2, weight_values=(0, 1, 2)
            ),
            lambda groups: check_groups(groups, goldens),
        ),
    ]


def _run_cli_subprocess(root: str) -> tuple:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "cylq.cli", *CLI_ARGS],
        cwd=root, env=env, capture_output=True, text=True, timeout=150,
    )
    return proc.returncode, proc.stdout


def _run_cli_in_process() -> tuple:
    from cylq import cli

    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(list(CLI_ARGS))
    return code, out.getvalue()


def _registry_cli(goldens: dict, root: str, in_process: bool) -> list:
    from cylq import cli, identities  # noqa: F401  (cli: what the command imports)

    labels = identities.registry()
    run = _run_cli_in_process if in_process else (lambda: _run_cli_subprocess(root))
    return [
        Op(
            "cylq %s" % " ".join(CLI_ARGS),
            run,
            lambda result: check_cli(result, goldens, labels),
            "registry",
            lambda result: {"cli.output_bytes": len(result[1].encode("utf-8"))},
        )
    ]


def operations(workload: str, goldens: dict, root: str, in_process: bool = False) -> list:
    """Import cylq and resolve the workload's fixed operation list.

    ``in_process`` runs registry-cli as ``cylq.cli.main([...])`` in this
    interpreter (the traced run) instead of a fresh ``cylq`` process.
    """
    import cylq  # noqa: F401  (set-up time includes the package import)

    if workload == "enumerate-deep":
        return _enumerate_deep(goldens)
    if workload == "series-recur":
        return _series_recur(goldens)
    if workload == "census-fit":
        return _census_fit(goldens)
    if workload == "registry-cli":
        return _registry_cli(goldens, root, in_process)
    raise ValueError("unknown workload %r; known: %s" % (workload, ", ".join(WORKLOADS)))
