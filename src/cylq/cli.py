"""Command-line front end.

Subcommands::

    series     evaluate a named closed-form sum inside a window
    enumerate  run the lattice enumeration (generating function or objects)
    product    build and expand a chain's product side
    system     build the coupled functional-equation system
    solve      solve a system by graded fixed-point iteration
    verify     run registered identity cases and report comparisons
    fit        solve for weights matching a target product
    balance    census of the pair-exponent symmetry over all profiles

Each subcommand returns ``(exit code, payload, lines)``: the payload is
its JSON document, the lines its text form.  ``main`` is the one place
that prints; it writes the payload for ``--format json`` and the lines
otherwise.  A usage error goes to stderr and leaves stdout empty.  The
module itself loads only what the parser needs (``series``, ``lattice``
and ``products``); each subcommand imports the layers it calls when it
runs, so ``balance`` never loads ``recur`` and ``verify`` never loads
``fitkit``.

Exit codes: 0 success; 1 any verification inequality; 2 usage or
infeasibility errors.  Output is deterministic for a fixed invocation,
including under ``verify --jobs``: cases are emitted in sorted label
order regardless of completion order.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import lcm
from typing import Optional

from .lattice import KINDS
from .products import CONVENTIONS, ORIENTATIONS
from .series import TruncatedSeries, Window, series_to_json

EXIT_OK = 0
EXIT_UNEQUAL = 1
EXIT_USAGE = 2


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------


def _parse_profile(text: str) -> tuple:
    cleaned = text.strip().strip("()[]")
    try:
        entries = tuple(int(x) for x in cleaned.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            "profile must be comma-separated +1/-1 entries, e.g. '-1,1'"
        )
    if not entries or any(x not in (1, -1) for x in entries):
        raise argparse.ArgumentTypeError(
            "profile must be comma-separated +1/-1 entries, e.g. '-1,1'"
        )
    return entries


def _parse_weights(text: str) -> tuple:
    cleaned = text.strip().strip("()[]")
    try:
        return tuple(Fraction(x.strip()) for x in cleaned.split(",") if x.strip())
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            "weights must be comma-separated rationals, e.g. '1,2,1' or '1/2,1'"
        )


def _parse_target(text: str) -> tuple:
    """'1,4,5@5' -> ((1, 4, 5), 5)."""
    try:
        exps, modulus = text.split("@")
        return (
            tuple(Fraction(x.strip()) for x in exps.split(",") if x.strip()),
            Fraction(modulus.strip()),
        )
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            "target must look like 'e1,e2,...@modulus', e.g. '1,4,5@5'"
        )


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("must be an integer >= 1") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be an integer >= 1")
    return value


_NORMALIZED_HELP = (
    "auto (default): the normalized system when every weight is an integer "
    ">= 1 and the kind is not distinct; true: require it; false: the "
    "unnormalized system"
)


def _parse_normalized(text: str):
    try:
        return {"auto": "auto", "true": True, "false": False}[text]
    except KeyError:
        raise argparse.ArgumentTypeError("must be auto, true or false") from None


def _window(args, *, default_d: Optional[int] = None) -> Window:
    d = args.D if args.D is not None else default_d
    return Window(args.N, d)


def _series_output(header: str, series: TruncatedSeries) -> tuple:
    """A series' cylq-cli/1 payload and its header and coefficient lines."""
    payload = {
        "schema": "cylq-cli/1",
        "command": header,
        "conventions": dict(CONVENTIONS),
        "series": series_to_json(series),
    }
    lines = []
    bivariate = any(z for z, _, _ in series.items())
    for z_deg, q_exp, c in series.items():
        if bivariate:
            lines.append("z^%d q^%s: %d" % (z_deg, q_exp, c))
        else:
            lines.append("q^%s: %d" % (q_exp, c))
    w = series.window
    head = "%s  [window q<%s z<=%s scale=%s]" % (
        header, w.q_truncation, w.z_truncation, w.q_scale
    )
    return payload, [head] + (lines or ["0"])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

#: Each named sum as a call on the ``identities`` layer, which
#: ``_cmd_series`` imports when it runs.
_SUMS = {
    "euler": lambda ids, args, w: ids.sum_euler(w),
    "rogers-ramanujan-1": lambda ids, args, w: ids.sum_rogers_ramanujan(0, w),
    "rogers-ramanujan-2": lambda ids, args, w: ids.sum_rogers_ramanujan(1, w),
    "double-mod7": lambda ids, args, w: ids.sum_double_mod7(w),
    "alternating-mod4": lambda ids, args, w: ids.sum_alternating_mod4(w),
    "signed-distinct-mod2": lambda ids, args, w: ids.sum_signed_distinct_mod2(w),
    "goellnitz-GG1": lambda ids, args, w: ids.sum_goellnitz("GG1", w),
    "goellnitz-LG1": lambda ids, args, w: ids.sum_goellnitz("LG1", w),
    "goellnitz-GG2": lambda ids, args, w: ids.sum_goellnitz("GG2", w),
    "goellnitz-LG2": lambda ids, args, w: ids.sum_goellnitz("LG2", w),
    "mod12": lambda ids, args, w: ids.sum_mod12(_require_profile(args), w),
    "schmidt-distinct-odd": lambda ids, args, w: ids.sum_schmidt_distinct_odd(w),
    "schmidt-distinct-even": lambda ids, args, w: ids.sum_schmidt_distinct_even(w),
}


def _require_profile(args) -> tuple:
    if args.profile is None:
        raise ValueError("this sum needs --profile (e.g. --profile '1,-1,1')")
    return args.profile


def _cmd_series(args) -> tuple:
    from . import identities

    series = _SUMS[args.sum](identities, args, _window(args))
    return (EXIT_OK, *_series_output("series %s" % args.sum, series))


def _cmd_enumerate(args) -> tuple:
    from .lattice import enumerate_objects, genfun_by_enumeration

    window = _window(args)
    if args.objects:
        # the largest weighted size below q^N on the weights' grid
        grid = lcm(1, *(w.denominator for w in args.weights or ()))
        objs = enumerate_objects(
            args.kind,
            args.profile,
            args.weights,
            max_weighted_size=args.N - Fraction(1, grid),
            max_part=args.D,
        )
        payload = {
            "schema": "cylq-cli/1",
            "command": "enumerate-objects",
            "kind": args.kind,
            "profile": list(args.profile),
            "objects": [[list(diag) for diag in obj.diagonals] for obj in objs],
        }
        lines = ["%d objects" % len(objs)] + [
            " ; ".join(",".join(str(x) for x in d) for d in obj.diagonals)
            for obj in objs
        ]
        return EXIT_OK, payload, lines
    series = genfun_by_enumeration(
        args.kind, args.profile, args.weights, window=window
    )
    if args.collapse_z:
        series = series.collapse_z()
    header = "enumerate %s %s" % (args.kind, args.profile)
    return (EXIT_OK, *_series_output(header, series))


def _cmd_product(args) -> tuple:
    from .products import cp_product_spec, dspp_product_spec, scp_product_spec

    if args.kind == "cylindric":
        orientation = args.orientation or "direct"
        spec = cp_product_spec(args.profile, args.weights, orientation)
    elif args.orientation is not None:
        raise ValueError("--orientation applies only to --kind cylindric")
    elif args.kind == "skew-shifted":
        spec = dspp_product_spec(args.profile, args.weights)
    elif args.weights is not None:
        raise ValueError(
            "symmetric products always use the standard weights of the doubled "
            "cylinder; drop --weights"
        )
    else:  # symmetric: profile is the half profile, weights are implied
        spec = scp_product_spec(args.profile)
    if args.spec_only:
        payload = {
            "schema": "cylq-cli/1",
            "command": "product-spec",
            "conventions": dict(CONVENTIONS),
            "product": spec.to_json(),
        }
        lines = [
            "%s: %s" % (label, " ".join("(q^%s;q^%s)" % (e, m) for e, m in pairs))
            if pairs
            else "%s: 1" % label
            for label, pairs in (("num", spec.num), ("den", spec.den))
        ]
        return EXIT_OK, payload, lines
    payload, lines = _series_output(
        "product %s %s" % (args.kind, args.profile), spec.expand(_window(args))
    )
    payload.update(command="product", product=spec.to_json())
    return EXIT_OK, payload, lines


def _cmd_system(args) -> tuple:
    from .recur import build_system, system_to_json

    system = build_system(args.kind, args.profile, args.weights, args.normalized)
    payload = {
        "schema": "cylq-cli/1",
        "command": "system",
        "system": system_to_json(system),
    }
    return EXIT_OK, payload, [system.pretty()]


def _cmd_solve(args) -> tuple:
    from .recur import build_system, solve_fixed_point

    system = build_system(args.kind, args.profile, args.weights, args.normalized)
    window = _window(args, default_d=args.N)
    try:
        solved = solve_fixed_point(system, window)
    except RuntimeError as err:  # an unsolvable system is a usage error, not an inequality
        raise ValueError(err) from None
    chosen = sorted(solved) if args.select is None else [args.select]
    if args.select is not None and args.select not in solved:
        raise ValueError(
            "profile %s is not part of the solved closure %s"
            % (args.select, sorted(solved))
        )
    outputs = {}
    for p in chosen:
        name = ",".join(str(x) for x in p)
        outputs[name] = _series_output("%s[%s]" % (system.symbol(), name), solved[p])
    payload = {
        "schema": "cylq-cli/1",
        "command": "solve",
        "symbol": system.symbol(),
        "solutions": {name: out["series"] for name, (out, _) in outputs.items()},
    }
    return EXIT_OK, payload, [line for _, lines in outputs.values() for line in lines]


def _override_window(case, n: Optional[int], d: Optional[int], named: bool) -> Window:
    # a missing z-bound is the case's own.  Over the whole registry --D bounds
    # the cases that have a z-window; a case named by --case without one
    # refuses it.  Checked here, so a usage error comes before any case runs.
    if not named and case.window.z_truncation is None:
        d = None
    window = None if n is None and d is None else Window(
        n if n is not None else case.window.q_truncation, d)
    return case._window_for(window)


def _cmd_verify(args) -> tuple:
    from .identities import get_case, registry, report_text, verify

    if args.list:
        labels = list(registry())
        return EXIT_OK, {"schema": "cylq-cli/1", "command": "verify-list",
                         "labels": labels}, labels
    # imported after the layers, it reuses memory their compiling freed
    from concurrent.futures import ThreadPoolExecutor

    labels = sorted(set(args.case)) if args.case else list(registry())
    cases = [get_case(label) for label in labels]  # KeyError -> usage error
    windows = [_override_window(c, args.N, args.D, bool(args.case)) for c in cases]
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        reports = list(pool.map(verify, cases, windows))

    total = sum(len(r["comparisons"]) for r in reports)
    equal = sum(1 for r in reports for c in r["comparisons"] if c["equal"])
    payload = {
        "schema": "cylq-cli/1",
        "command": "verify",
        "reports": reports,
        "comparisons_equal": equal,
        "comparisons_total": total,
    }
    lines = [text for report in reports for text in (report_text(report), "")]
    bounds = {r["window"]["q_truncation"] for r in reports}
    tail = " through q^%d" % (bounds.pop() - 1) if len(bounds) == 1 else ""
    lines.append(
        "%d/%d comparisons equal%s across %d case%s"
        % (equal, total, tail, len(reports), "" if len(reports) == 1 else "s")
    )
    return (EXIT_OK if equal == total else EXIT_UNEQUAL), payload, lines


def _cmd_fit(args) -> tuple:
    from .fitkit import FitProblem, fit_report

    if args.problem is not None:
        if args.problem == "-":
            raw = sys.stdin.read()
        else:
            with open(args.problem, "r", encoding="utf-8") as f:
                raw = f.read()
        problem = FitProblem.from_json(json.loads(raw))
    else:
        if args.kind is None or args.profile is None or not args.target:
            raise ValueError(
                "fit needs either --problem JSON or --kind/--profile/--target"
            )
        problem = FitProblem.make(
            args.kind,
            args.profile,
            tuple(args.target),
            nonnegative=not args.allow_negative,
            integral=not args.rational,
        )
    report = fit_report(problem)
    if not report["feasible_shape"]:
        lines = ["infeasible by shape: %s" % report["reason"]]
    elif not report["solutions"]:
        lines = ["no weight vectors found within the constraints"]
    else:
        lines = [
            "weights %s (forward check: %s)"
            % (
                ",".join(str(w) for w in sol["weights"]),
                "ok" if sol["forward_check"] else "FAILED",
            )
            for sol in report["solutions"]
        ]
    return (EXIT_OK if report["feasible_shape"] else EXIT_USAGE), report, lines


def _cmd_balance(args) -> tuple:
    from .products import balance_census

    census = balance_census(args.max_width)
    balanced = sum(b for b, _ in census.values())
    total = sum(t for _, t in census.values())
    payload = {
        "schema": "cylq-cli/1",
        "command": "balance",
        "census": {str(k): [b, t] for k, (b, t) in sorted(census.items())},
        "balanced": balanced,
        "total": total,
    }
    lines = [
        "width %d: %d/%d balanced" % (width, b, t)
        for width, (b, t) in sorted(census.items())
    ]
    if balanced == total:
        lines.append("all %d profiles balanced" % total)
    else:
        lines.append("%d/%d profiles balanced" % (balanced, total))
    return EXIT_OK, payload, lines


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub, *, window: bool = True, profile: bool = False) -> None:
    sub.add_argument("--format", choices=("text", "json"), default="text")
    if window:
        sub.add_argument("--N", type=_positive_int, required=True,
                         help="q-window: coefficients below q^N are exact")
        sub.add_argument("--D", type=_positive_int, default=None,
                         help="z-window bound (needed for bivariate output)")
    if profile:
        sub.add_argument("--profile", type=_parse_profile, required=True)
        sub.add_argument("--weights", type=_parse_weights, default=None,
                         help="comma-separated weights (default: standard)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cylq",
        description="Exact verification kit for weighted chain counts and "
        "their q-series identities.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("series", help="evaluate a named closed-form sum")
    p.add_argument("--sum", choices=sorted(_SUMS), required=True)
    p.add_argument("--profile", type=_parse_profile, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_series)

    p = commands.add_parser("enumerate", help="enumerate lattice objects")
    p.add_argument("--kind", choices=KINDS, required=True)
    _add_common(p, profile=True)
    p.add_argument("--collapse-z", action="store_true",
                   help="set z = 1 in the generating function")
    p.add_argument("--objects", action="store_true",
                   help="list the objects instead of the generating function")
    p.set_defaults(func=_cmd_enumerate)

    p = commands.add_parser("product", help="expand a chain's product side")
    p.add_argument("--kind", choices=("cylindric", "skew-shifted", "symmetric"),
                   required=True)
    p.add_argument("--orientation", choices=ORIENTATIONS)
    p.add_argument("--spec-only", action="store_true",
                   help="print the factor list without expanding")
    _add_common(p, profile=True)
    p.set_defaults(func=_cmd_product)

    p = commands.add_parser("system", help="build the coupled system")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--normalized", default="auto", type=_parse_normalized,
                   help=_NORMALIZED_HELP)
    _add_common(p, window=False, profile=True)
    p.set_defaults(func=_cmd_system)

    p = commands.add_parser("solve", help="solve the coupled system")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--normalized", default="auto", type=_parse_normalized,
                   help=_NORMALIZED_HELP)
    p.add_argument("--select", type=_parse_profile, default=None,
                   help="print only this profile's solution")
    _add_common(p, profile=True)
    p.set_defaults(func=_cmd_solve)

    p = commands.add_parser("verify", help="run registered identity cases")
    p.add_argument("--case", dest="case", action="append", default=[],
                   metavar="LABEL", help="case label (repeatable; default: all)")
    p.add_argument("--list", action="store_true", help="list case labels and exit")
    p.add_argument("--jobs", type=_positive_int, default=1, metavar="K",
                   help="run the cases on K threads of one process; the output "
                        "is unchanged, and the run is no faster")
    _add_common(p, window=False)
    p.add_argument("--N", type=_positive_int, default=None,
                   help="q-window of every case: coefficients below q^N "
                        "(default: each case's own window)")
    p.add_argument("--D", type=_positive_int, default=None,
                   help="z-window bound of every case that has one (default: "
                        "each case's own); a case named by --case without a "
                        "z-window refuses it")
    p.set_defaults(func=_cmd_verify)

    p = commands.add_parser("fit", help="fit weights to a target product")
    p.add_argument("--problem", default=None,
                   help="path to a cylq-fit/1 JSON file, or - for stdin")
    p.add_argument("--kind", choices=("cylindric", "skew-shifted"), default=None)
    p.add_argument("--profile", type=_parse_profile, default=None)
    p.add_argument("--target", type=_parse_target, action="append", default=[],
                   metavar="EXPS@MOD", help="e.g. '1,4,5@5' (repeat for open chains)")
    p.add_argument("--allow-negative", action="store_true")
    p.add_argument("--rational", action="store_true",
                   help="allow non-integer weights")
    _add_common(p, window=False)
    p.set_defaults(func=_cmd_fit)

    p = commands.add_parser("balance", help="pair-exponent symmetry census")
    p.add_argument("--max-width", type=_positive_int, required=True, metavar="W",
                   help="check every profile of width 1..W: 2^(W+1) - 2 profiles")
    _add_common(p, window=False)
    p.set_defaults(func=_cmd_balance)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload, lines = args.func(args)
    except KeyError as err:
        print("error: %s" % (err.args[0] if err.args else err), file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
