"""Inverse problems for the product sides: weight fitting, profile
re-encodings, and searches for weighted equivalences.

`fit_weights` answers "which weight vectors give a chain this product?":
the entry rules of `products` are evaluated symbolically in the unknown
weights (every entry is an affine form), each bijective matching of
symbolic entries to target exponents yields an exact linear system, and
the systems are solved over the rationals with inconsistent branches
pruned as soon as they appear.  Underdetermined systems are completed by
enumerating the free weights over the integer range allowed by the
modulus, so the returned list is exhaustive within the stated bounds.
Every solution is forward-checked against the numeric entry rules
before it is returned.

`convert_profile` switches between the sign-sequence form of a profile
and a composition-style encoding (offset plus cyclic gap counts); the
encoding is an internal convention whose contract is the round-trip
property.

`discover_equivalences` expands each distinct product of the parameter
sets in a finite search grid once and groups the sets whose expansions
agree within the window, re-verifying each grouped member by direct
enumeration at small order.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .lattice import genfun_by_enumeration, _check_profile
from .products import (
    cp_product_spec,
    dspp_product_spec,
    prefix_sums,
    w1_entries,
    w2_entries,
    w3_entries,
)
from .series import Window

__all__ = [
    "FitProblem",
    "convert_profile",
    "discover_equivalences",
    "fit_report",
    "fit_weights",
]

_FIT_KINDS = ("cylindric", "skew-shifted")


# ---------------------------------------------------------------------------
# affine forms in the unknown weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Affine:
    """``const + sum coeffs[j] * a_j`` with exact rational coefficients."""

    coeffs: tuple
    const: Fraction = Fraction(0)

    def __add__(self, other: "_Affine") -> "_Affine":
        return _Affine(
            tuple(x + y for x, y in zip(self.coeffs, other.coeffs)),
            self.const + other.const,
        )

    def __sub__(self, other: "_Affine") -> "_Affine":
        return _Affine(
            tuple(x - y for x, y in zip(self.coeffs, other.coeffs)),
            self.const - other.const,
        )

    def unknowns(self) -> int:
        return sum(1 for c in self.coeffs if c != 0)


def _symbolic_prefix_sums(nvars: int) -> list:
    """A_1..A_nvars as affine forms in the weights a_0..a_(nvars-1)."""
    out = []
    for k in range(1, nvars + 1):
        out.append(
            _Affine(tuple(Fraction(1 if j < k else 0) for j in range(nvars)))
        )
    return out


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------


class _Eliminator:
    """Incremental Gaussian elimination used to prune assignments.

    Rows are kept reduced; adding an equation either absorbs it, reports
    a contradiction, or installs a new pivot.
    """

    __slots__ = ("nvars", "rows")

    def __init__(self, nvars: int, rows: Optional[dict] = None) -> None:
        self.nvars = nvars
        self.rows = dict(rows) if rows else {}

    def copy(self) -> "_Eliminator":
        return _Eliminator(self.nvars, self.rows)

    def add(self, coeffs: Sequence, rhs) -> bool:
        """Absorb ``coeffs . a = rhs``; False means inconsistent."""
        row = list(coeffs) + [Fraction(rhs)]
        for col, pivot_row in self.rows.items():
            if row[col] != 0:
                f = row[col]
                row = [x - f * y for x, y in zip(row, pivot_row)]
        lead = next((c for c in range(self.nvars) if row[c] != 0), None)
        if lead is None:
            return row[-1] == 0
        f = row[lead]
        self.rows[lead] = [x / f for x in row]
        return True


def _solve_all(elim: _Eliminator, bound: Fraction, integral: bool, nonneg: bool):
    """All solutions of the consistent reduced system, enumerating free
    weights when needed.

    Unique solutions are always returned.  Underdetermined systems are
    enumerated over integers 0..floor(bound) per free weight, which is
    exhaustive when the weights are nonnegative integers summing to the
    modulus; without both constraints the family is unbounded and no
    members are returned.
    """
    nvars = elim.nvars
    free = [c for c in range(nvars) if c not in elim.rows]

    def complete(free_values) -> tuple:
        # every pivot row has zeros strictly left of its pivot, so a
        # descending sweep only ever references already-known entries
        x = [Fraction(0)] * nvars
        for f, v in free_values:
            x[f] = Fraction(v)
        for col in sorted(elim.rows, reverse=True):
            row = elim.rows[col]
            val = row[-1]
            for c in range(col + 1, nvars):
                if row[c]:
                    val -= row[c] * x[c]
            x[col] = val
        return tuple(x)

    if not free:
        return [complete(())]
    if not (integral and nonneg):
        return []
    top = int(bound)
    return [
        complete(zip(free, combo))
        for combo in itertools.product(range(top + 1), repeat=len(free))
    ]


# ---------------------------------------------------------------------------
# fit problems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitProblem:
    """A target product to realize as a weighted chain.

    ``targets`` holds (exponents, modulus) pairs: one pair for a closed
    chain (the single exponent multiset), two pairs for an open chain
    (the first and second multisets, the second modulus being twice the
    first).  ``nonnegative`` and ``integral`` restrict the admissible
    weight vectors; both default on.
    """

    kind: str
    profile: tuple
    targets: tuple
    nonnegative: bool = True
    integral: bool = True

    @staticmethod
    def make(kind, profile, targets, *, nonnegative=True, integral=True) -> "FitProblem":
        if kind not in _FIT_KINDS:
            raise ValueError("kind must be one of %s" % (_FIT_KINDS,))
        d = _check_profile(profile)
        if len(targets) == 2 and isinstance(targets[1], (int, Fraction)):
            targets = (targets,)  # a single (exponents, modulus) pair
        norm = []
        for exponents, modulus in targets:
            exps = tuple(sorted(Fraction(e) for e in exponents))
            m = Fraction(modulus)
            if any(e <= 0 for e in exps):
                raise ValueError("target exponents must be positive")
            if m <= 0:
                raise ValueError("target modulus must be positive")
            norm.append((exps, m))
        return FitProblem(kind, d, tuple(norm), bool(nonnegative), bool(integral))

    def to_json(self) -> dict:
        return {
            "schema": "cylq-fit/1",
            "kind": self.kind,
            "profile": list(self.profile),
            "targets": [
                {"exponents": [str(e) for e in exps], "modulus": str(m)}
                for exps, m in self.targets
            ],
            "nonnegative": self.nonnegative,
            "integral": self.integral,
        }

    @staticmethod
    def from_json(payload: dict) -> "FitProblem":
        if not isinstance(payload, dict) or payload.get("schema") != "cylq-fit/1":
            raise ValueError("not a cylq-fit/1 payload")
        return FitProblem.make(
            payload["kind"],
            tuple(payload["profile"]),
            tuple(
                (tuple(Fraction(e) for e in t["exponents"]), Fraction(t["modulus"]))
                for t in payload["targets"]
            ),
            nonnegative=payload.get("nonnegative", True),
            integral=payload.get("integral", True),
        )


def _shape_reason(problem: FitProblem) -> Optional[str]:
    """Why the target cannot match the profile's entry counts, or None."""
    d = problem.profile
    h = len(d)
    discordant = sum(
        1 for i in range(h) for j in range(i + 1, h) if d[i] != d[j]
    )
    if problem.kind == "cylindric":
        if len(problem.targets) != 1:
            return "a closed chain has exactly one exponent multiset"
        want = 1 + discordant
        got = len(problem.targets[0][0])
        if got != want:
            return (
                "closed chain of profile %s has %d entries (1 + %d discordant "
                "pairs); target has %d" % (d, want, discordant, got)
            )
        return None
    if len(problem.targets) != 2:
        return "an open chain has exactly two exponent multisets"
    (w1, m1), (w2, m2) = problem.targets
    if len(w1) != h + 1:
        return "first multiset needs %d entries, got %d" % (h + 1, len(w1))
    if len(w2) != h * (h - 1) // 2:
        return "second multiset needs %d entries, got %d" % (
            h * (h - 1) // 2,
            len(w2),
        )
    if m2 != 2 * m1:
        return "second modulus must be twice the first (%s vs %s)" % (m2, m1)
    return None


def _symbolic_groups(problem: FitProblem):
    """(forms, values) per target multiset, plus modulus equations."""
    d = problem.profile
    nvars = len(d) if problem.kind == "cylindric" else len(d) + 1
    A = _symbolic_prefix_sums(nvars)
    if problem.kind == "cylindric":
        groups = [(w3_entries(d, A), problem.targets[0][0])]
    else:
        groups = [
            (w1_entries(d, A), problem.targets[0][0]),
            (w2_entries(d, A), problem.targets[1][0]),
        ]
    total = A[-1]
    modulus_eqs = [(total.coeffs, problem.targets[0][1] - total.const)]
    ordered = [
        (sorted(forms, key=_Affine.unknowns), Counter(values))
        for forms, values in groups
    ]
    return ordered, modulus_eqs, nvars


def _numeric_entries(problem: FitProblem, weights) -> tuple:
    A = prefix_sums(weights)
    if problem.kind == "cylindric":
        return ((tuple(sorted(w3_entries(problem.profile, A))), A[-1]),)
    return (
        (tuple(sorted(w1_entries(problem.profile, A))), A[-1]),
        (tuple(sorted(w2_entries(problem.profile, A))), 2 * A[-1]),
    )


def _forward_check(problem: FitProblem, weights) -> bool:
    return _numeric_entries(problem, weights) == problem.targets


def fit_weights(problem: FitProblem) -> list:
    """All weight vectors whose entry multisets equal the targets.

    Empty when the target shape cannot match the profile, or when no
    assignment has a solution within the constraints.  Every returned
    vector passes the numeric forward check.  The search matches the
    symbolic entries (fewest unknowns first) to target values, pruning
    any branch whose running linear system turns inconsistent.
    """
    if _shape_reason(problem) is not None:
        return []
    groups, modulus_eqs, nvars = _symbolic_groups(problem)
    base = _Eliminator(nvars)
    for coeffs, rhs in modulus_eqs:
        if not base.add(coeffs, rhs):
            return []
    bound = problem.targets[0][1]
    solutions = set()

    def descend(g: int, i: int, elim: _Eliminator) -> None:
        # elim holds the modulus equations and every matched equation so far
        if g == len(groups):
            solutions.update(_solve_all(elim, bound, problem.integral, problem.nonnegative))
            return
        forms, counter = groups[g]
        if i == len(forms):
            descend(g + 1, 0, elim)
            return
        form = forms[i]
        for value in sorted(counter):
            if counter[value] == 0:
                continue
            branch = elim.copy()
            if not branch.add(form.coeffs, value - form.const):
                continue
            counter[value] -= 1
            descend(g, i + 1, branch)
            counter[value] += 1

    descend(0, 0, base)

    out = []
    for x in solutions:
        if problem.nonnegative and any(v < 0 for v in x):
            continue
        if problem.integral:
            if any(v.denominator != 1 for v in x):
                continue
            candidate = tuple(int(v) for v in x)
        else:
            candidate = x
        if _forward_check(problem, candidate):
            out.append(candidate)
    return sorted(set(out))


def fit_report(problem: FitProblem) -> dict:
    """JSON-shaped fitting result with forward-check status per solution."""
    reason = _shape_reason(problem)
    solutions = [] if reason else fit_weights(problem)
    return {
        "schema": "cylq-fit-result/1",
        "problem": problem.to_json(),
        "feasible_shape": reason is None,
        "reason": reason,
        "solutions": [
            {
                "weights": [str(w) if isinstance(w, Fraction) else w for w in sol],
                "forward_check": True,  # fit_weights only returns checked vectors
            }
            for sol in solutions
        ],
    }


# ---------------------------------------------------------------------------
# profile representation switch
# ---------------------------------------------------------------------------


def convert_profile(value):
    """Switch between a sign profile and its composition encoding.

    The composition encoding is ``(offset, gaps)``: ``gaps`` counts the
    +1 entries after each -1 entry in cyclic order starting from the
    first -1, and ``offset`` is the index of that first -1 (so the
    entries before it are the tail of the last gap).  An all-plus
    profile of width ``h`` encodes as ``(h, ())``.  The only contract is
    the round trip; rejects compositions whose offset exceeds the last
    gap, since no profile encodes to them.
    """
    if (
        isinstance(value, (tuple, list))
        and len(value) == 2
        and isinstance(value[1], (tuple, list))
    ):
        return _composition_to_profile(int(value[0]), tuple(value[1]))
    return _profile_to_composition(value)


def _profile_to_composition(delta) -> tuple:
    d = _check_profile(delta)
    h = len(d)
    minus = [i for i, s in enumerate(d) if s == -1]
    if not minus:
        return (h, ())
    offset = minus[0]
    gaps = []
    for a, b in zip(minus, minus[1:]):
        gaps.append(b - a - 1)
    gaps.append(h - minus[-1] - 1 + offset)
    return (offset, tuple(gaps))


def _composition_to_profile(offset: int, gaps: tuple) -> tuple:
    if offset < 0 or any((not isinstance(g, int)) or g < 0 for g in gaps):
        raise ValueError("malformed composition: offset and gaps must be >= 0")
    if not gaps:
        if offset < 1:
            raise ValueError("malformed composition: empty profile")
        return (1,) * offset
    if offset > gaps[-1]:
        raise ValueError(
            "malformed composition: offset %d exceeds the last gap %d"
            % (offset, gaps[-1])
        )
    word = []
    for g in gaps:
        word.append(-1)
        word.extend([1] * g)
    if offset == 0:
        return tuple(word)
    return tuple(word[-offset:] + word[:-offset])


# ---------------------------------------------------------------------------
# equivalence search
# ---------------------------------------------------------------------------


def discover_equivalences(
    *,
    window: Window,
    kinds: Sequence[str] = ("cylindric", "skew-shifted"),
    max_width: int = 2,
    weight_values: Sequence[int] = (0, 1, 2),
    min_members: int = 2,
    check_q: int = 7,
) -> list:
    """Group parameter sets whose products agree within the window.

    Scans every (kind, profile, weights) tuple with profile width up to
    ``max_width`` and weights drawn from ``weight_values``, skipping
    parameter sets whose entry multisets are not strictly positive.  A
    value repeated in ``kinds`` or ``weight_values`` is scanned once.
    Sets are grouped by the exact coefficients of their expanded product
    inside ``window``; groups smaller than ``min_members`` are dropped.
    Each surviving member is re-verified by direct enumeration through
    ``q^(check_q - 1)``, so a group is a window-verified equivalence of
    weighted counts, not a proof.  Each distinct product is expanded once
    per call, through ``q^(max(N, check_q) - 1)`` for the window's q^N,
    and serves both the grouping and the re-verification.
    """
    if window.q_truncation is None:
        raise ValueError("the search needs a finite q-window")
    for kind in kinds:
        if kind not in _FIT_KINDS:
            raise ValueError("searchable kinds are %s" % (_FIT_KINDS,))
    check_w = Window(check_q, check_q)
    if check_q is None:
        raise ValueError("the member check needs a finite check_q")
    n_trunc = window.q_truncation
    scan = Window(max(n_trunc, check_q))
    values = tuple(dict.fromkeys(weight_values))
    expanded: dict = {}  # spec -> (its coefficients below q^N, its expansion)
    buckets: dict = {}
    for kind in dict.fromkeys(kinds):
        for width in range(1, max_width + 1):
            nweights = width if kind == "cylindric" else width + 1
            for profile in itertools.product((1, -1), repeat=width):
                for weights in itertools.product(values, repeat=nweights):
                    try:
                        spec = (
                            cp_product_spec(profile, weights)
                            if kind == "cylindric"
                            else dspp_product_spec(profile, weights)
                        )
                    except ValueError:
                        continue  # zero/negative entry: no product to match
                    if spec not in expanded:
                        series = spec.expand(scan)
                        cap = n_trunc * series.q_scale
                        key = tuple(item for item in sorted(series.coeffs.items()) if item[0][1] < cap)
                        expanded[spec] = key, series
                    key, series = expanded[spec]
                    buckets.setdefault(key, []).append((kind, profile, weights, series))
    groups = []
    for members in buckets.values():
        if len(members) < min_members:
            continue
        kept = []
        for kind, profile, weights, series in members:
            enum = genfun_by_enumeration(
                kind, profile, weights, window=check_w
            ).collapse_z()
            # compared below q^check_q: the enumeration's window, inside the expansion's
            if enum.first_difference(series) is None:
                kept.append((kind, profile, weights))
        if len(kept) >= min_members:
            groups.append(sorted(kept))
    return sorted(groups)
