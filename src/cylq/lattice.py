"""Lattice objects: partitions on a cylinder or strip and their statistics.

Objects are chains of integer partitions linked by interlacing.  For
partitions written in weakly decreasing order, ``lam`` lies above ``mu``
(written lam >= mu here) when

    lam_1 >= mu_1 >= lam_2 >= mu_2 >= ...

A profile ``delta`` in {-1,+1}^h orients each link of a chain
lam^0, lam^1, ..., lam^h: entry delta[j] = -1 makes lam^j >= lam^(j+1),
and delta[j] = +1 makes lam^j <= lam^(j+1).

Four object kinds share this machinery:

* ``cylindric``      - closed chains lam^0 .. lam^h with lam^h = lam^0,
                       weights a_0..a_(h-1), one per residue class;
* ``skew-shifted``   - open chains lam^0 .. lam^h, weights a_0..a_h;
* ``symmetric``      - cylindric objects of the doubled profile
                       (-reversed(delta), delta) that are mirror-symmetric;
                       enumerated through their half chains;
* ``distinct``       - closed chains with strict interlacing between
                       positive entries (parts inside each diagonal are
                       then automatically distinct).

The q-statistic is the weighted size sum_j a_j * |lam^j| and the
z-statistic is the largest part.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator, Optional, Sequence

from .series import TruncatedSeries, Window

__all__ = [
    "is_above",
    "is_above_strict",
    "down_neighbors",
    "up_neighbors",
    "down_neighbors_strict",
    "up_neighbors_strict",
    "partitions_iter",
    "full_profile",
    "scp_weights",
    "standard_weights",
    "GridPartition",
    "Diamond",
    "enumerate_objects",
    "genfun_by_enumeration",
    "schmidt_genfun",
    "count_distinct_by_marked_sum",
    "count_partitions_by_hook",
    "signed_distinct_genfun",
    "KINDS",
]

KINDS = ("cylindric", "skew-shifted", "symmetric", "distinct")


# ---------------------------------------------------------------------------
# interlacing
# ---------------------------------------------------------------------------


def _check_partition(lam: Sequence[int]) -> tuple:
    lam = tuple(lam)
    for i, p in enumerate(lam):
        if not isinstance(p, int) or p <= 0:
            raise ValueError("partitions are tuples of positive parts (got %r)" % (lam,))
        if i and lam[i - 1] < p:
            raise ValueError("parts must be weakly decreasing (got %r)" % (lam,))
    return lam


def is_above(lam: Sequence[int], mu: Sequence[int]) -> bool:
    """True when lam interlaces above mu: lam_1 >= mu_1 >= lam_2 >= ..."""
    la, mu = tuple(lam), tuple(mu)
    n = max(len(la), len(mu)) + 1
    la = la + (0,) * (n - len(la))
    mu = mu + (0,) * (n - len(mu))
    for k in range(n - 1):
        if mu[k] > la[k] or la[k + 1] > mu[k]:
            return False
    return True


def is_above_strict(lam: Sequence[int], mu: Sequence[int]) -> bool:
    """Strict interlacing: the inequalities of is_above are strict whenever
    both entries compared are positive."""
    la, mu = tuple(lam), tuple(mu)
    n = max(len(la), len(mu)) + 1
    la = la + (0,) * (n - len(la))
    mu = mu + (0,) * (n - len(mu))
    for k in range(n - 1):
        if mu[k] > la[k] or (mu[k] == la[k] and mu[k] > 0):
            return False
        if la[k + 1] > mu[k] or (la[k + 1] == mu[k] and mu[k] > 0):
            return False
    return True


def _trim(parts: list) -> tuple:
    out = []
    for p in parts:
        if p > 0:
            out.append(p)
        else:
            break
    return tuple(out)


def _box_walk(lows: Sequence[int], his: Sequence[int],
              size_cap: Optional[int]) -> Iterator[tuple]:
    """All c with lows[i] <= c[i] <= his[i] (and sum(c) <= size_cap when
    given), largest first, each trimmed at its first zero."""
    n = len(lows)
    sufmin = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        sufmin[i] = sufmin[i + 1] + lows[i]

    def rec(i: int, acc: list, used: int) -> Iterator[tuple]:
        if i == n:
            yield _trim(acc)
            return
        hi, lo = his[i], lows[i]
        if size_cap is not None:
            hi = min(hi, size_cap - used - sufmin[i + 1])
        for c in range(hi, lo - 1, -1):
            acc.append(c)
            yield from rec(i + 1, acc, used + c)
            acc.pop()

    return rec(0, [], 0)


def down_neighbors(
    lam: Sequence[int],
    size_cap: Optional[int] = None,
) -> Iterator[tuple]:
    """All mu with lam >= mu (and |mu| <= size_cap when given)."""
    la = tuple(lam)
    lows = la[1:] + (0,) if la else ()
    return _box_walk(lows, la, size_cap)


def up_neighbors(
    lam: Sequence[int],
    part_cap: int,
    size_cap: Optional[int] = None,
) -> Iterator[tuple]:
    """All mu with mu >= lam, largest part <= part_cap (|mu| <= size_cap)."""
    la = tuple(lam)
    return _box_walk(la + (0,), (part_cap,) + la, size_cap)


def down_neighbors_strict(
    lam: Sequence[int],
    size_cap: Optional[int] = None,
) -> Iterator[tuple]:
    """All mu strictly interlacing below lam (see is_above_strict)."""
    la = tuple(lam)
    lows = [p + 1 if p > 0 else 0 for p in la[1:]] + [0] if la else []
    return _box_walk(lows, [p - 1 if p > 0 else 0 for p in la], size_cap)


def up_neighbors_strict(
    lam: Sequence[int],
    part_cap: int,
    size_cap: Optional[int] = None,
) -> Iterator[tuple]:
    """All mu strictly interlacing above lam with parts <= part_cap."""
    la = tuple(lam)
    lows = [p + 1 if p > 0 else 0 for p in la] + [0]
    his = [part_cap] + [p - 1 if p > 0 else 0 for p in la]
    return _box_walk(lows, his, size_cap)


def partitions_iter(
    size_cap: Optional[int] = None,
    part_cap: Optional[int] = None,
    rows_cap: Optional[int] = None,
) -> Iterator[tuple]:
    """All partitions obeying the given caps, largest parts first.

    At least the size must be capped, or both the part size and the row
    count; otherwise the family is infinite.
    """
    if size_cap is None and (part_cap is None or rows_cap is None):
        raise ValueError(
            "unbounded enumeration: cap the size, or both parts and rows"
        )

    def rec(first_cap: int, budget: int, rows: int) -> Iterator[tuple]:
        yield ()
        if rows == 0:
            return
        hi = min(first_cap, budget)
        for p in range(hi, 0, -1):
            for rest in rec(p, budget - p, rows - 1):
                yield (p,) + rest

    budget = size_cap if size_cap is not None else (part_cap * rows_cap)
    first = part_cap if part_cap is not None else budget
    rows = rows_cap if rows_cap is not None else budget
    yield from rec(first, budget, rows)


# ---------------------------------------------------------------------------
# profiles, weights, objects
# ---------------------------------------------------------------------------


def _check_profile(delta: Sequence[int]) -> tuple:
    d = tuple(delta)
    if not d:
        raise ValueError("a profile needs at least one entry")
    if any(x not in (-1, 1) for x in d):
        raise ValueError("profile entries must be +1 or -1 (got %r)" % (d,))
    return d


def full_profile(delta: Sequence[int]) -> tuple:
    """The doubled profile (-reversed(delta), delta) of a symmetric object."""
    d = _check_profile(delta)
    return tuple(-x for x in reversed(d)) + d


def scp_weights(width: int) -> tuple:
    """Size weights of the half chain of a symmetric object: (1,2,...,2,1)."""
    if width < 1:
        raise ValueError("width must be positive")
    if width == 1:
        return (1, 1)
    return (1,) + (2,) * (width - 1) + (1,)


def standard_weights(kind: str, width: int) -> tuple:
    """All-ones weights of the right length for the kind."""
    if kind in ("cylindric", "distinct"):
        return (1,) * width
    if kind == "skew-shifted":
        return (1,) * (width + 1)
    raise ValueError("standard weights are defined for cylindric, distinct, "
                     "and skew-shifted objects")


def _check_weights(weights: Sequence, length: int) -> tuple:
    w = tuple(Fraction(x) for x in weights)
    if len(w) != length:
        raise ValueError("expected %d weights, got %d" % (length, len(w)))
    if any(x < 0 for x in w):
        raise ValueError("weights must be nonnegative")
    return w


@dataclass(frozen=True)
class GridPartition:
    """One enumerated object.

    ``diagonals`` lists lam^0 .. lam^h; closed kinds (cylindric, distinct,
    symmetric) repeat the first diagonal at the end, so their tuple has one
    more entry than the profile.  For symmetric objects ``delta`` and
    ``weights`` describe the doubled cylinder.
    """

    kind: str
    delta: tuple
    weights: tuple
    diagonals: tuple

    def validate(self) -> "GridPartition":
        if self.kind not in KINDS:
            raise ValueError("unknown kind %r" % (self.kind,))
        d = _check_profile(self.delta)
        h = len(d)
        diags = tuple(_check_partition(t) for t in self.diagonals)
        if len(diags) != h + 1:
            raise ValueError(
                "expected %d diagonals for width %d, got %d" % (h + 1, h, len(diags))
            )
        closed = self.kind in ("cylindric", "distinct", "symmetric")
        if closed and diags[0] != diags[-1]:
            raise ValueError("closed chains must repeat the first diagonal last")
        _check_weights(self.weights, h if closed else h + 1)
        above = is_above_strict if self.kind == "distinct" else is_above
        for j in range(h):
            upper, lower = (
                (diags[j], diags[j + 1]) if d[j] == -1 else (diags[j + 1], diags[j])
            )
            if not above(upper, lower):
                raise ValueError(
                    "diagonals %d and %d violate the profile direction %+d"
                    % (j, j + 1, d[j])
                )
        if self.kind == "symmetric":
            if len(d) % 2:
                raise ValueError("symmetric objects have even width")
            h2 = len(d)
            if d != full_profile(d[h2 // 2:]):
                raise ValueError("symmetric profile must equal (-rev(half), half)")
            for j in range(h2):
                if diags[j] != diags[(h2 - j) % h2]:
                    raise ValueError("diagonals are not mirror-symmetric")
        return self

    def weighted_size(self) -> Fraction:
        closed = self.kind in ("cylindric", "distinct", "symmetric")
        span = len(self.delta) if closed else len(self.delta) + 1
        return sum(
            (Fraction(self.weights[j]) * sum(self.diagonals[j]) for j in range(span)),
            Fraction(0),
        )

    def max_part(self) -> int:
        return max((t[0] for t in self.diagonals if t), default=0)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "delta": list(self.delta),
            "weights": [[w.numerator, w.denominator] for w in self.weights],
            "diagonals": [list(t) for t in self.diagonals],
        }

    @staticmethod
    def from_json(payload: dict) -> "GridPartition":
        return GridPartition(
            payload["kind"],
            tuple(payload["delta"]),
            tuple(Fraction(n, d) for n, d in payload["weights"]),
            tuple(tuple(t) for t in payload["diagonals"]),
        ).validate()


@dataclass(frozen=True)
class Diamond:
    """A chain of period-3 diamond links: entries e_1, e_2, e_3, e_4, ...

    with e_(3i+1) >= e_(3i+2), e_(3i+1) >= e_(3i+3), e_(3i+2) >= e_(3i+4),
    e_(3i+3) >= e_(3i+4).  The marked statistic sums the anchors
    e_1 + e_4 + e_7 + ...; the z-statistic is the first entry.
    """

    entries: tuple

    def validate(self) -> "Diamond":
        e = self.entries
        if any((not isinstance(x, int)) or x < 0 for x in e):
            raise ValueError("diamond entries are nonnegative integers")
        if e and e[-1] == 0:
            raise ValueError("trailing zero entries must be trimmed")
        n = len(e)

        def at(i: int) -> int:
            return e[i] if i < n else 0

        for i in range(0, n, 3):
            if at(i + 1) > at(i) or at(i + 2) > at(i):
                raise ValueError("entry %d must dominate the next two" % (i + 1))
            if at(i + 3) > at(i + 1) or at(i + 3) > at(i + 2):
                raise ValueError("entries %d and %d must dominate entry %d"
                                 % (i + 2, i + 3, i + 4))
        return self

    def marked_sum(self) -> int:
        return sum(self.entries[0::3])

    def max_part(self) -> int:
        return self.entries[0] if self.entries else 0


# ---------------------------------------------------------------------------
# chain enumeration
# ---------------------------------------------------------------------------


def _scaled_weights(weights: tuple, extra_scale: int = 1) -> tuple[tuple, int]:
    scale = extra_scale
    for w in weights:
        scale = lcm(scale, w.denominator)
    return tuple(int(w * scale) for w in weights), scale


def _zero_weight_guard(aw: tuple, part_cap, rows_cap) -> None:
    if all(w == 0 for w in aw):
        if part_cap is None or rows_cap is None:
            raise ValueError(
                "unbounded enumeration: all weights vanish, so both max_part "
                "and max_rows are required"
            )
    elif any(w == 0 for w in aw) and part_cap is None:
        raise ValueError(
            "unbounded enumeration: a zero weight leaves part sizes uncapped; "
            "supply max_part (or a finite z-window)"
        )


def _neighbor_stream(direction_down: bool, strict: bool, prev: tuple,
                     w: int, remaining: int, part_cap, rows_cap):
    """Candidates for the next diagonal along one link."""
    size_cap = remaining // w if w > 0 else None
    if direction_down:
        gen = (down_neighbors_strict if strict else down_neighbors)(prev, size_cap)
    else:
        cap = part_cap
        if w > 0:
            cap = size_cap if cap is None else min(cap, size_cap)
        gen = (up_neighbors_strict if strict else up_neighbors)(prev, cap, size_cap)
    if rows_cap is None:
        yield from gen
    else:
        for mu in gen:
            if len(mu) <= rows_cap:
                yield mu


def _closed_chains(delta, aw, budget, part_cap, rows_cap, strict):
    """Closed chains (cylindric wrap), anchored at the heaviest weight.

    Yields (diagonals lam^0..lam^(h-1) in input orientation, scaled size).
    """
    h = len(delta)
    r = max(range(h), key=lambda j: aw[j])
    d = delta[r:] + delta[:r]
    w = aw[r:] + aw[:r]
    above = is_above_strict if strict else is_above
    anchor_size = budget // w[0] if w[0] > 0 else None
    chain = [None] * h

    def rec(j: int, used: int) -> Iterator[tuple]:
        if j == h:
            lam0, last = chain[0], chain[h - 1]
            ok = above(last, lam0) if d[h - 1] == -1 else above(lam0, last)
            if ok:
                rotated = tuple(chain[(j2 - r) % h] for j2 in range(h))
                yield rotated, used
            return
        prev = chain[j - 1]
        for mu in _neighbor_stream(d[j - 1] == -1, strict, prev,
                                   w[j], budget - used, part_cap, rows_cap):
            chain[j] = mu
            yield from rec(j + 1, used + w[j] * sum(mu))
        chain[j] = None

    for lam0 in partitions_iter(anchor_size, part_cap, rows_cap):
        used0 = w[0] * sum(lam0)
        if used0 > budget:
            continue
        chain[0] = lam0
        if h == 1:
            if above(lam0, lam0):
                yield (lam0,), used0
        else:
            yield from rec(1, used0)
        chain[0] = None


def _open_chains(delta, aw, budget, part_cap, rows_cap, strict):
    """Open chains lam^0..lam^h, anchored at the heaviest weight.

    Yields (diagonals lam^0..lam^h, scaled size).
    """
    h = len(delta)
    t = max(range(h + 1), key=lambda j: aw[j])
    anchor_size = budget // aw[t] if aw[t] > 0 else None

    def grow(j: int, chain: list, used: int) -> Iterator[tuple]:
        # extend to the right from position j
        if j == h:
            yield from shrink(t, chain, used)
            return
        prev = chain[-1]
        for mu in _neighbor_stream(delta[j] == -1, strict, prev,
                                   aw[j + 1], budget - used, part_cap, rows_cap):
            yield from grow(j + 1, chain + [mu], used + aw[j + 1] * sum(mu))

    def shrink(j: int, chain: list, used: int) -> Iterator[tuple]:
        # extend to the left from position j
        if j == 0:
            yield tuple(chain), used
            return
        prev = chain[0]
        # link j-1 -> j read backwards: delta[j-1] = -1 means the left
        # diagonal dominates, so generate upward from the right one
        for mu in _neighbor_stream(delta[j - 1] == 1, strict, prev,
                                   aw[j - 1], budget - used, part_cap, rows_cap):
            yield from shrink(j - 1, [mu] + chain, used + aw[j - 1] * sum(mu))

    for lam_t in partitions_iter(anchor_size, part_cap, rows_cap):
        used0 = aw[t] * sum(lam_t)
        if used0 > budget:
            continue
        yield from grow(t, [lam_t], used0)


def _resolve(kind, delta, weights):
    kind = str(kind)
    if kind not in KINDS:
        raise ValueError("unknown kind %r; expected one of %s" % (kind, ", ".join(KINDS)))
    d = _check_profile(delta)
    h = len(d)
    if kind == "symmetric":
        if weights is not None:
            raise ValueError(
                "symmetric objects always use the standard size of the doubled "
                "cylinder; pass weights=None"
            )
        w = tuple(Fraction(x) for x in scp_weights(h))
    elif weights is None:
        w = tuple(Fraction(1) for _ in range(h if kind in ("cylindric", "distinct") else h + 1))
    else:
        w = _check_weights(weights, h if kind in ("cylindric", "distinct") else h + 1)
    return kind, d, w


def enumerate_objects(
    kind: str,
    delta: Sequence[int],
    weights: Optional[Sequence] = None,
    *,
    max_weighted_size,
    max_part: Optional[int] = None,
    max_rows: Optional[int] = None,
) -> list:
    """All objects of the kind with weighted size <= max_weighted_size.

    ``max_part`` and ``max_rows`` cap every diagonal; ``max_part`` is
    mandatory whenever a weight vanishes (the budget alone no longer bounds
    the family), and both caps are mandatory when all weights vanish.
    Results are sorted by (weighted size, largest part, diagonals) and are
    duplicate-free.
    """
    kind, d, w = _resolve(kind, delta, weights)
    budget_fr = Fraction(max_weighted_size)
    if budget_fr < 0:
        raise ValueError("max_weighted_size must be nonnegative")
    aw, scale = _scaled_weights(w, lcm(1, budget_fr.denominator))
    budget = int(budget_fr * scale)
    _zero_weight_guard(aw, max_part, max_rows)

    out = []
    if kind in ("cylindric", "distinct"):
        strict = kind == "distinct"
        for diags, used in _closed_chains(d, aw, budget, max_part, max_rows, strict):
            obj = GridPartition(kind, d, w, diags + (diags[0],))
            out.append((used, obj))
    elif kind == "skew-shifted":
        for diags, used in _open_chains(d, aw, budget, max_part, max_rows, False):
            out.append((used, GridPartition(kind, d, w, diags)))
    else:  # symmetric: enumerate half chains with weights (1,2,...,2,1)
        h = len(d)
        for half, used in _open_chains(d, aw, budget, max_part, max_rows, False):
            # half[i] = diagonal at position h+i of the doubled cylinder
            fullp = full_profile(d)
            diags = tuple(half[h - j] for j in range(h + 1)) + tuple(
                half[j] for j in range(1, h + 1)
            )
            obj = GridPartition(
                "symmetric", fullp, tuple(Fraction(1) for _ in range(2 * h)), diags
            )
            out.append((used, obj))

    out.sort(key=lambda pair: (pair[0], pair[1].max_part(), pair[1].diagonals))
    return [obj for _, obj in out]


def genfun_by_enumeration(
    kind: str,
    delta: Sequence[int],
    weights: Optional[Sequence] = None,
    *,
    window: Window,
    max_rows: Optional[int] = None,
) -> TruncatedSeries:
    """The generating function sum z^(largest part) q^(weighted size).

    Exact strictly below q^q_truncation and for z-degrees up to
    z_truncation; the z-window doubles as the mandatory part cap when a
    weight vanishes.
    """
    kind, d, w = _resolve(kind, delta, weights)
    if window.q_truncation is None:
        raise ValueError("enumeration needs a finite q_truncation")
    aw, scale = _scaled_weights(w, window.q_scale)
    budget = window.q_truncation * scale - 1
    part_cap = window.z_truncation
    _zero_weight_guard(aw, part_cap, max_rows)

    counts: dict = {}
    if kind in ("cylindric", "distinct"):
        stream = _closed_chains(d, aw, budget, part_cap, max_rows, kind == "distinct")
    else:  # skew-shifted, and symmetric through its half chains
        stream = _open_chains(d, aw, budget, part_cap, max_rows, False)
    for diags, used in stream:
        z = max((t[0] for t in diags if t), default=0)
        key = (z, used)
        counts[key] = counts.get(key, 0) + 1
    return TruncatedSeries(counts, window.q_truncation, window.z_truncation, scale)


# ---------------------------------------------------------------------------
# marked partition families (distinct / unrestricted / diamond chains)
# ---------------------------------------------------------------------------


def _marked_partitions_counts(
    n_cap: int, z_cap: int, distinct: bool, marking: str, *, count_first: bool = False
) -> dict:
    """Counts {(largest part, marked sum): #partitions} with the marked sum
    below n_cap and the largest part at most z_cap.

    The marked sum adds the parts in odd positions (marking="odd":
    lam_1 + lam_3 + ...) or even positions (marking="even": lam_2 + ...),
    and also lam_1 when count_first is set.  Partitions are generated part
    by part; positions are 1-based.
    """
    if marking not in ("odd", "even"):
        raise ValueError("marking must be 'odd' or 'even'")
    odd = marking == "odd"
    counts: dict = {(0, 0): 1}

    def rec(prev: int, pos: int, first: int, marked: int) -> None:
        # next part at position pos (1-based), value at most prev
        counted = (pos % 2 == 1) == odd
        hi = prev - 1 if distinct else prev
        if counted:
            hi = min(hi, n_cap - 1 - marked)
        for p in range(hi, 0, -1):
            m2 = marked + p if counted else marked
            key = (first, m2)
            counts[key] = counts.get(key, 0) + 1
            rec(p, pos + 1, first, m2)

    for first in range(1, z_cap + 1):
        marked0 = first if odd or count_first else 0
        if marked0 >= n_cap:
            continue
        counts[(first, marked0)] = counts.get((first, marked0), 0) + 1
        rec(first, 2, first, marked0)
    return counts


def _diamond_counts(n_cap: int, z_cap: int) -> dict:
    """Counts {(first entry, anchor sum): #diamond chains} with anchor sum
    below n_cap and first entry at most z_cap."""
    counts: dict = {(0, 0): 1}

    def rec(first: int, anchor: int, marked: int) -> None:
        # chain continues past this anchor with an ordered pair (x, y)
        # below it; it may stop there, or continue from a positive anchor
        # bounded by both pair entries
        for x in range(anchor, -1, -1):
            for y in range(anchor, -1, -1):
                if x == 0 and y == 0:
                    continue
                counts[(first, marked)] = counts.get((first, marked), 0) + 1
                for a2 in range(1, min(x, y, n_cap - 1 - marked) + 1):
                    m2 = marked + a2
                    counts[(first, m2)] = counts.get((first, m2), 0) + 1
                    rec(first, a2, m2)

    for first in range(1, z_cap + 1):
        if first >= n_cap:
            continue
        counts[(first, first)] = counts.get((first, first), 0) + 1
        rec(first, first, first)
    return counts


def schmidt_genfun(family: str, window: Window, marking: str = "odd") -> TruncatedSeries:
    """Generating function z^(largest part) q^(marked sum) of a family.

    family: "distinct" (partitions with distinct parts), "unrestricted"
    (all partitions), or "diamond" (diamond chains; the marking is fixed
    to the anchors e_1 + e_4 + e_7 + ... and ``marking`` must stay "odd").
    """
    if window.q_truncation is None or window.z_truncation is None:
        raise ValueError("marked families need finite q and z windows")
    n_cap, z_cap = window.q_truncation, window.z_truncation
    if family == "diamond":
        if marking != "odd":
            raise ValueError("diamond chains mark the anchors; only the default "
                             "marking is defined")
        counts = _diamond_counts(n_cap, z_cap)
    elif family in ("distinct", "unrestricted"):
        counts = _marked_partitions_counts(n_cap, z_cap, family == "distinct", marking)
    else:
        raise ValueError("family must be 'distinct', 'unrestricted', or 'diamond'")
    coeffs = {}
    for (z, m), c in counts.items():
        coeffs[(z, m * window.q_scale)] = c
    return TruncatedSeries(coeffs, n_cap, z_cap, window.q_scale)


def count_distinct_by_marked_sum(
    max_statistic: int, marking: str = "odd", include_largest: bool = False
) -> dict:
    """Counts {(largest part, statistic): #distinct-part partitions}.

    statistic = marked sum, plus the largest part when include_largest is
    set (so marking="even", include_largest=True tabulates by
    lam_1 + lam_2 + lam_4 + lam_6 + ...).  Every partition with statistic
    <= max_statistic is counted; the empty partition sits at (0, 0).
    The statistic must include the largest part (directly or through the
    odd marking) for the table to be finite.
    """
    if marking == "even" and not include_largest:
        raise ValueError(
            "the even-marked sum alone does not bound the largest part; "
            "set include_largest"
        )
    return _marked_partitions_counts(
        max_statistic + 1, max_statistic, True, marking, count_first=True
    )


def count_partitions_by_hook(max_size: int, min_part: int = 1) -> dict:
    """Counts {(hook length, size): #partitions with parts >= min_part}.

    The hook length of a nonempty partition is largest part + rows - 1;
    the empty partition is recorded at (0, 0).
    """
    counts: dict = {(0, 0): 1}

    def rec(prev: int, size: int, first: int, rows: int) -> None:
        counts[(first + rows - 1, size)] = counts.get((first + rows - 1, size), 0) + 1
        for p in range(min(prev, max_size - size), min_part - 1, -1):
            rec(p, size + p, first, rows + 1)

    for first in range(min_part, max_size + 1):
        rec(first, first, first, 1)
    return counts


def signed_distinct_genfun(window: Window) -> TruncatedSeries:
    """sum over distinct-part partitions of (-1)^(#odd parts) q^size."""
    if window.q_truncation is None:
        raise ValueError("needs a finite q_truncation")
    n_cap = window.q_truncation
    coeffs: dict = {(0, 0): 1}

    def rec(prev: int, size: int, sign: int) -> None:
        for p in range(min(prev - 1, n_cap - 1 - size), 0, -1):
            s2 = -sign if p % 2 else sign
            key = (0, (size + p) * window.q_scale)
            coeffs[key] = coeffs.get(key, 0) + s2
            rec(p, size + p, s2)

    rec(n_cap + 1, 0, 1)
    return TruncatedSeries(coeffs, n_cap, window.z_truncation, window.q_scale)
