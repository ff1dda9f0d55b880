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

``enumerate_objects`` lists the objects one by one and is the oracle.  Its
walk takes every partition within the budget as the anchor, the diagonal of
the heaviest weight, and then follows a list of steps (j, i, down), each
placing at position j every neighbor of the diagonal at position i (below
it when ``down`` is set).  A closed chain steps on around the cylinder from
its anchor; an open chain steps right to its end and then left to its start.

``genfun_by_enumeration`` counts the objects instead, row by row: row i of
a chain holds the i-th parts of all its diagonals, and interlacing bounds
each row entrywise by a bound taken from the row before it.  The count of
the chains after a row depends only on that bound (Stanley's transfer-matrix
method), and is a sum over the rows under it.  The sums are Kronecker packs
of ``series``, taken in one pass over the rows in lexicographic order: the
rows under a bound that share all but their last entry are one run of
consecutive rows, so each bound's sum is read from running sums at the ends
of such runs, in time polynomial in the window.  The marked, diamond and
signed families are counted by DPs over (previous part, marked sum).
Counting uses interlacing bounds only, never the solver's corner moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from itertools import repeat
from operator import mul
from typing import Iterator, Optional, Sequence

from .series import TruncatedSeries, Window, _doublings, _from_rows, _guard, _times_binomials, _unpack, _wider

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
_CLOSED_KINDS = ("cylindric", "distinct")  # chains that close into a cycle


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


def _interlaces(lam: Sequence[int], mu: Sequence[int], strict: bool) -> bool:
    """lam_1 >= mu_1 >= lam_2 >= ..., with a gap of 1 on both sides of each
    positive mu_k when ``strict``."""
    la, mu = tuple(lam), tuple(mu)
    n = max(len(la), len(mu)) + 1
    la = la + (0,) * (n - len(la))
    mu = mu + (0,) * (n - len(mu))
    for k in range(n - 1):
        gap = 1 if strict and mu[k] > 0 else 0
        if not la[k] - gap >= mu[k] >= la[k + 1] + gap:
            return False
    return True


def is_above(lam: Sequence[int], mu: Sequence[int]) -> bool:
    """True when lam interlaces above mu: lam_1 >= mu_1 >= lam_2 >= ..."""
    return _interlaces(lam, mu, False)


def is_above_strict(lam: Sequence[int], mu: Sequence[int]) -> bool:
    """Strict interlacing: the inequalities of is_above are strict whenever
    both entries compared are positive."""
    return _interlaces(lam, mu, True)


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
    acc: list = []
    used = 0
    while True:
        # give every open coordinate its largest value
        while len(acc) < n:
            i = len(acc)
            c = his[i]
            if size_cap is not None:
                c = min(c, size_cap - used - sufmin[i + 1])
            if c < lows[i]:
                break
            acc.append(c)
            used += c
        else:
            yield _trim(acc)
        # then lower the deepest coordinate that can still go down
        while acc:
            c = acc.pop()
            used -= c
            if c > lows[len(acc)]:
                acc.append(c - 1)
                used += c - 1
                break
        else:
            return


def _nudge(parts, s: int) -> list:
    """Each positive part moved by ``s``, zeros kept: an edge of the box of
    rows interlacing with ``parts``, s = 0 for weak and +-1 for strict."""
    return [p + s if p > 0 else 0 for p in parts]


def _down_box(lam: Sequence[int], strict: bool) -> tuple:
    """(lows, his) of the rows interlacing below lam."""
    s, la = int(strict), tuple(lam)
    return (_nudge(la[1:] + (0,), s) if la else []), _nudge(la, -s)


def _up_box(lam: Sequence[int], strict: bool, part_cap: int) -> tuple:
    """(lows, his) of the rows interlacing above lam with parts <= part_cap."""
    s, la = int(strict), tuple(lam)
    return _nudge(la + (0,), s), [part_cap] + _nudge(la, -s)


def down_neighbors(
    lam: Sequence[int],
    size_cap: Optional[int] = None,
) -> Iterator[tuple]:
    """All mu with lam >= mu (and |mu| <= size_cap when given)."""
    return _box_walk(*_down_box(lam, False), size_cap)


def up_neighbors(
    lam: Sequence[int],
    part_cap: int,
    size_cap: Optional[int] = None,
) -> Iterator[tuple]:
    """All mu with mu >= lam, largest part <= part_cap (|mu| <= size_cap)."""
    return _box_walk(*_up_box(lam, False, part_cap), size_cap)


def down_neighbors_strict(
    lam: Sequence[int],
    size_cap: Optional[int] = None,
) -> Iterator[tuple]:
    """All mu strictly interlacing below lam (see is_above_strict)."""
    return _box_walk(*_down_box(lam, True), size_cap)


def up_neighbors_strict(
    lam: Sequence[int],
    part_cap: int,
    size_cap: Optional[int] = None,
) -> Iterator[tuple]:
    """All mu strictly interlacing above lam with parts <= part_cap."""
    return _box_walk(*_up_box(lam, True, part_cap), size_cap)


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

    budget = size_cap if size_cap is not None else (part_cap * rows_cap)
    first = part_cap if part_cap is not None else budget
    rows = rows_cap if rows_cap is not None else budget
    parts: list = []
    left = budget
    while True:
        yield tuple(parts)
        # extend by the largest part allowed ...
        nxt = min(parts[-1] if parts else first, left) if len(parts) < rows else 0
        if nxt > 0:
            parts.append(nxt)
            left -= nxt
            continue
        # ... or else lower the last part that is above 1
        while parts:
            p = parts.pop()
            left += p
            if p > 1:
                parts.append(p - 1)
                left -= p - 1
                break
        else:
            return


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
    if kind in _CLOSED_KINDS:
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


def _check_caps(aw: tuple, part_cap, rows_cap) -> None:
    for name, cap in (("max_part", part_cap), ("max_rows", rows_cap)):
        if cap is not None and (not isinstance(cap, int) or cap < 0):
            raise ValueError("%s must be a nonnegative integer or None (got %r)" % (name, cap))
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


def _walk(anchor, steps, aw, budget, part_cap, rows_cap, strict):
    """Chains listed from the diagonal at position ``anchor``.

    Each step (j, i, down) puts at position j every neighbor of the diagonal
    at position i, below it when ``down`` is set and above it otherwise.
    Yields (chain, scaled size); ``chain`` is one positional list,
    overwritten in place by the next step.
    """
    chain = [None] * len(aw)
    end = len(steps)

    def rec(k: int, used: int) -> Iterator[tuple]:
        if k == end:
            yield chain, used
            return
        j, i, down = steps[k]
        for mu in _neighbor_stream(down, strict, chain[i], aw[j], budget - used,
                                   part_cap, rows_cap):
            chain[j] = mu
            yield from rec(k + 1, used + aw[j] * sum(mu))

    w = aw[anchor]
    for lam in partitions_iter(budget // w if w > 0 else None, part_cap, rows_cap):
        used = w * sum(lam)
        if used <= budget:
            chain[anchor] = lam
            yield from rec(0, used)


def _closed_steps(delta, r: int) -> list:
    """Steps around a closed chain from position r to the h-1 positions
    after it; the link from position i to i+1 goes down when delta[i] = -1."""
    h = len(delta)
    return [((r + k + 1) % h, (r + k) % h, delta[(r + k) % h] == -1)
            for k in range(h - 1)]


def _open_steps(delta, t: int) -> list:
    """Steps of an open chain from position t right to its end h, then left
    to 0; read backwards, link j-1 -> j goes down when delta[j-1] = +1."""
    return ([(j + 1, j, delta[j] == -1) for j in range(t, len(delta))]
            + [(j - 1, j, delta[j - 1] == 1) for j in range(t, 0, -1)])


def _closed_chains(delta, aw, budget, part_cap, rows_cap, strict):
    """Closed chains (cylindric wrap), anchored at the heaviest weight a_r:
    yields (diagonals lam^0..lam^(h-1), scaled size)."""
    h = len(delta)
    r = max(range(h), key=aw.__getitem__)
    c = (r - 1) % h  # the closing link runs from lam^c to lam^r
    above = is_above_strict if strict else is_above
    for chain, used in _walk(r, _closed_steps(delta, r), aw, budget,
                             part_cap, rows_cap, strict):
        if above(chain[c], chain[r]) if delta[c] == -1 else above(chain[r], chain[c]):
            yield tuple(chain), used


def _open_chains(delta, aw, budget, part_cap, rows_cap):
    """Open chains, anchored at the heaviest weight a_t: yields (diagonals
    lam^0..lam^h, scaled size)."""
    t = max(range(len(aw)), key=aw.__getitem__)
    for chain, used in _walk(t, _open_steps(delta, t), aw, budget,
                             part_cap, rows_cap, False):
        yield tuple(chain), used


# ---------------------------------------------------------------------------
# chain counting: one row at a time
# ---------------------------------------------------------------------------


def _list_rows(links, aw, closed, strict, top, budget):
    """The nonzero rows v <= ``top`` of weight at most ``budget``, in
    increasing lexicographic order, as ``(wts, zs, which), bounds, own, runs``:
    row i weighs wts[i], has largest entry zs[i] and puts the bound
    b(v) = bounds[which[i]] on the next row.  Bounds are numbered as rows
    first meet them; ``own`` holds those first met by the bound itself.

    Every constraint on a row's last entry is a bound (the link to the entry
    before it, the wrap to entry 0, the weight and the cap), so the rows
    that share the prefix v[:-1] are consecutive, and so are their last
    entries: one run (start, first last entry, length).  ``runs`` is the
    prefixes as a tree of (entry, subtree) pairs in increasing entry order,
    with runs at the leaves; for width 1 it is the one run.  Along a run,
    b(v) stops moving past ``settle`` and is found once from there on.
    """
    n, last = len(aw), len(aw) - 1
    wrap_hi = links[-1][0]  # checked on full rows when the chain is closed
    # b(v) applies the links within the prefix (``fixed``), lowers v[last]
    # to the entries in ``ups`` and lowers the entries in ``downs`` to v[last]
    fixed = [(h, l) for h, l in links if last not in (h, l)]
    ups = [l for h, l in links if h == last != l]
    downs = [h for h, l in links if l == last != h]
    wts, zs, which, bounds, ids, own, row = [], [], [], [], {}, set(), [0] * n

    def place(k: int, used: int, peak: int):
        lo, hi = 0, top[k]
        if k:
            p = row[k - 1]
            if links[k - 1][0] == k - 1:  # row[k] <= p
                if strict and p:
                    p -= 1
                if p < hi:
                    hi = p
            else:                         # row[k] >= p
                lo = p + 1 if strict and p else p
        w = aw[k]
        if w and (budget - used) // w < hi:
            hi = (budget - used) // w
        if k < last:
            tree = []
            for c in range(lo, hi + 1):
                row[k] = c
                sub = place(k + 1, used + w * c, c if c > peak else peak)
                if sub:
                    tree.append((c, sub))
            return tree
        if closed:
            p = row[0]
            if n == 1:
                if strict:
                    hi = 0
            elif wrap_hi == k:            # row[k] >= row[0]
                lo = max(lo, p + 1 if strict and p else p)
            else:                         # row[k] <= row[0]
                hi = min(hi, p - 1 if strict and p else p)
        if not (lo or peak):
            lo = 1  # the zero row, which is not listed
        if lo > hi:
            return None
        base, cap = row[:k], hi
        for h, l in fixed:
            p = row[l] - 1 if strict and row[l] else row[l]
            if p < base[h]:
                base[h] = p
        for l in ups:
            p = row[l] - 1 if strict and row[l] else row[l]
            if p < cap:
                cap = p
        settle = cap  # past it, b(v) no longer moves with v[last]
        for h in downs:
            if base[h] + strict > settle:
                settle = base[h] + strict
        start, end = len(which), min(hi, max(lo, settle))
        for c in range(lo, end + 1):
            b = base[:]
            a = c - 1 if strict and c else c
            for h in downs:
                if a < b[h]:
                    b[h] = a
            b.append(c if c < cap else cap)
            b = tuple(b)
            at = ids.get(b)
            if at is None:
                at = ids[b] = len(bounds)
                bounds.append(b)
                if b == (*row[:k], c):
                    own.add(at)
            which.append(at)
        if end < hi:
            which.extend(repeat(at, hi - end))
        wts.extend(range(used + w * lo, used + w * hi + 1, w) if w else repeat(used, hi - lo + 1))
        if peak < lo:  # max(v) = max(peak, c)
            zs.extend(range(lo, hi + 1))
        else:
            zs.extend(repeat(peak, min(peak, hi) - lo + 1))
            zs.extend(range(peak + 1, hi + 1))
        return (start, lo, hi - lo + 1)

    runs = place(0, 0, 0)
    del place  # it holds itself, and so the lists, until a full collection
    return (wts, zs, which), bounds, own, runs


def _ranges_under(tree, b, aw, cap, out, k=0):
    """``out`` with the index ranges of the listed rows u <= b whose prefix
    u[:-1] weighs at most ``cap`` appended as start, stop, start, stop, ...:
    one range per prefix run, and ranges that touch as one."""
    if len(b) == 1:  # width 1: the one run, as the run of an empty prefix
        tree, k = [(0, tree)], -1
    lim, w = b[k], aw[k]
    if k < len(b) - 2:
        for c, sub in tree:
            if c > lim or w * c > cap:
                break
            _ranges_under(sub, b, aw, cap - w * c, out, k + 1)
        return out
    for c, (start, lo, length) in tree:  # the runs of the prefixes
        if c > lim or w * c > cap:
            break
        m = b[-1] - lo + 1
        if m > 0:
            stop = start + (m if m < length else length)
            if out and out[-1] == start:
                out[-1] = stop
            else:
                out += (start, stop)
    return out


#: About how many slots of z-rows one ``_unpack`` decodes: a small count in
#: one call, a large one without offsets the size of the whole count.
_DECODED_SLOTS = 4096


def _count_rows(delta, aw, closed: bool, strict: bool, budget: int,
                part_cap, rows_cap) -> list:
    """Counts of chains, read row by row, as dense rows: entry k of row z
    counts the chains of largest part z and scaled size k <= ``budget``.

    Row i of a chain is v = (lam^0_i, lam^1_i, ...), one entry per weight.
    Link j joins entries j and j+1, and entries h-1 and 0 when the chain is
    closed.  With (hi, lo) its upper and lower entry, interlacing asks
    v[hi] >= v[lo] within a row and u[hi] <= v[lo] of the next row u, both
    strict under ``strict`` when the smaller side is positive.  So the rows
    allowed after v are the nonzero rows u <= b(v), the bound that lowers
    each v[hi] to v[lo], and the chains that go on after v are counted by
    S(b(v)) = 1 + sum of q^wt(u) S(b(u)) over those u (Stanley's transfer-
    matrix method, EC1 4.7), memoised on the bound, not on v.

    The sums are non-negative Kronecker packs in q (see ``series``), made in
    one pass over the rows in lexicographic order, where every u under b(v)
    comes before v.  The running sum C[i] of q^wt(u) S(b(u)) over the first
    i rows is cut to budget + 1 slots and kept only where some S(b) reads
    it: the rows under b that share a prefix are one run (:func:`_list_rows`),
    so S(b) is 1 plus one difference of C per run (Crow's summed-area tables,
    in one coordinate), read at the first row whose bound is b.  Only for a
    constant row is b(v) = v: v counts 0 in its own sum, which then takes
    the factor 1/(1 - q^wt(v)) by doublings (``series._times_binomials``).
    A binding ``rows_cap`` R is taken one level at a time: S_L(b), the
    chains of at most L more rows, is read the same way from the running
    sum of q^wt(u) S_(L-1)(b(u)), over R - 1 levels from S_0 = 1, each over
    the bounds that chains meet R - 1 - L rows down and the rows under
    them.  Slots start at 4 bytes;
    where one reaches its guard (``series._guard``) the count is done again
    in wider slots (``series._wider``), or in the slots the doublings widened
    to.  No call depth grows with the window or the cap.
    """
    n = len(aw)
    if rows_cap is not None and all(aw) and rows_cap >= budget // min(aw):
        rows_cap = None  # every nonzero row weighs at least min(aw)
    if rows_cap == 0:
        return [[1] + [0] * budget]
    links = [(j, (j + 1) % n) if x == -1 else ((j + 1) % n, j)
             for j, x in enumerate(delta)]
    top = [part_cap if part_cap is not None else budget // w for w in aw]
    (wts, zs, which), bounds, own, runs = _list_rows(links, aw, closed, strict, top, budget)
    weights = [sum(map(mul, aw, b)) for b in bounds]
    ranges = [_ranges_under(runs, b, aw, budget - wb, []) for b, wb in zip(bounds, weights)]
    levels = []  # under a cap, from the deepest: the bounds, their rows, C's reads
    if rows_cap is not None:
        spans = [list(zip(r[::2], r[1::2])) for r in ranges]
        below = [set().union(*(which[i:j] for i, j in s)) for s in spans]
        need, level = range(len(bounds)), None  # the bounds chains meet 0, 1, ... rows down
        for _ in range(rows_cap - 1):
            if level is None or need != level[0]:  # levels that repeat share their lists
                cover = set().union(*(range(i, j) for k in need for i, j in spans[k]))
                level = (need, sorted(cover), set().union(*(ranges[k] for k in need)))
            levels.insert(0, level)
            need = set().union(*(below[k] for k in need))

    def count(size):  # the z-rows as packs, or the slot size to count again in where a slot reaches its guard
        bits = 8 * size
        full, guard = (1 << bits * (budget + 1)) - 1, _guard(budget + 1, size, 0)
        acc = [1] + [0] * max(zs, default=0)

        def read(k, marks):  # 1 + the rows under bound k, cut to its slots
            r = ranges[k]
            s = 1 + sum(map(marks.__getitem__, r[1::2])) - sum(map(marks.__getitem__, r[::2]))
            return s & (1 << bits * (budget - weights[k] + 1)) - 1

        # a sum of two packs below their guards carries out of no slot
        if rows_cap is None:
            keep = set().union(*ranges)
            sums, marks, running = [], {0: 0}, 0
            for i, (wv, z, k) in enumerate(zip(wts, zs, which), 1):
                if k < len(sums):
                    s = sums[k]
                else:
                    if k in own:
                        marks[i] = running  # v counts 0 in its own sum
                    s = read(k, marks)
                    # s - 1 sums rows the running sum holds, and that passed
                    # its guard: only the 1 in slot 0 can reach the guard
                    # here, where weight-0 rows took slot 0 to one below it
                    if s & guard:
                        return _wider(size)
                    if k in own:
                        slots = budget - wv + 1
                        (s,), wider = _times_binomials([(s, _doublings(wv, slots))], size, slots, 0)
                        if wider != size:
                            return wider
                    sums.append(s)
                g = (s << bits * wv) & full
                running += g
                if running & guard:
                    return _wider(size)
                if i in keep:
                    marks[i] = running
                acc[z] += g
            return acc
        sums = [1] * len(bounds)
        for need, cover, keep in levels:
            marks, running = {}, 0
            for u in cover:
                if u in keep:
                    marks[u] = running
                running += (sums[which[u]] << bits * wts[u]) & full
                if running & guard:
                    return _wider(size)
                if u + 1 in keep:
                    marks[u + 1] = running
            for k in need:
                sums[k] = read(k, marks)
                if sums[k] & guard:  # bounded as the uncapped read is
                    return _wider(size)
        for wv, z, k in zip(wts, zs, which):  # also rows no level adds, one level deeper
            acc[z] += (sums[k] << bits * wv) & full
            if acc[z] & guard:
                return _wider(size)
        return acc

    size = 4
    while isinstance(acc := count(size), int):
        size = acc
    stride, rows = budget + 1, []
    per = -(-_DECODED_SLOTS // stride)
    for z in range(0, len(acc), per):
        block = acc[z:z + per]
        digits = _unpack(int.from_bytes(b"".join(a.to_bytes(stride * size, "little") for a in block),
                                        "little"), size, len(block) * stride)
        rows += [digits[p:p + stride] for p in range(0, len(digits), stride)]
    return rows


# ---------------------------------------------------------------------------
# objects and generating functions
# ---------------------------------------------------------------------------


def _resolve(kind, delta, weights):
    kind = str(kind)
    if kind not in KINDS:
        raise ValueError("unknown kind %r; expected one of %s" % (kind, ", ".join(KINDS)))
    d = _check_profile(delta)
    h = len(d)
    if kind == "symmetric":
        if weights is not None:
            raise ValueError(
                "symmetric objects take no weights: they always use the standard "
                "size of the doubled cylinder"
            )
        w = tuple(Fraction(x) for x in scp_weights(h))
    else:
        n = h if kind in _CLOSED_KINDS else h + 1
        w = _check_weights((1,) * n if weights is None else weights, n)
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
    _check_caps(aw, max_part, max_rows)

    out = []
    if kind in _CLOSED_KINDS:
        strict = kind == "distinct"
        for diags, used in _closed_chains(d, aw, budget, max_part, max_rows, strict):
            obj = GridPartition(kind, d, w, diags + (diags[0],))
            out.append((used, obj))
    elif kind == "skew-shifted":
        for diags, used in _open_chains(d, aw, budget, max_part, max_rows):
            out.append((used, GridPartition(kind, d, w, diags)))
    else:  # symmetric: enumerate half chains with weights (1,2,...,2,1)
        h = len(d)
        for half, used in _open_chains(d, aw, budget, max_part, max_rows):
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
    _check_caps(aw, part_cap, max_rows)

    closed = kind in _CLOSED_KINDS  # symmetric: its half chains
    rows = _count_rows(d, aw, closed, kind == "distinct", budget, part_cap, max_rows)
    return _from_rows(rows, window.q_truncation, window.z_truncation, scale)


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
    and also lam_1 when count_first is set.  Positions are 1-based.

    A DP over (position parity, previous part, marked sum): tails[c][b][m]
    counts the part sequences, the empty one included, that can follow a
    part b and add m to the marked sum, their first part sitting in a
    marked position when c = 1.  Each part is at most the one before it
    (below it when distinct), and marked and unmarked positions alternate.
    """
    if marking not in ("odd", "even"):
        raise ValueError("marking must be 'odd' or 'even'")
    odd = marking == "odd"
    drop = 1 if distinct else 0
    # reach[c][b][m]: sum over first parts p = 1..b of tails[1-c][p][m - c p]
    tails = [[[0] * n_cap for _ in range(z_cap + 1)] for _ in range(2)]
    reach = [[[0] * n_cap for _ in range(z_cap + 1)] for _ in range(2)]
    for m in range(n_cap):
        for b in range(z_cap + 1):
            # marked first (it looks back to smaller sums), then unmarked
            # (it reads the marked entry at the same sum)
            for c in (1, 0):
                if b:
                    before = m - c * b
                    reach[c][b][m] = reach[c][b - 1][m] + (
                        tails[1 - c][b][before] if before >= 0 else 0)
                tails[c][b][m] = (m == 0) + (reach[c][b - drop][m] if b >= drop else 0)
    counts: dict = {(0, 0): 1}
    second = 0 if odd else 1  # is position 2 marked
    for first in range(1, z_cap + 1):
        marked0 = first if odd or count_first else 0
        for m in range(n_cap - marked0):
            if tails[second][first][m]:
                counts[(first, marked0 + m)] = tails[second][first][m]
    return counts


def _diamond_counts(n_cap: int, z_cap: int) -> dict:
    """Counts {(first entry, anchor sum): #diamond chains} with anchor sum
    below n_cap and first entry at most z_cap.

    A DP over (anchor, marked sum): tails[a][m] counts the continuations,
    the empty one included, after an anchor a that add m to the anchor sum.
    A continuation is an ordered pair (x, y) of entries at most a, not both
    0, after which the chain stops or goes on from a next anchor
    1 <= k <= min(x, y); (a - k + 1)^2 pairs admit the anchor k.
    """
    tails = [[0] * n_cap for _ in range(z_cap + 1)]
    for m in range(n_cap):
        for a in range(1, z_cap + 1):
            total = (a + 1) ** 2 if m == 0 else 0
            for k in range(1, min(a, m) + 1):
                total += (a - k + 1) ** 2 * tails[k][m - k]
            tails[a][m] = total
    counts: dict = {(0, 0): 1}
    for first in range(1, min(z_cap, n_cap - 1) + 1):
        for m in range(n_cap - first):
            if tails[first][m]:
                counts[(first, first + m)] = tails[first][m]
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
    if min_part < 1:
        raise ValueError("min_part must be at least 1 (parts are positive)")
    counts: dict = {(0, 0): 1}

    def rec(prev: int, size: int, first: int, rows: int) -> None:
        counts[(first + rows - 1, size)] = counts.get((first + rows - 1, size), 0) + 1
        for p in range(min(prev, max_size - size), min_part - 1, -1):
            rec(p, size + p, first, rows + 1)

    for first in range(min_part, max_size + 1):
        rec(first, first, first, 1)
    return counts


def signed_distinct_genfun(window: Window) -> TruncatedSeries:
    """sum over distinct-part partitions of (-1)^(#odd parts) q^size.

    A DP over (largest part allowed, size): after the pass for part p,
    signed[s] sums the partitions of s into distinct parts <= p.
    """
    if window.q_truncation is None:
        raise ValueError("needs a finite q_truncation")
    n_cap = window.q_truncation
    signed = [1] + [0] * (n_cap - 1)
    for p in range(1, n_cap):
        sign = -1 if p % 2 else 1
        for size in range(n_cap - 1, p - 1, -1):
            signed[size] += sign * signed[size - p]
    coeffs = {(0, size * window.q_scale): c for size, c in enumerate(signed) if c}
    return TruncatedSeries(coeffs, n_cap, window.z_truncation, window.q_scale)
