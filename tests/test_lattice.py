"""Tests for lattice objects, interlacing, and enumeration."""

import gc
import itertools
import linecache
import sys
from collections import Counter
from fractions import Fraction as Fr
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from cylq import lattice
from cylq.lattice import (
    KINDS,
    Diamond,
    GridPartition,
    count_distinct_by_marked_sum,
    count_partitions_by_hook,
    down_neighbors,
    down_neighbors_strict,
    enumerate_objects,
    full_profile,
    genfun_by_enumeration,
    _count_rows,
    _diamond_counts,
    _marked_partitions_counts,
    _resolve,
    _scaled_weights,
    is_above,
    is_above_strict,
    partitions_iter,
    schmidt_genfun,
    scp_weights,
    signed_distinct_genfun,
    standard_weights,
    up_neighbors,
    up_neighbors_strict,
)
from cylq.series import (
    TruncatedSeries, Window, _widen, _wider, inv_poch_finite, make_series, poch_infinite, qf, zf,
)


def collapse(s: TruncatedSeries) -> TruncatedSeries:
    agg = {}
    for (_, qn), c in s.coeffs.items():
        agg[(0, qn)] = agg.get((0, qn), 0) + c
    return TruncatedSeries(agg, s.q_truncation, None, s.q_scale)


# ---------------------------------------------------------------------------
# interlacing and neighbor generation
# ---------------------------------------------------------------------------


def test_interlacing_examples():
    assert is_above((3, 1), (2,))
    assert is_above((3, 1), (3, 1))
    assert not is_above((1, 1), ())       # second row exceeds the gap
    assert not is_above((2,), (3,))
    assert is_above((5, 2), (4,))
    assert not is_above((5, 2), (1,))     # 2 > 1 violates lam_2 <= mu_1


def test_strict_interlacing_examples():
    assert is_above_strict((3, 1), (2,))
    assert not is_above_strict((3, 1), (3,))   # equal positives not allowed
    assert not is_above_strict((3, 1), (1,))   # lam_2 = mu_1 = 1 collides
    assert is_above_strict((3,), ())
    assert is_above_strict((), ())
    assert not is_above_strict((2, 1), (2, 1))


def test_neighbors_match_brute_force():
    # up-neighbors of lam with parts <= 7 have size <= 7 + |lam| <= 15
    pool = list(partitions_iter(size_cap=15))
    for lam in list(partitions_iter(size_cap=6)) + [(4, 2, 1), (3, 3, 2)]:
        below = [mu for mu in pool if is_above(lam, mu)]
        above = [mu for mu in pool if is_above(mu, lam)]
        below_strict = [mu for mu in pool if is_above_strict(lam, mu)]
        above_strict = [mu for mu in pool if is_above_strict(mu, lam)]
        for size_cap in (None, 0, 2, 5, 9):
            def fits(mu, part_cap=None):
                return (size_cap is None or sum(mu) <= size_cap) and (
                    part_cap is None or not mu or mu[0] <= part_cap
                )

            assert sorted(down_neighbors(lam, size_cap)) == sorted(
                mu for mu in below if fits(mu)
            )
            assert sorted(down_neighbors_strict(lam, size_cap)) == sorted(
                mu for mu in below_strict if fits(mu)
            )
            for part_cap in (0, 1, 3, 6, 7):
                assert sorted(up_neighbors(lam, part_cap, size_cap)) == sorted(
                    mu for mu in above if fits(mu, part_cap)
                )
                assert sorted(up_neighbors_strict(lam, part_cap, size_cap)) == sorted(
                    mu for mu in above_strict if fits(mu, part_cap)
                )


def test_neighbor_caps_are_pure_filters():
    for lam in [(4, 2, 1), (3, 3)]:
        assert sorted(down_neighbors(lam, size_cap=4)) == sorted(
            m for m in down_neighbors(lam) if sum(m) <= 4
        )
        assert sorted(up_neighbors(lam, part_cap=5, size_cap=6)) == sorted(
            m for m in up_neighbors(lam, part_cap=5) if sum(m) <= 6
        )


def test_partitions_iter_counts():
    # p(0..6) cumulative: partitions with size <= 6
    assert len(list(partitions_iter(size_cap=6))) == 1 + 1 + 2 + 3 + 5 + 7 + 11
    assert len(list(partitions_iter(size_cap=4, part_cap=2))) == 9
    with pytest.raises(ValueError, match="unbounded"):
        list(partitions_iter())


# ---------------------------------------------------------------------------
# object records
# ---------------------------------------------------------------------------


def test_cylindric_witness_width8():
    # an explicit width-8 object: profile, diagonals, size 38, largest part 5
    delta = (-1, 1, -1, 1, 1, -1, 1, -1)
    diags = ((3, 1), (2,), (5, 1), (2,), (4, 2), (4, 3), (4,), (5, 2), (3, 1))
    obj = GridPartition("cylindric", delta, standard_weights("cylindric", 8), diags)
    obj.validate()
    assert obj.weighted_size() == 38
    assert obj.max_part() == 5


def test_weighted_half_chain_witness():
    # weights (1,2,2,1) on a width-3 open chain: weighted size 33
    delta = (-1, -1, 1)
    diags = ((5, 2, 1), (5, 2), (3,), (4, 1))
    obj = GridPartition(
        "skew-shifted", delta, tuple(map(Fr, scp_weights(3))), diags
    )
    obj.validate()
    assert obj.weighted_size() == 33
    assert obj.max_part() == 5


def test_open_chain_witness_width6():
    delta = (-1, -1, 1, -1, -1, 1)
    diags = ((6, 4, 2), (5, 3, 1), (5, 1), (7, 3), (6, 2), (4, 1), (7, 4))
    obj = GridPartition(
        "skew-shifted", delta, standard_weights("skew-shifted", 6), diags
    )
    obj.validate()
    assert obj.weighted_size() == 61
    assert obj.max_part() == 7


def test_validate_rejects_bad_objects():
    with pytest.raises(ValueError):  # broken wrap
        GridPartition("cylindric", (1, -1), (Fr(1), Fr(1)),
                      ((1,), (2,), (2,))).validate()
    with pytest.raises(ValueError):  # wrong direction
        GridPartition("cylindric", (-1, 1), (Fr(1), Fr(1)),
                      ((1,), (3,), (1,))).validate()
    with pytest.raises(ValueError):  # weight count
        GridPartition("skew-shifted", (1,), (Fr(1),), ((1,), (1,))).validate()
    with pytest.raises(ValueError):  # non-strict chain for distinct kind
        GridPartition("distinct", (1, -1), (Fr(1), Fr(1)),
                      ((1,), (1,), (1,))).validate()


def test_json_roundtrip():
    obj = GridPartition(
        "skew-shifted", (-1, -1, 1), tuple(map(Fr, (1, 2, 2, 1))),
        ((5, 2, 1), (5, 2), (3,), (4, 1)),
    )
    assert GridPartition.from_json(obj.to_json()) == obj


def test_diamond_validate():
    Diamond((3, 2, 3, 1, 1, 1, 1)).validate()
    assert Diamond((3, 2, 3, 1, 1, 1, 1)).marked_sum() == 5
    assert Diamond((3, 2, 3, 1)).marked_sum() == 4
    assert Diamond(()).marked_sum() == 0
    with pytest.raises(ValueError):
        Diamond((1, 2)).validate()       # 2 > 1 above the anchor
    with pytest.raises(ValueError):
        Diamond((2, 1, 0, 1)).validate() # next anchor exceeds a middle 0
    with pytest.raises(ValueError):
        Diamond((1, 0)).validate()       # trailing zero


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_width1_is_partitions():
    w = Window(14)
    target = poch_infinite(qf(1, 1), w).invert()
    for delta in [(1,), (-1,)]:
        g = collapse(genfun_by_enumeration("cylindric", delta, window=w))
        assert g.agrees_with(target)


def test_constant_profile_width2():
    # both links point the same way, so the two diagonals coincide and the
    # size doubles: sum q^(2|lam|) = 1/(q^2;q^2)
    w = Window(13)
    g = collapse(genfun_by_enumeration("cylindric", (1, 1), window=w))
    assert g.agrees_with(poch_infinite(qf(2, 2), w).invert())


def test_zero_weight_needs_part_cap():
    with pytest.raises(ValueError, match="unbounded"):
        genfun_by_enumeration("cylindric", (-1, 1), (0, 1), window=Window(6))
    with pytest.raises(ValueError, match="unbounded"):
        enumerate_objects("cylindric", (-1, 1), (0, 1), max_weighted_size=4)
    # fine once the z-window caps parts
    genfun_by_enumeration("cylindric", (-1, 1), (0, 1), window=Window(6, 6))


@pytest.mark.parametrize("caps", [{"max_rows": -1}, {"max_rows": 1.5},
                                  {"max_part": -1}, {"max_part": 1.5}])
def test_caps_must_be_nonnegative_integers(caps):
    with pytest.raises(ValueError, match="nonnegative integer"):
        enumerate_objects("cylindric", (1,), max_weighted_size=6, **caps)
    if "max_rows" in caps:  # the part cap of a count is its z-window
        with pytest.raises(ValueError, match="nonnegative integer"):
            genfun_by_enumeration("cylindric", (1,), window=Window(6), **caps)


def _under_a_low_recursion_limit(call):
    """call() with room for only 40 more nested calls."""
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        return call()
    finally:
        sys.setrecursionlimit(limit)


def test_binding_cap_deeper_than_the_recursion_limit_counts():
    # a binding cap is counted one level at a time, not one call per row
    capped = _under_a_low_recursion_limit(
        lambda: genfun_by_enumeration("cylindric", (1,), window=Window(80), max_rows=70))
    assert capped.collapse_z() == inv_poch_finite(qf(1, 1), 70, Window(80))
    # a cap that does not bind is dropped
    capped = genfun_by_enumeration("cylindric", (1,), window=Window(30), max_rows=5000)
    assert capped.agrees_with(genfun_by_enumeration("cylindric", (1,), window=Window(30)))


@pytest.mark.parametrize("kind, delta, q", [
    ("cylindric", (1,), 40), ("cylindric", (1, -1, 1), 40), ("distinct", (1, -1, 1, -1), 40),
    ("symmetric", (1, -1), 40), ("skew-shifted", (1,), 40),
])
def test_binding_cap_counts_under_a_low_recursion_limit(kind, delta, q):
    count = lambda: genfun_by_enumeration(kind, delta, window=Window(q), max_rows=q - 4)
    assert _under_a_low_recursion_limit(count) == count()


def test_enumeration_matches_rotated_profile():
    # rotating profile and weights together leaves the series unchanged
    w = Window(10, 10)
    a = genfun_by_enumeration("cylindric", (-1, 1, 1), (2, 1, 0), window=w)
    b = genfun_by_enumeration("cylindric", (1, 1, -1), (1, 0, 2), window=w)
    assert a.agrees_with(b)


def test_objects_sorted_valid_distinct():
    objs = enumerate_objects(
        "skew-shifted", (1, -1), (0, 1, 0), max_weighted_size=4, max_part=5
    )
    assert len(objs) == len(set(objs))
    keys = [(o.weighted_size(), o.max_part(), o.diagonals) for o in objs]
    assert keys == sorted(keys)
    for o in objs:
        o.validate()
        assert o.weighted_size() <= 4
        assert o.max_part() <= 5


def test_object_counts_match_genfun():
    w = Window(7, 7)
    g = genfun_by_enumeration("skew-shifted", (-1, 1), (1, 2, 1), window=w)
    objs = enumerate_objects(
        "skew-shifted", (-1, 1), (1, 2, 1), max_weighted_size=6, max_part=7
    )
    from collections import Counter

    cnt = Counter((o.max_part(), int(o.weighted_size())) for o in objs)
    for (z, n), c in cnt.items():
        assert g.coefficient(z, n) == c
    total = sum(
        c for (z, qn), c in g.coeffs.items() if qn <= 6
    )
    assert total == len(objs)


def test_symmetric_equals_filtered_cylindric():
    half = (-1, 1)
    w = Window(9, 9)
    gs = genfun_by_enumeration("symmetric", half, window=w)
    fullp = full_profile(half)
    assert fullp == (-1, 1, -1, 1)
    objs = enumerate_objects("cylindric", fullp, max_weighted_size=8, max_part=9)
    from collections import Counter

    h2 = len(fullp)
    cnt = Counter()
    for o in objs:
        ts = o.diagonals[:-1]
        if all(ts[j] == ts[(h2 - j) % h2] for j in range(h2)):
            cnt[(o.max_part(), int(o.weighted_size()))] += 1
    gb = TruncatedSeries(dict(cnt), 9, 9, 1)
    assert gs.agrees_with(gb)


def test_symmetric_objects_are_symmetric_cylindric():
    objs = enumerate_objects("symmetric", (-1, 1), max_weighted_size=6, max_part=6)
    for o in objs:
        o.validate()
    assert any(o.diagonals != ((),) * 5 for o in objs)


def test_symmetric_rejects_weights():
    with pytest.raises(ValueError):
        enumerate_objects("symmetric", (1,), (1, 1), max_weighted_size=3)


def test_distinct_kind_strictness():
    # width-2 distinct objects with weights (0,1): pairs nu >=' mu
    objs = enumerate_objects(
        "distinct", (1, -1), (0, 1), max_weighted_size=3, max_part=4
    )
    for o in objs:
        o.validate()
    # the nu-diagonal carries the weight; mu strictly interlaces below
    sizes = sorted(int(o.weighted_size()) for o in objs)
    # nu = (): 1 object; (1): mu in {(),}: wait mu strictly below (1) is ()
    # plus (1) itself? strictness forbids mu=(1). count by hand:
    # nu=(): 1; nu=(1): mu=(); nu=(2): mu=(),(1); nu=(3): mu=(),(1),(2);
    # nu=(2,1): mu=(1)?? strict: 2>1>1 fails; mu=(2)? 2=2 fails; mu=()?
    # rows: nu_2=1 > mu_1=0 fails; so none; nu=(3,1): none within budget
    assert sizes == [0, 1, 2, 2, 3, 3, 3]


def test_rational_weights_grid():
    w = Window(4, None, 2)
    g = genfun_by_enumeration("cylindric", (-1,), (Fr(1, 2),), window=w)
    # partitions weighted by half their size: p(n) at q^(n/2)
    assert g.q_scale == 2
    target = poch_infinite(qf(1, 1), Window(8)).invert()
    gz = collapse(g)
    for m in range(8):
        assert gz.coefficient(0, Fr(m, 2)) == target.coefficient(0, m)


# ---------------------------------------------------------------------------
# marked families
# ---------------------------------------------------------------------------


def test_unrestricted_odd_marking():
    w = Window(10, 10)
    g = schmidt_genfun("unrestricted", w, "odd")
    p = poch_infinite(zf(1, 1, 1), w).invert()
    assert g.agrees_with(p * p)


def test_unrestricted_even_marking():
    w = Window(10, 10)
    g = schmidt_genfun("unrestricted", w, "even")
    p = poch_infinite(zf(1, 1, 1), w).invert()
    geom = make_series([(0, 0, 1), (1, 0, -1)], w).invert()
    assert g.agrees_with(geom * p * p)


def test_diamond_marginal_value():
    w = Window(9, 9)
    g = collapse(schmidt_genfun("diamond", w))
    assert g.coefficient(0, 2) == 13
    with pytest.raises(ValueError):
        schmidt_genfun("diamond", w, "even")


def test_diamond_vs_product():
    w = Window(9, 9)
    g = schmidt_genfun("diamond", w)
    num = poch_infinite(zf(1, 1, 1, -1), w)
    den = poch_infinite(zf(1, 1, 1), w).invert()
    assert g.agrees_with(num * den * den * den)


def test_distinct_cylindric_equals_marked_distinct():
    w = Window(10, 10)
    assert genfun_by_enumeration("distinct", (1, -1), (0, 1), window=w).agrees_with(
        schmidt_genfun("distinct", w, "odd")
    )


def test_signed_distinct():
    w = Window(18)
    got = signed_distinct_genfun(w)
    target = poch_infinite(qf(1, 2), w) * poch_infinite(qf(2, 2, -1), w)
    assert got.agrees_with(target)


def test_hook_tables():
    dt = count_distinct_by_marked_sum(10, "odd")
    ht = count_partitions_by_hook(10)
    for n in range(11):
        for m in range(12):
            assert dt.get((m, n), 0) == ht.get((m, n), 0)
    # shifted correspondence holds away from the empty corner
    dt2 = count_distinct_by_marked_sum(10, "even", include_largest=True)
    ht2 = count_partitions_by_hook(11, min_part=2)
    for n in range(1, 11):
        for m in range(12):
            assert dt2.get((m, n), 0) == ht2.get((m + 1, n + 1), 0)
    with pytest.raises(ValueError):
        count_distinct_by_marked_sum(5, "even")
    for min_part in (0, -1):
        with pytest.raises(ValueError, match="min_part"):
            count_partitions_by_hook(3, min_part)


# ---------------------------------------------------------------------------
# counting against listing
# ---------------------------------------------------------------------------

PROFILES_UP_TO_4 = [d for h in range(1, 5) for d in itertools.product((-1, 1), repeat=h)]


def _listed(kind, delta, weights, window, max_rows) -> dict:
    """{(largest part, weighted size): n} of the listed objects in the window."""
    objs = enumerate_objects(kind, delta, weights, max_weighted_size=window.q_truncation,
                             max_part=window.z_truncation, max_rows=max_rows)
    return dict(Counter((o.max_part(), o.weighted_size()) for o in objs
                        if o.weighted_size() < window.q_truncation))


def _counted(kind, delta, weights, window, max_rows) -> dict:
    g = genfun_by_enumeration(kind, delta, weights, window=window, max_rows=max_rows)
    return {(z, e): c for z, e, c in g.items()}


def _weight_cases(kind, h):
    # deep enough for chains with several repeated rows, and at width 4 for
    # many rows sharing one bound
    deeper = [(None, Window(10))]
    if kind == "symmetric":
        return [(None, Window(6))] + deeper
    n = h if kind in ("cylindric", "distinct") else h + 1
    return [
        (None, Window(6)),
        ((0,) + (1,) * (n - 1), Window(5, 3)),  # a zero weight needs a z-window
        ((Fr(1, 2),) + (1,) * (n - 1), Window(4, None, 2)),
    ] + deeper


@pytest.mark.parametrize("kind", KINDS)
def test_counting_equals_listing_every_profile(kind):
    for delta in PROFILES_UP_TO_4:
        for weights, window in _weight_cases(kind, len(delta)):
            for max_rows in (None, 2):
                if weights and not any(weights) and max_rows is None:
                    continue  # unbounded: both sides refuse it
                args = (kind, delta, weights, window, max_rows)
                assert _counted(*args) == _listed(*args), args


@pytest.mark.parametrize("kind", ("cylindric", "distinct"))
def test_width_one_counting_equals_listing(kind):
    for delta in ((1,), (-1,)):
        for weights, window in ((None, Window(12)), (None, Window(12, 4)),
                                ((Fr(1, 2),), Window(6, None, 2)), ((Fr(1, 2),), Window(7, 3)),
                                ((0,), Window(5, 3))):
            for max_rows in (None, 1, 2):
                if weights == (0,) and max_rows is None:
                    continue  # unbounded: both sides refuse it
                args = (kind, delta, weights, window, max_rows)
                assert _counted(*args) == _listed(*args), args


@settings(max_examples=120)
@given(st.data())
def test_counting_equals_listing_random(data):
    kind = data.draw(st.sampled_from(KINDS))
    delta = tuple(data.draw(st.lists(st.sampled_from((-1, 1)), min_size=1, max_size=3)))
    n = len(delta) if kind in ("cylindric", "distinct") else len(delta) + 1
    weights = None
    if kind != "symmetric":
        weights = tuple(data.draw(st.lists(
            st.sampled_from((0, Fr(1, 2), 1, Fr(3, 2), 2)), min_size=n, max_size=n)))
    z_cap = data.draw(st.one_of(st.none(), st.integers(0, 4)))
    max_rows = data.draw(st.one_of(st.none(), st.integers(0, 3)))
    if weights and 0 in weights:
        z_cap = 3 if z_cap is None else z_cap
        if not any(weights) and max_rows is None:
            max_rows = 2
    window = Window(data.draw(st.integers(1, 5)), z_cap, data.draw(st.sampled_from((1, 2))))
    args = (kind, delta, weights, window, max_rows)
    assert _counted(*args) == _listed(*args)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("max_rows", (None, 3))
def test_counting_leaves_no_cyclic_garbage(kind, max_rows):
    # the counter's recursive closures must not keep its rows and memo alive
    gc.collect()
    gc.disable()
    try:
        genfun_by_enumeration(kind, (1, -1, 1), window=Window(12), max_rows=max_rows)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("kind, delta, weights, window, max_rows", [
    ("cylindric", (1, -1), (0, 1), Window(8, 3), None),  # a leading zero weight
    ("skew-shifted", (-1, 1), (0, 1, 1), Window(7, 2), 3),
    ("cylindric", (-1, 1, 1), (Fr(1, 2), 1, 1), Window(6, None, 2), None),
    ("skew-shifted", (1,), (Fr(1, 2), 1), Window(5, 1, 2), None),
    ("distinct", (1, -1, 1), None, Window(8), 0),
    ("symmetric", (1, -1), None, Window(9, 2), 0),
    ("symmetric", (-1, 1), None, Window(1), None),
    ("cylindric", (1, 1), None, Window(6, 0), None),
])
def test_counted_series_is_normalised(kind, delta, weights, window, max_rows):
    # no trailing zeros, no empty last row, nothing past the window
    g = genfun_by_enumeration(kind, delta, weights, window=window, max_rows=max_rows)
    want = TruncatedSeries(dict(g.coeffs), window.q_truncation, window.z_truncation,
                           window.q_scale)
    assert g._rows == want._rows
    assert (g.q_truncation, g.z_truncation, g.q_scale) == (
        window.q_truncation, window.z_truncation, window.q_scale)


def _count_rows_by_lists(delta, aw, closed, strict, budget, part_cap, rows_cap) -> list:
    """The list counter that the packed ``_count_rows`` replaced, kept as its
    oracle: for each memoised bound b it lists every row u <= b and adds
    q^wt(u) S(b(u)) into S(b) one coefficient list at a time; a binding
    ``rows_cap`` is taken one level of rows at a time."""
    n = len(aw)
    if rows_cap is not None and all(aw) and rows_cap >= budget // min(aw):
        rows_cap = None  # every nonzero row weighs at least min(aw)
    links = [(j, (j + 1) % n) if x == -1 else ((j + 1) % n, j)
             for j, x in enumerate(delta)]
    wrap_hi, wrap_lo = links[-1]  # checked on full rows when the chain is closed

    def rows(bound, cap) -> list:
        """The nonzero rows u <= bound with wt(u) <= cap, as (u, wt(u)),
        in increasing lexicographic order."""
        out = []
        row = [0] * n

        def place(k: int, used: int) -> None:
            lo, hi = 0, bound[k]
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
            if w and (cap - used) // w < hi:
                hi = (cap - used) // w
            if k + 1 < n:
                for c in range(lo, hi + 1):
                    row[k] = c
                    place(k + 1, used + w * c)
                return
            for c in range(lo, hi + 1):
                row[k] = c
                a, b = row[wrap_hi], row[wrap_lo]
                if not closed or a > b or (a == b and not (strict and b)):
                    out.append((tuple(row), used + w * c))

        place(0, 0)
        del place
        del out[0]  # the zero row, which always comes first
        return out

    acc = [[1] + [0] * budget]  # acc[z][k]: chains of largest part z, size k
    if rows_cap == 0:
        return acc
    listed = rows([part_cap if part_cap is not None else budget // w for w in aw], budget)
    bounds, sums, below = {}, {}, {}
    for v, _wv in listed:
        b = list(v)
        for hi, lo in links:
            b[hi] = min(b[hi], v[lo] - 1 if strict and v[lo] else v[lo])
        b = bounds[v] = tuple(b)
        if b in sums:
            continue
        wb = sum(w * c for w, c in zip(aw, b))
        s = sums[b] = [1] + [0] * (budget - wb)
        after = [(bounds[u], wu) for u, wu in rows(b, budget - wb)]
        if rows_cap is not None:
            below[b] = after
            continue
        repeats = after and after[-1][0] == b  # b(u) = b only for u = b
        for bu, wu in after[:-1] if repeats else after:
            s[wu:] = map(add, s[wu:], sums[bu])
        if repeats:
            for k in range(wb, len(s)):
                s[k] += s[k - wb]
    if rows_cap is not None:
        met, need = [], below.keys()
        for _ in range(rows_cap - 1):
            met.append(need)
            need = {bu for b in need for bu, _wu in below[b]}
        start = sums
        for need in reversed(met):  # S_L(b) from the S_(L-1) below it
            level = {}
            for b in need:
                s = level[b] = start[b][:]
                for bu, wu in below[b]:
                    s[wu:] = map(add, s[wu:], sums[bu])
            sums = level
    for v, wv in listed:
        z = max(v)
        while len(acc) <= z:
            acc.append([0] * (budget + 1))
        r = acc[z]
        r[wv:] = map(add, r[wv:], sums[bounds[v]])
    return acc


#: The largest window the differential test draws, by the number of entries
#: in a row: the list counter's time grows with that power of the window.
_ORACLE_Q = {1: 24, 2: 24, 3: 24, 4: 16, 5: 12}


@given(st.data())
def test_packed_counter_matches_the_list_counter(data):
    kind = data.draw(st.sampled_from(KINDS))
    delta = tuple(data.draw(st.lists(st.sampled_from((-1, 1)), min_size=1, max_size=4)))
    closed = kind in ("cylindric", "distinct")
    n = len(delta) if closed else len(delta) + 1
    weights = None
    if kind != "symmetric":
        weights = tuple(data.draw(st.lists(
            st.sampled_from((0, Fr(1, 2), 1, Fr(3, 2), 2)), min_size=n, max_size=n)))
    kind, d, w = _resolve(kind, delta, weights)
    z_cap = data.draw(st.one_of(st.none(), st.integers(0, 8)))
    if 0 in w and z_cap is None:
        z_cap = data.draw(st.integers(0, 8))
    q = data.draw(st.sampled_from(range(1, _ORACLE_Q[n] + 1)))  # evenly, not small first
    window = Window(q, z_cap, data.draw(st.sampled_from((1, 2))))
    aw, scale = _scaled_weights(w, window.q_scale)
    budget = window.q_truncation * scale - 1
    # None, binding, or so large that it cannot bind
    max_rows = data.draw(st.one_of(st.none(), st.sampled_from(range(6)), st.just(budget + 1)))
    if not any(aw) and max_rows is None:
        max_rows = data.draw(st.integers(0, 5))
    args = (d, aw, closed, kind == "distinct", budget, window.z_truncation, max_rows)
    assert _count_rows(*args) == _count_rows_by_lists(*args)


def _largest_part_rows(n_max):
    """rows[k][m]: the partitions of m with largest part k, the coefficients
    of q^k / (q;q)_k, from p_k(m) = p_(k-1)(m) + p_k(m - k), p_k counting the
    partitions into parts of at most k."""
    p = [1] + [0] * n_max
    rows = [p[:]]
    for k in range(1, n_max + 1):
        for m in range(k, n_max + 1):
            p[m] += p[m - k]
        rows.append([0] * k + p[:n_max + 1 - k])
    return rows


def _slot_sizes(monkeypatch) -> list:
    """The slot size of each count that ``_count_rows`` starts, in order, as
    it takes the guard of its slots."""
    sizes, real = [], lattice._guard

    def spy(slots, size, headroom):
        sizes.append(size)
        return real(slots, size, headroom)

    monkeypatch.setattr(lattice, "_guard", spy)
    return sizes


@pytest.mark.parametrize("z_cap, max_rows", ((None, None), (40, None), (None, 20)))
def test_packed_counter_widens_its_slots_and_counts_again(monkeypatch, z_cap, max_rows):
    # below q^400 the counts reach 2^58, and 2^53 for at most 20 parts: past
    # the 4- and 6-byte slots, each of which the count must leave for wider ones
    sizes = _slot_sizes(monkeypatch)
    g = genfun_by_enumeration("cylindric", (1,), window=Window(400, z_cap), max_rows=max_rows)
    assert sizes == [4, 6, 8]
    if max_rows is None:
        want = _largest_part_rows(399)[:None if z_cap is None else z_cap + 1]
        assert g == TruncatedSeries({(k, m): c for k, row in enumerate(want)
                                     for m, c in enumerate(row) if c}, 400, z_cap)
        assert max(g.coeffs.values()).bit_length() == 58
    else:  # by conjugation, chains of at most R rows are counted by 1/(q;q)_R
        assert g.collapse_z() == inv_poch_finite(qf(1, 1), max_rows, Window(400))
        assert max(g.collapse_z().coeffs.values()).bit_length() == 53


def test_packed_counter_widens_where_only_a_running_sum_fills_its_slots(monkeypatch):
    # below q^160 open width-1 chains number up to 2^33: every bound's sum
    # fits 4-byte slots, and only the running sums and z-rows outgrow them
    sizes = _slot_sizes(monkeypatch)
    args = ((1,), (1, 1), False, False, 159, None, None)
    assert _count_rows(*args) == _count_rows_by_lists(*args)
    assert sizes == [4, 6]


def test_packed_counter_counts_again_in_the_slots_a_doubling_widened(monkeypatch):
    # no count in reach trips the guard of a constant row's doublings alone,
    # so a stand-in widens the slots on its first call, as such a trip would
    sizes, real, calls = _slot_sizes(monkeypatch), lattice._times_binomials, []

    def widens_once(work, size, slots, headroom):
        calls.append(size)
        if len(calls) == 1:
            work, size = [(_widen(p, size, _wider(size), slots), e) for p, e in work], _wider(size)
        return real(work, size, slots, headroom)

    monkeypatch.setattr(lattice, "_times_binomials", widens_once)
    args = ((1, -1), (1, 1), True, False, 40, None, None)
    assert _count_rows(*args) == _count_rows_by_lists(*args)
    assert sizes == [4, 6] and calls[0] == 4 and len(calls) > 2 and set(calls[1:]) == {6}


def _guards_tripped(*args) -> tuple:
    """The rows ``_count_rows(*args)`` gives, and the guard test (the line
    before its ``return _wider(size)``) of each count it gave up on, in order."""
    tripped = []

    def on_return(frame, event, arg):
        if event == "return" and isinstance(arg, int):
            tripped.append(linecache.getline(frame.f_code.co_filename, frame.f_lineno - 1).strip())

    def on_call(frame, event, arg):
        if frame.f_code.co_name != "count":
            return None
        frame.f_trace_lines = False
        return on_return

    sys.settrace(on_call)
    try:
        rows = _count_rows(*args)
    finally:
        sys.settrace(None)
    return rows, tripped


def test_packed_counter_widens_where_only_a_capped_z_row_fills_its_slots(monkeypatch):
    # open chains (-1,1,1) with weights (0,1,0,0), parts at most 18 and at
    # most 5 rows: below q^18 a z-row reaches 2^31, while no level's running
    # sum or read passes 2^26, since the z-rows add rows no level adds
    sizes = _slot_sizes(monkeypatch)
    args = ((-1, 1, 1), (0, 1, 0, 0), False, False, 17, 18, 5)
    rows, tripped = _guards_tripped(*args)
    assert sizes == [4, 6] and tripped == ["if acc[z] & guard:"]
    assert max(c for row in rows for c in row).bit_length() == 32
    assert rows == _count_rows_by_lists(*args)


def _tuples_within(weights, budget, parts):
    """Every tuple of partitions from ``parts``, one per (positive) weight,
    with weighted size at most budget."""
    if not weights:
        yield ()
        return
    for lam in parts:
        used = weights[0] * sum(lam)
        if used <= budget:
            for rest in _tuples_within(weights[1:], budget - used, parts):
                yield (lam,) + rest


def _brute_force_objects(kind, delta, weights, budget, max_part, max_rows) -> set:
    """The objects within the budget and caps among all tuples of diagonals
    drawn from partitions_iter that GridPartition.validate accepts."""
    h = len(delta)
    if kind == "symmetric":  # the half chain lam^h..lam^2h, mirrored
        free_weights, full_delta = scp_weights(h), full_profile(delta)
        weights = (Fr(1),) * (2 * h)
    else:
        free_weights = weights = tuple(Fr(x) for x in weights)
        full_delta = delta
    k = int(budget / min(free_weights))
    parts = [lam for lam in partitions_iter(size_cap=k)
             if (max_part is None or not lam or lam[0] <= max_part)
             and (max_rows is None or len(lam) <= max_rows)]
    out = set()
    for free in _tuples_within(free_weights, budget, parts):
        if kind == "symmetric":
            diags = free[::-1] + free[1:]
        elif kind == "skew-shifted":
            diags = free
        else:
            diags = free + free[:1]
        obj = GridPartition(kind, full_delta, weights, diags)
        try:
            obj.validate()
        except ValueError:
            continue
        assert obj.weighted_size() <= budget
        out.add(obj)
    return out


def _heaviest_left_inside_right(n):
    return sorted({tuple(2 if j == at else 1 for j in range(n)) for at in (0, n // 2, n - 1)})


@pytest.mark.parametrize("kind", KINDS)
def test_walk_lists_every_object_of_the_brute_force(kind):
    # the walk is the oracle that counting is checked against, so only an
    # independent search can catch a walk that drops chains
    for h in range(1, 4):
        for delta in itertools.product((-1, 1), repeat=h):
            if kind == "symmetric":
                weight_cases = [None]
            else:
                n = h if kind in ("cylindric", "distinct") else h + 1
                weight_cases = [(1,) * n] + _heaviest_left_inside_right(n)
            for weights in weight_cases:
                for budget, max_part, max_rows in ((4, None, None), (5, 2, 2)):
                    objs = enumerate_objects(kind, delta, weights, max_weighted_size=budget,
                                             max_part=max_part, max_rows=max_rows)
                    assert len(set(objs)) == len(objs)
                    want = _brute_force_objects(kind, delta, weights, budget,
                                                max_part, max_rows)
                    assert set(objs) == want, (kind, delta, weights, budget)


MARKED_VARIANTS = [(distinct, marking, count_first) for distinct in (False, True)
                   for marking, count_first in (("odd", False), ("even", False), ("even", True))]


def _marked_by_listing(n_cap, z_cap) -> dict:
    """{variant: {(largest part, marked sum): n}} from partitions_iter.

    Every partition with marked sum below n_cap and parts <= z_cap has size
    below z_cap + 2 n_cap.
    """
    out = {v: Counter() for v in MARKED_VARIANTS}
    for lam in partitions_iter(size_cap=z_cap + 2 * n_cap, part_cap=z_cap):
        first = lam[0] if lam else 0
        odd, even = sum(lam[0::2]), sum(lam[1::2])
        for distinct, marking, count_first in MARKED_VARIANTS:
            if distinct and len(set(lam)) < len(lam):
                continue
            marked = odd if marking == "odd" else even + (first if count_first else 0)
            if marked < n_cap:
                out[(distinct, marking, count_first)][(first, marked)] += 1
    return out


def _diamonds_by_listing(n_cap, z_cap) -> dict:
    """{(first entry, anchor sum): n} over entry tuples checked by Diamond.validate."""
    out = Counter({(0, 0): 1})

    def grow(entries, marked):
        d = Diamond(entries)
        d.validate()
        out[(d.max_part(), marked)] += 1
        anchor = entries[-1] if len(entries) % 3 == 1 else None
        if anchor is None:
            return
        for x in range(anchor + 1):
            for y in range(anchor + 1):
                if (x, y) == (0, 0):
                    continue
                pair = entries + ((x,) if y == 0 else (x, y))
                grow(pair, marked)
                if y:
                    for a in range(1, min(x, y, n_cap - 1 - marked) + 1):
                        grow(entries + (x, y, a), marked + a)

    for first in range(1, min(z_cap, n_cap - 1) + 1):
        grow((first,), first)
    return dict(out)


def test_marked_dp_matches_listing():
    listed = _marked_by_listing(12, 12)
    for (distinct, marking, count_first), table in listed.items():
        for n_cap in range(1, 13):
            for z_cap in range(0, 13):
                got = _marked_partitions_counts(n_cap, z_cap, distinct, marking,
                                                count_first=count_first)
                assert got == {(z, m): c for (z, m), c in table.items()
                               if z <= z_cap and m < n_cap}, (marking, n_cap, z_cap)


def test_diamond_dp_matches_listing():
    for n_cap in range(1, 13):
        for z_cap in range(0, 6):
            assert _diamond_counts(n_cap, z_cap) == _diamonds_by_listing(n_cap, z_cap)


def _signed_distinct_by_recursion(n_cap: int) -> dict:
    """The recursive enumerator the DP replaced: {size: signed count}."""
    coeffs = {0: 1}

    def rec(prev, size, sign):
        for p in range(min(prev - 1, n_cap - 1 - size), 0, -1):
            s2 = -sign if p % 2 else sign
            coeffs[size + p] = coeffs.get(size + p, 0) + s2
            rec(p, size + p, s2)

    rec(n_cap + 1, 0, 1)
    return coeffs


def test_signed_distinct_dp_matches_recursion():
    oracle = _signed_distinct_by_recursion(60)
    for n_cap in range(1, 61):
        got = signed_distinct_genfun(Window(n_cap))
        assert {qn: c for (_, qn), c in got.coeffs.items()} == {
            size: c for size, c in oracle.items() if size < n_cap and c
        }


def test_long_parts_do_not_recurse():
    # one Python frame per part used to overflow the stack here
    g = schmidt_genfun("unrestricted", Window(600, 1), "even")
    want = {(0, 0): 1, (1, 0): 1}
    want.update({(1, m): 2 for m in range(1, 600)})
    assert g.coeffs == want
    g = genfun_by_enumeration("cylindric", (-1,), window=Window(1200, 1))
    want = {(0, 0): 1}
    want.update({(1, k): 1 for k in range(1, 1200)})
    assert g.coeffs == want
    assert list(down_neighbors((1,) * 1500)) == [(1,) * 1500, (1,) * 1499]
