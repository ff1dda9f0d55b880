"""Tests for exponent multisets and product expansion."""

import itertools
import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from cylq import products
from cylq.fitkit import _symbolic_prefix_sums
from cylq.lattice import full_profile, genfun_by_enumeration
from cylq.products import (
    ProductSpec,
    _balanced_mask,
    balance_census,
    cp_product,
    cp_product_spec,
    dspp_product,
    dspp_product_spec,
    is_balanced,
    nonsymmetric_mirror_series,
    prefix_sums,
    scp_product_spec,
    w1_w2_multisets,
    w3_entries,
    w3_multiset,
)
from cylq.series import TruncatedSeries, Window, one, poch_product, qf, theta_sum


def collapse(s: TruncatedSeries) -> TruncatedSeries:
    agg = {}
    for (_, qn), c in s.coeffs.items():
        agg[(0, qn)] = agg.get((0, qn), 0) + c
    return TruncatedSeries(agg, s.q_truncation, None, s.q_scale)


def test_prefix_sums():
    assert prefix_sums((1, 3, 1)) == (1, 4, 5)
    assert prefix_sums((Fr(1, 2), Fr(1, 2))) == (Fr(1, 2), 1)


def test_w3_standard_width3():
    W, M = w3_multiset((-1, -1, 1))
    assert M == 3
    assert W == (1, 2, 3)


def test_w3_structural_count():
    # one entry per unequal pair plus the total-weight entry
    for h in (2, 3, 4, 5):
        for d in itertools.product((-1, 1), repeat=h):
            W, _ = w3_multiset(d)
            unequal = sum(
                1
                for i in range(h)
                for j in range(i + 1, h)
                if d[i] != d[j]
            )
            assert len(W) == 1 + unequal


def test_orientation_decides_on_weighted_profiles():
    # four weighted profiles where only the direct orientation matches the
    # enumeration; the first disagreement sits at q^1 in every case
    cases = [
        ((-1, 1), (2, 1)),
        ((1, -1), (2, 1)),
        ((1, 1, -1), (1, 1, 2)),
        ((-1, -1, 1), (1, 1, 2)),
    ]
    for d, a in cases:
        enum = collapse(genfun_by_enumeration("cylindric", d, a, window=Window(7, 7)))
        assert enum.agrees_with(cp_product(d, a, Window(7)))
        diff = enum.first_difference(cp_product(d, a, Window(7), "reflected"))
        assert diff is not None and diff[1] == 1


def test_orientations_agree_on_standard_weights():
    # with all-ones weights the two conventions give the same multiset
    for h in (2, 3, 4):
        for d in itertools.product((-1, 1), repeat=h):
            assert w3_multiset(d)[0] == w3_multiset(d, None, "reflected")[0]


def test_closed_chain_products_small_widths():
    for h in (1, 2, 3):
        for d in itertools.product((-1, 1), repeat=h):
            enum = collapse(genfun_by_enumeration("cylindric", d, window=Window(9, 9)))
            assert enum.agrees_with(cp_product(d, None, Window(9))), d


def test_open_chain_products_small_widths():
    for h in (1, 2):
        for d in itertools.product((-1, 1), repeat=h):
            enum = collapse(
                genfun_by_enumeration("skew-shifted", d, window=Window(9, 9))
            )
            assert enum.agrees_with(dspp_product(d, None, Window(9))), d


def test_w1_width1():
    # width-1 open chain with weights (1,1): W1 = {1,2}, W2 empty,
    # so the product is 1/(q;q) - matching partitions directly
    (w1, m1), (w2, m2) = w1_w2_multisets((1,), (1, 1))
    assert (w1, m1) == ((1, 2), 2)
    assert w2 == ()
    enum = collapse(genfun_by_enumeration("skew-shifted", (1,), window=Window(12, 12)))
    assert enum.agrees_with(dspp_product((1,), None, Window(12)))


def test_w1_w2_zero_weight_example():
    (w1, m1), (w2, m2) = w1_w2_multisets((1, -1), (0, 1, 0))
    assert (w1, m1) == ((1, 1, 1), 1)
    assert (w2, m2) == ((1,), 2)
    enum = collapse(
        genfun_by_enumeration("skew-shifted", (1, -1), (0, 1, 0), window=Window(9, 9))
    )
    assert enum.agrees_with(dspp_product((1, -1), (0, 1, 0), Window(9)))


def test_rational_weight_embedding():
    # scaling the weights (1,1,3) by 1/2 lands the product on the q^(1/2)
    # grid and the enumeration follows it exactly
    a = (Fr(1, 2), Fr(1, 2), Fr(3, 2))
    W, M = w3_multiset((-1, -1, 1), a)
    assert W == (Fr(1, 2), 1, Fr(5, 2)) and M == Fr(5, 2)
    enum = genfun_by_enumeration("cylindric", (-1, -1, 1), a, window=Window(8, 16))
    prod = cp_product((-1, -1, 1), a, Window(8))
    assert prod.q_scale == 2
    assert collapse(enum).agrees_with(prod)


def test_integer_embedding_mod4():
    # weights (1,1,2) embed the mod-5 pattern {1,4,5} as {1,2,4} mod 4
    W, M = w3_multiset((-1, -1, 1), (1, 1, 2))
    assert W == (1, 2, 4) and M == 4
    enum = collapse(
        genfun_by_enumeration("cylindric", (-1, -1, 1), (1, 1, 2), window=Window(10, 10))
    )
    assert enum.agrees_with(
        poch_product([], [qf(1, 4), qf(2, 4), qf(4, 4)], Window(10))
    )


def test_theta_reciprocal_of_product():
    # theta(2,3) is exactly the reciprocal of the (2,1,2)-weighted product
    th = theta_sum(2, 3, Window(24))
    pr = cp_product((-1, -1, 1), (2, 1, 2), Window(24))
    assert (th * pr).agrees_with(one(Window(24)))


def test_product_spec_guards():
    with pytest.raises(ValueError, match="positive"):
        ProductSpec.make([], [(0, 4)])
    with pytest.raises(ValueError):
        ProductSpec.make([(1, 0)], [])
    with pytest.raises(ValueError):
        dspp_product_spec((1, 1), (0, 1, 0))  # A_1 = 0 enters W1


def test_product_spec_json():
    spec = cp_product_spec((-1, -1, 1), (Fr(1, 2), Fr(1, 2), Fr(3, 2)))
    assert ProductSpec.from_json(spec.to_json()) == spec
    spec2 = ProductSpec.make([(2, 5), (3, 5)], [(1, 1)])
    assert ProductSpec.from_json(spec2.to_json()) == spec2


def oracle_w3_entries(d, A, orientation="direct"):
    """The nested-loop W3 rule that ``w3_entries`` replaced, kept as its oracle."""
    h = len(d)
    total = A[h - 1]
    entries = [total]
    for i in range(1, h + 1):
        for j in range(i + 1, h + 1):
            if d[i - 1] == d[j - 1]:
                continue
            descent = d[i - 1] > d[j - 1]
            direct = A[j - 1] - A[i - 1]
            if orientation == "reflected":
                descent = not descent
            entries.append(direct if descent else total - direct)
    return entries


def oracle_is_balanced(delta, weights=None):
    """The balance check on the Fraction multiset that ``is_balanced``
    replaced, kept as its oracle."""
    A = prefix_sums(weights if weights is not None else (1,) * len(delta))
    pairs = oracle_w3_entries(tuple(delta), A)[1:]  # drop the total-weight entry
    return sorted(pairs) == sorted(A[-1] - e for e in pairs)


def test_w3_entries_match_nested_loop_oracle():
    rng = random.Random(14)
    for h in range(1, 9):
        weight_sets = [
            tuple(range(1, h + 1)),  # standard, as integers
            tuple(itertools.accumulate(rng.randint(1, 9) for _ in range(h))),
            prefix_sums([Fr(rng.randint(1, 9), rng.randint(1, 6)) for _ in range(h)]),
        ]
        if h <= 5:
            weight_sets.append(_symbolic_prefix_sums(h))  # fitkit's linear forms
        for A in weight_sets:
            for d in itertools.product((-1, 1), repeat=h):
                for orientation in ("direct", "reflected"):
                    got = w3_entries(d, A, orientation)
                    expected = oracle_w3_entries(d, A, orientation)
                    assert got == expected, (d, A, orientation)
                    assert [type(x) for x in got] == [type(x) for x in expected]


def test_w3_entries_input_checks():
    with pytest.raises(ValueError, match="orientation"):
        w3_entries((1, -1), (1, 2), "mirrored")
    with pytest.raises(ValueError, match="partial sums"):
        w3_entries((1, -1), (1, 2, 3))


def test_balance_standard_weights():
    census = balance_census(10)
    for h, (good, total) in census.items():
        assert good == total == 2 ** h
    oracle = {
        h: (sum(oracle_is_balanced(d) for d in itertools.product((-1, 1), repeat=h)), 2 ** h)
        for h in range(1, 11)
    }
    assert census == oracle


def test_balance_census_width_14():
    census = balance_census(14)
    assert list(census) == list(range(1, 15))
    assert all(good == total == 2 ** h for h, (good, total) in census.items())
    assert sum(good for good, _ in census.values()) == 32766


def test_balance_census_width_20():
    # 256 blocks at width 20: more than one per width past _BLOCK_BITS
    census = balance_census(20)
    assert census[20] == (1048576, 1048576)
    assert all(good == total == 2 ** h for h, (good, total) in census.items())
    assert sum(good for good, _ in census.values()) == 2097150


def oracle_mask(h, weights):
    """Bit b set where the profile whose entry i is +1 exactly at the set
    bits i of b is balanced under ``oracle_is_balanced``."""
    profiles = itertools.product((-1, 1), repeat=h)
    return sum(oracle_is_balanced(d[::-1], weights) << b for b, d in enumerate(profiles))


def blocks_mask(A, k):
    """The masks of every block of 2^k profiles over A, side by side."""
    return sum(_balanced_mask(A, k, high) << (high << k) for high in range(1 << len(A) - k))


def test_balanced_mask_matches_oracle_at_every_block_split():
    rng = random.Random(27)
    unbalanced = profiles = 0
    for h in range(1, 9):
        for _ in range(4):
            weights = [rng.randint(1, 9) for _ in range(h)]
            expected = oracle_mask(h, weights)
            A = tuple(itertools.accumulate(weights))
            for k in range(h + 1):
                assert blocks_mask(A, k) == expected, (weights, k)
            profiles += 1 << h
            unbalanced += (1 << h) - expected.bit_count()
    assert unbalanced > profiles * 9 // 10


@pytest.mark.parametrize("split", range(11))
def test_balance_census_at_every_block_split(monkeypatch, split):
    expected = {h: (2 ** h, 2 ** h) for h in range(1, 11)}
    monkeypatch.setattr(products, "_BLOCK_BITS", split)
    assert balance_census(10) == expected


@given(st.data())
def test_balanced_mask_matches_oracle_random(data):
    h = data.draw(st.integers(1, 8))
    weights = data.draw(st.lists(st.integers(0, 12), min_size=h, max_size=h))
    k = data.draw(st.integers(0, h))
    high = data.draw(st.integers(0, (1 << h - k) - 1))
    mask = _balanced_mask(tuple(itertools.accumulate(weights)), k, high)
    assert mask >> (1 << k) == 0
    for x in range(1 << k):
        bits = x | high << k
        d = tuple(1 if bits >> i & 1 else -1 for i in range(h))
        assert mask >> x & 1 == oracle_is_balanced(d, weights), (d, weights, k)


@pytest.mark.parametrize("max_width", [0, -1, True, False, 2.0, "3", None])
def test_balance_census_refuses_non_positive_int(max_width):
    with pytest.raises(ValueError, match="integer >= 1"):
        balance_census(max_width)


# weight vectors of width 8, cut to the profile's width: standard, equal,
# zeros, rational and irregular
FIXED_WEIGHTS = [
    None,
    (3,) * 8,
    (0,) * 8,
    (0,) + (1,) * 7,
    (1, 1, 1, 0, 1, 1, 1, 1),
    (Fr(1, 2),) * 8,
    (2, 1, 1, 2, 1, 1, 2, 1),
    (1, 2, 1, 2, 1, 2, 1, 2),
    (Fr(1, 2), Fr(1, 3), 1, Fr(5, 6), 2, Fr(1, 4), 3, Fr(2, 5)),
]


def test_is_balanced_matches_oracle_every_profile():
    seen = set()
    for weights in FIXED_WEIGHTS:
        for h in range(1, 9):
            w = None if weights is None else weights[:h]
            for d in itertools.product((-1, 1), repeat=h):
                expected = oracle_is_balanced(d, w)
                assert is_balanced(d, w) is expected, (d, w)
                seen.add(expected)
    assert seen == {True, False}


@settings(max_examples=300)
@given(st.data())
def test_is_balanced_matches_oracle_random(data):
    h = data.draw(st.integers(1, 8))
    delta = tuple(data.draw(st.lists(st.sampled_from((-1, 1)), min_size=h, max_size=h)))
    mode = data.draw(st.sampled_from(("random", "equal", "one zero", "all zero")))
    weight = st.builds(Fr, st.integers(0, 12), st.integers(1, 6))
    if mode == "equal":
        weights = (data.draw(weight),) * h
    elif mode == "all zero":
        weights = (0,) * h
    else:
        weights = data.draw(st.lists(weight, min_size=h, max_size=h))
        if mode == "one zero":
            weights[data.draw(st.integers(0, h - 1))] = 0
    expected = oracle_is_balanced(delta, weights)
    assert is_balanced(delta, weights) is expected
    k = data.draw(st.integers(1, 12))
    assert is_balanced(delta, [k * x for x in weights]) is expected


def test_weighted_profiles_can_be_unbalanced():
    assert not is_balanced((-1, 1), (2, 1))
    assert w3_multiset((-1, 1), (2, 1))[0] == (2, 3)
    assert is_balanced((-1, 1), (1, 1))
    for d, a in [((-1, 1), (2, 1)), ((1, -1), (Fr(1, 3), 1)), ((1, 1, -1), (1, 2, 4))]:
        assert not is_balanced(d, a) and not oracle_is_balanced(d, a)
        assert not is_balanced(d, [6 * x for x in a])


def test_balance_input_checks():
    with pytest.raises(ValueError, match="profile entries"):
        is_balanced((1, 0))
    with pytest.raises(ValueError, match="expected 2 weights"):
        is_balanced((1, -1), (1, 1, 1))
    with pytest.raises(ValueError, match="nonnegative"):
        is_balanced((1, -1), (1, -1))


def test_multisets_stay_fractions_on_integer_input():
    # the public multisets keep Fraction entries and moduli, so that halving
    # an exponent (as the mirror series does) stays exact
    def fractions(values):
        return all(type(x) is Fr for x in values)

    assert fractions(prefix_sums((1, 3, 1)))
    for weights in (None, (1, 1, 2)):
        W, M = w3_multiset((-1, -1, 1), weights)
        assert fractions(W + (M,))
    for weights in (None, (1, 2, 1)):
        (w1, m1), (w2, m2) = w1_w2_multisets((1, -1), weights)
        assert fractions(w1 + w2 + (m1, m2))


def test_scp_product_matches_enumeration():
    gs = collapse(genfun_by_enumeration("symmetric", (-1, 1), window=Window(10, 10)))
    assert gs.agrees_with(scp_product_spec((-1, 1)).expand(Window(10)))


def test_nonsymmetric_mirror_difference():
    half = (-1, 1)
    ge = collapse(
        genfun_by_enumeration("cylindric", full_profile(half), window=Window(9, 9))
    )
    gs = collapse(genfun_by_enumeration("symmetric", half, window=Window(9, 9)))
    assert (ge - gs).agrees_with(nonsymmetric_mirror_series(half, Window(9)))
