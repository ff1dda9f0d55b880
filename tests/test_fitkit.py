"""Tests for weight fitting, profile conversion, and equivalence search."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cylq import fitkit
from cylq.fitkit import (
    FitProblem,
    convert_profile,
    discover_equivalences,
    fit_report,
    fit_weights,
)
from cylq.lattice import genfun_by_enumeration
from cylq.products import ProductSpec, cp_product_spec, dspp_product_spec, w1_w2_multisets, w3_multiset
from cylq.series import Window, monomial


def test_fit_recovers_closed_chain_weights():
    problem = FitProblem.make("cylindric", (-1, -1, 1), ((1, 4, 5), 5))
    assert fit_weights(problem) == [(1, 3, 1)]
    problem = FitProblem.make("cylindric", (-1, 1, 1), ((2, 3, 5), 5))
    assert fit_weights(problem) == [(2, 2, 1)]


def test_fit_recovers_open_chain_weights():
    problem = FitProblem.make(
        "skew-shifted", (1, -1), (((1, 1, 1), 1), ((1,), 2))
    )
    assert fit_weights(problem) == [(0, 1, 0)]


def test_fit_open_chain_whose_second_multiset_holds_a_sum():
    # each W2 entry of these profiles is a sum of prefix-sum forms
    problem = FitProblem.make("skew-shifted", (1, 1), w1_w2_multisets((1, 1), (1, 2, 1)))
    assert fit_weights(problem) == [(1, 2, 1)]
    problem = FitProblem.make("skew-shifted", (-1, 1), w1_w2_multisets((-1, 1), (1, 1, 2)))
    assert fit_weights(problem) == [(1, 1, 2), (2, 1, 1)]


def test_fit_rational_weights():
    half = Fraction(1, 2)
    targets = w3_multiset((-1, -1, 1), (half, 1, 3 * half))
    assert fit_weights(FitProblem.make("cylindric", (-1, -1, 1), targets)) == []
    rational = FitProblem.make("cylindric", (-1, -1, 1), targets, integral=False)
    assert fit_weights(rational) == [(half, 1, 3 * half)]


def test_fit_solutions_forward_check():
    problem = FitProblem.make("cylindric", (-1, -1, 1), ((1, 4, 5), 5))
    for w in fit_weights(problem):
        entries, modulus = w3_multiset((-1, -1, 1), w)
        assert entries == (1, 4, 5) and modulus == 5
    problem = FitProblem.make(
        "skew-shifted", (1, -1), (((1, 1, 1), 1), ((1,), 2))
    )
    for w in fit_weights(problem):
        (w1, m1), (w2, m2) = w1_w2_multisets((1, -1), w)
        assert (w1, m1, w2, m2) == ((1, 1, 1), 1, (1,), 2)


def test_fit_underdetermined_enumerates_free_weights():
    problem = FitProblem.make("cylindric", (1, 1, 1), ((5,), 5))
    solutions = fit_weights(problem)
    assert len(solutions) == 21  # weak compositions of 5 into 3 parts
    assert all(sum(w) == 5 and all(v >= 0 for v in w) for w in solutions)
    assert (1, 3, 1) in solutions


def test_fit_nonnegativity_toggle():
    problem = FitProblem.make("cylindric", (-1, -1, 1), ((1, 4, 5), 5))
    relaxed = FitProblem.make(
        "cylindric", (-1, -1, 1), ((1, 4, 5), 5), nonnegative=False
    )
    assert fit_weights(problem) == [(1, 3, 1)]
    # swapping which entry matches 1 and which matches 4 gives the
    # signed companion (4, -3, 4), admissible only without the filter
    assert fit_weights(relaxed) == [(1, 3, 1), (4, -3, 4)]


def test_fit_infeasible_by_shape():
    report = fit_report(
        FitProblem.make("cylindric", (-1, -1, 1), ((1, 4), 5))
    )
    assert report["feasible_shape"] is False
    assert "discordant" in report["reason"]
    assert report["solutions"] == []
    # open chain with a second modulus that is not twice the first
    report = fit_report(
        FitProblem.make("skew-shifted", (1, -1), (((1, 1, 1), 1), ((1,), 3)))
    )
    assert report["feasible_shape"] is False
    assert "twice" in report["reason"]


def test_fit_no_solution_is_empty_not_error():
    problem = FitProblem.make("cylindric", (-1, -1, 1), ((2, 2, 5), 5))
    # entries are {A_3, A_1, A_2} with A_1 <= A_2 <= A_3 = 5 and
    # A_1 = A_2 = 2 forces weights (2, 0, 3): forward-checkable, so it
    # IS a solution; shrink to a genuinely unsatisfiable target instead
    assert fit_weights(problem) == [(2, 0, 3)]
    impossible = FitProblem.make("cylindric", (-1, -1, 1), ((6, 6, 5), 5))
    assert fit_weights(impossible) == []


def test_fit_report_shape():
    report = fit_report(
        FitProblem.make("cylindric", (-1, -1, 1), ((1, 4, 5), 5))
    )
    assert report["schema"] == "cylq-fit-result/1"
    assert report["feasible_shape"] is True and report["reason"] is None
    assert report["solutions"] == [{"weights": [1, 3, 1], "forward_check": True}]
    assert report["problem"]["schema"] == "cylq-fit/1"


def test_fit_problem_json_round_trip():
    for problem in (
        FitProblem.make("cylindric", (-1, -1, 1), ((1, 4, 5), 5)),
        FitProblem.make(
            "skew-shifted", (1, -1), (((1, 1, 1), 1), ((1,), 2)), integral=False
        ),
    ):
        assert FitProblem.from_json(problem.to_json()) == problem


def test_fit_problem_validation():
    with pytest.raises(ValueError):
        FitProblem.make("symmetric", (1,), ((1,), 1))
    with pytest.raises(ValueError):
        FitProblem.make("cylindric", (1, 2), ((1,), 1))
    with pytest.raises(ValueError):
        FitProblem.make("cylindric", (1,), ((0,), 1))
    with pytest.raises(ValueError):
        FitProblem.make("cylindric", (1,), ((1,), 0))


def test_convert_profile_round_trips_through_width_12():
    for width in range(1, 13):
        for d in itertools.product((1, -1), repeat=width):
            assert convert_profile(convert_profile(d)) == d


def test_convert_profile_examples():
    assert convert_profile((-1, -1, -1, 1, 1, 1, 1)) == (0, (0, 0, 4))
    assert convert_profile((-1,)) == (0, (0,))
    assert convert_profile((1, 1, 1)) == (3, ())
    assert convert_profile((1, 1, -1, 1)) == (2, (3,))
    assert convert_profile((2, (3,))) == (1, 1, -1, 1)


def test_convert_profile_rejects_malformed():
    with pytest.raises(ValueError):
        convert_profile((3, (0, 1)))  # offset beyond the last gap
    with pytest.raises(ValueError):
        convert_profile((0, ()))  # empty profile
    with pytest.raises(ValueError):
        convert_profile((1, (-1,)))  # negative gap


def test_discover_groups_rotated_chains():
    groups = discover_equivalences(
        window=Window(10), max_width=2, weight_values=(0, 1, 2)
    )
    joint = [
        g
        for g in groups
        if ("cylindric", (1, -1), (1, 2)) in g
        and ("cylindric", (-1, 1), (2, 1)) in g
    ]
    assert len(joint) == 1


def test_discover_finds_the_weighted_open_chain_group():
    groups = discover_equivalences(
        window=Window(12),
        kinds=("skew-shifted",),
        max_width=2,
        weight_values=(0, 1, 2, 3),
        min_members=1,
    )
    containing = [g for g in groups if ("skew-shifted", (1, -1), (0, 1, 0)) in g]
    # within this grid, exactly one parameter set has that product
    assert containing == [[("skew-shifted", (1, -1), (0, 1, 0))]]


def test_discover_empty_search_space():
    assert discover_equivalences(window=Window(8), weight_values=()) == []
    assert discover_equivalences(window=Window(8), max_width=0) == []


@pytest.mark.parametrize("args, match", [
    (dict(window=Window(None)), "finite q-window"),
    (dict(window=Window(8), kinds=("distinct",)), "searchable kinds"),
    (dict(window=Window(8), check_q=None), "finite check_q"),
    (dict(window=Window(8), check_q=0), "must be positive"),
    (dict(window=Window(8), check_q=2.5), "must be an integer"),
])
def test_discover_rejects_bad_windows_and_kinds(args, match):
    with pytest.raises(ValueError, match=match):
        discover_equivalences(**args)


def _discover_oracle(*, window, kinds, max_width, weight_values, min_members, check_q):
    """The scan as one loop: one expansion per parameter set in the window
    and one more per group member at q^check_q, with no expansion shared."""
    buckets = {}
    for kind in kinds:
        for width in range(1, max_width + 1):
            nweights = width if kind == "cylindric" else width + 1
            for profile in itertools.product((1, -1), repeat=width):
                for weights in itertools.product(weight_values, repeat=nweights):
                    try:
                        spec = (cp_product_spec if kind == "cylindric" else dspp_product_spec)(profile, weights)
                    except ValueError:
                        continue
                    key = tuple(sorted(spec.expand(Window(window.q_truncation)).coeffs.items()))
                    buckets.setdefault(key, []).append((kind, profile, weights, spec))
    groups = []
    for members in buckets.values():
        if len(members) < min_members:
            continue
        kept = [
            (kind, profile, weights)
            for kind, profile, weights, spec in members
            if genfun_by_enumeration(kind, profile, weights, window=Window(check_q, check_q))
            .collapse_z().first_difference(spec.expand(Window(check_q))) is None
        ]
        if len(kept) >= min_members:
            groups.append(sorted(kept))
    return sorted(groups)


@given(st.data())
def test_discover_matches_the_one_expansion_per_set_oracle(data):
    kinds = data.draw(st.sampled_from((("cylindric",), ("skew-shifted",), ("cylindric", "skew-shifted"))))
    max_width = data.draw(st.integers(1, 2))
    # few values at width 2, where open chains take three weights each
    values = data.draw(st.lists(st.integers(0, 3), unique=True, max_size=4 if max_width == 1 else 3))
    args = dict(
        window=Window(data.draw(st.integers(1, 10))),
        kinds=kinds,
        max_width=max_width,
        weight_values=tuple(values),
        min_members=data.draw(st.integers(1, 2)),
        check_q=data.draw(st.integers(1, 12)),
    )
    assert discover_equivalences(**args) == _discover_oracle(**args)


def test_discover_checks_members_through_check_q_past_the_window(monkeypatch):
    # an enumeration that is wrong only at q^(check_q - 1), past the scan's q^6
    bad, check_q = ("cylindric", (1, -1), (1, 2)), 9

    def enumeration(kind, profile, weights, window):
        series = genfun_by_enumeration(kind, profile, weights, window=window)
        if (kind, profile, weights) == bad:
            series = series + monomial(0, check_q - 1, window)
        return series

    args = dict(window=Window(6), max_width=2, weight_values=(0, 1, 2), check_q=check_q)
    honest = discover_equivalences(**args)
    (group,) = [g for g in honest if bad in g]
    monkeypatch.setattr(fitkit, "genfun_by_enumeration", enumeration)
    patched = discover_equivalences(**args)
    assert all(bad not in g for g in patched)
    rest = [sorted(set(group) - {bad})] if len(group) > 2 else []
    assert [g for g in patched if set(g) & set(group)] == rest
    assert [g for g in patched if not set(g) & set(group)] == [g for g in honest if g != group]


def test_discover_expands_each_distinct_product_once(monkeypatch):
    calls = []
    expand = ProductSpec.expand
    monkeypatch.setattr(ProductSpec, "expand", lambda spec, window: calls.append(spec) or expand(spec, window))
    # the census-fit scan: 110 parameter sets with 49 distinct products
    groups = discover_equivalences(window=Window(12), max_width=2, weight_values=(0, 1, 2))
    assert len(calls) == len(set(calls)) == 49
    assert len(groups) == 35


def test_discover_scans_each_repeated_input_once():
    once = discover_equivalences(window=Window(8), kinds=("cylindric",), max_width=1, weight_values=(2,))
    assert once == [[("cylindric", (-1,), (2,)), ("cylindric", (1,), (2,))]]
    assert discover_equivalences(window=Window(8), kinds=("cylindric",), max_width=1, weight_values=(2, 2)) == once
    assert discover_equivalences(window=Window(8), kinds=("cylindric", "cylindric"), max_width=1,
                                 weight_values=(2,)) == once
    # a set listed twice made a one-set "equivalence" of itself
    args = dict(window=Window(8), kinds=("skew-shifted",), max_width=2)
    repeated = discover_equivalences(**args, weight_values=(0, 1, 0))
    assert repeated == discover_equivalences(**args, weight_values=(0, 1))
    assert all(len(set(g)) == len(g) > 1 for g in repeated)
