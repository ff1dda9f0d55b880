"""Tests for coupled q-difference systems, elimination and recurrences."""

import json
from collections import deque
from fractions import Fraction
from itertools import chain, count, islice, repeat

import pytest
from hypothesis import given, settings, strategies as st

from cylq import recur, series
from cylq.lattice import genfun_by_enumeration
from cylq.recur import (
    CheckReport,
    CoefficientRecurrence,
    CoefficientSequence,
    FunctionalTerm,
    LinQPoly,
    _WIDTH6_DATA,
    _Packed,
    build_system,
    check_closed_form,
    closed_form_euler,
    closed_form_goellnitz,
    closed_form_width4,
    closed_form_width6,
    corner_moves,
    corner_set,
    corner_subset_terms,
    eliminate,
    poch_z_prefactor,
    profile_closure,
    reverse_profile,
    sigma_prefactor_factored,
    sigma_prefactor_terms,
    solve_fixed_point,
    system_from_json,
    system_to_json,
    to_coefficient_recurrences,
    width4_recurrence,
    width6_min_exponent,
    width6_recurrence,
)
from cylq.series import (
    TruncatedSeries,
    Window,
    _combine,
    _poch,
    make_series,
    one,
    poch_infinite,
    poch_product,
    qf,
    zero,
    zf,
)


def test_corner_sets_match_conventions():
    assert corner_set("cylindric", (1, -1)) == (1,)
    assert corner_set("cylindric", (1, 1)) == ()
    assert corner_set("cylindric", (-1, -1, 1)) == (0,)
    assert corner_set("cylindric", (1, -1, 1, -1)) == (1, 3)
    assert corner_set("skew-shifted", (1, -1)) == (1,)
    assert corner_set("skew-shifted", (1, 1)) == (2,)
    assert corner_set("skew-shifted", (-1, 1)) == (0, 2)
    assert corner_set("skew-shifted", (-1, -1)) == (0,)
    assert corner_set("skew-shifted", (1, -1, 1)) == (1, 3)


def test_corner_moves_swap_signs():
    moves = corner_moves("cylindric", (1, -1, 1), (2, 2, 1))
    assert moves == ((1, Fraction(2), (-1, 1, 1)),)
    moves = corner_moves("skew-shifted", (-1, 1), (1, 2, 1))
    assert moves == ((0, Fraction(1), (1, 1)), (2, Fraction(1), (-1, -1)))


def test_corner_subset_signs():
    # weak kinds: inclusion-exclusion signs sum to 1
    for kind, profile in [
        ("cylindric", (1, -1, 1, -1)),
        ("skew-shifted", (-1, 1, -1)),
    ]:
        terms = corner_subset_terms(kind, profile)
        assert sum(t[0] for t in terms) == 1
    # strict kind: the strata partition the objects, every sign is +1
    strict = corner_subset_terms("distinct", (1, -1, 1, -1))
    assert [t[0] for t in strict] == [1, 1, 1]
    # swapped profiles keep the number of descents (closed kinds)
    for kind in ("cylindric", "distinct"):
        rank = 2
        for _sgn, _s, q in corner_subset_terms(kind, (1, -1, 1, -1)):
            assert sum(1 for x in q if x == -1) == rank


def test_profile_closure_sizes():
    assert profile_closure("cylindric", (1,)) == ((1,),)
    assert len(profile_closure("skew-shifted", (1, -1, 1))) == 8
    assert len(profile_closure("skew-shifted", (1, -1), (1, 2, 1))) == 4


def test_reverse_profile():
    assert reverse_profile((1, -1, 1)) == (-1, 1, -1)
    assert reverse_profile((1, 1)) == (-1, -1)


def test_poch_z_prefactor():
    assert poch_z_prefactor(1) == ((0, Fraction(0), 1),)
    # (1 - zq)(1 - zq^2) = 1 - zq - zq^2 + z^2 q^3
    assert poch_z_prefactor(3) == (
        (0, Fraction(0), 1),
        (1, Fraction(1), -1),
        (1, Fraction(2), -1),
        (2, Fraction(3), 1),
    )


def test_geometric_profile_system_solves_to_eta_quotient():
    window = Window(14, 10)
    unnorm = build_system("cylindric", (1,), normalized=False)
    sol = solve_fixed_point(unnorm, window)
    direct = poch_product([], [zf(1, 1, 1)], window)
    assert sol[(1,)].agrees_with(direct)
    # the normalized unknown is constant: H(z) = H(zq) pins H = 1
    norm = build_system("cylindric", (1,))
    assert norm.normalized
    assert solve_fixed_point(norm, window)[(1,)].agrees_with(one(window))


def test_normalization_consistency():
    window = Window(16, 8)
    seed, weights = (1, -1), (1, 2, 1)
    f_sys = build_system("skew-shifted", seed, weights, normalized=False)
    h_sys = build_system("skew-shifted", seed, weights)
    f_sol = solve_fixed_point(f_sys, window)
    h_sol = solve_fixed_point(h_sys, window)
    zq_inf = poch_infinite(zf(1, 1, 1), window)
    for p in f_sys.equations:
        assert h_sol[p].agrees_with(zq_inf * f_sol[p])


def test_solver_matches_enumeration_small_profiles():
    window = Window(10, 8)
    for kind, profile, weights in [
        ("cylindric", (1, -1), None),
        ("cylindric", (-1, -1, 1), None),
        ("skew-shifted", (1, -1, 1), None),
        ("cylindric", (1, -1), (0, 1)),
        ("distinct", (1, -1), (0, 1)),
        ("distinct", (1, -1, 1, -1), None),
        # shifts off the integer grid: q_scale 2, and 6 for (3/2, 1/3)
        ("cylindric", (-1, -1, 1), (Fraction(1, 2), 1, 1)),
        ("skew-shifted", (1, -1), (Fraction(1, 2), 1, Fraction(1, 2))),
        ("distinct", (1, -1), (Fraction(1, 2), 1)),
        ("cylindric", (1, -1), (Fraction(3, 2), Fraction(1, 3))),
    ]:
        system = build_system(kind, profile, weights, normalized=False)
        sol = solve_fixed_point(system, window)
        seed = system.seed
        enum = genfun_by_enumeration(kind, seed, weights, window=window)
        assert sol[seed].agrees_with(enum), (kind, profile, weights)


def test_symmetric_kind_solver_and_half_chain_agree():
    window = Window(10, 8)
    system = build_system("symmetric", (-1, 1), normalized=False)
    assert system.weights == (Fraction(1), Fraction(2), Fraction(1))
    sol = solve_fixed_point(system, window)
    enum = genfun_by_enumeration("symmetric", (-1, 1), window=window)
    assert sol[(-1, 1)].agrees_with(enum)
    # the symmetric family coincides with the open chain carrying its
    # boundary-1 / interior-2 weights
    open_enum = genfun_by_enumeration("skew-shifted", (-1, 1), (1, 2, 1), window=window)
    assert enum.agrees_with(open_enum)


def _first_values(seq, count: int, window: Window) -> list:
    """h(0), ..., h(count - 1) read from one stream, zero in the window
    past its end (as ``value`` reads them, without a stream per value)."""
    return list(islice(chain(seq.values(window), repeat(zero(window))), count))


def test_width4_solver_matches_closed_forms_and_products():
    window = Window(26, 10)
    sol = solve_fixed_point(build_system("skew-shifted", (1, -1), (1, 2, 1)), window)
    qwin = Window(26)
    for p in ((1, 1), (1, -1), (-1, 1)):
        for n, h in enumerate(_first_values(closed_form_width4(p), 11, qwin)):
            assert sol[p].z_slice(n).agrees_with(h), (p, n)
    # reversal symmetry of the open chain
    assert sol[(-1, -1)].agrees_with(sol[(1, 1)])
    products = {
        (1, 1): [zf(1, 4, 4, -1), zf(1, 2, 4)],
        (1, -1): [zf(1, 1, 4), zf(1, 3, 4, -1)],
        (-1, 1): [zf(1, 1, 4, -1), zf(1, 3, 4)],
    }
    for p, factors in products.items():
        assert sol[p].agrees_with(poch_product(factors, [], window)), p


def test_width6_solver_matches_closed_forms():
    window = Window(40, 10)
    sol = solve_fixed_point(build_system("skew-shifted", (1, -1, 1), (1, 2, 2, 1)), window)
    qwin = Window(40)
    for p in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)):
        for n, h in enumerate(_first_values(closed_form_width6(p), 11, qwin)):
            assert sol[p].z_slice(n).agrees_with(h), (p, n)


def test_goellnitz_solver_matches_closed_form():
    window = Window(24, 10)
    sol = solve_fixed_point(build_system("skew-shifted", (1, -1, 1)), window)
    qwin = Window(24)
    for n, h in enumerate(_first_values(closed_form_goellnitz(), 11, qwin)):
        assert sol[(1, -1, 1)].z_slice(n).agrees_with(h), n


def test_schmidt_even_chain_has_distinct_product():
    window = Window(12, 10)
    sol = solve_fixed_point(build_system("cylindric", (-1, 1), (0, 1)), window)
    base = poch_product([], [zf(1, 1, 1), zf(1, 1, 1)], window)
    inv_one_minus_z = TruncatedSeries(
        {(0, 0): 1, (1, 0): -1}, window.q_truncation, window.z_truncation, 1
    ).invert()
    assert sol[(-1, 1)].agrees_with(base * inv_one_minus_z)


def test_distinct_constant_profile_rejected():
    with pytest.raises(ValueError):
        build_system("distinct", (1, 1))


def test_normalized_requires_positive_integer_weights():
    with pytest.raises(ValueError):
        build_system("cylindric", (1, -1), (0, 1), normalized=True)
    with pytest.raises(ValueError):
        build_system("distinct", (1, -1), normalized=True)


def test_zero_progress_cycle_reports_profiles():
    system = build_system("cylindric", (1, -1), (0, 0))
    with pytest.raises(RuntimeError) as err:
        solve_fixed_point(system, Window(6, 4))
    assert "zero-shift" in str(err.value)


def test_eliminate_width4():
    system = build_system("skew-shifted", (1, -1), (1, 2, 1))
    result = eliminate(system, (-1, 1))
    assert result.success
    # H(z) = (1 + zq)(1 - zq^3) H(zq^4)
    assert result.terms == (
        (
            (
                (0, Fraction(0), 1),
                (1, Fraction(1), 1),
                (1, Fraction(3), -1),
                (2, Fraction(4), -1),
            ),
            Fraction(4),
        ),
    )
    other = eliminate(system, (1, -1))
    assert other.success
    # H(z) = (1 - zq)(1 + zq^3) H(zq^4)
    assert other.terms == (
        (
            (
                (0, Fraction(0), 1),
                (1, Fraction(1), -1),
                (1, Fraction(3), 1),
                (2, Fraction(4), -1),
            ),
            Fraction(4),
        ),
    )
    # the (1,1) unknown needs its own equation backwards: a clean cycle
    blocked = eliminate(system, (1, 1))
    assert not blocked.success
    assert "cycle" in blocked.reason


def test_eliminate_standard_width3_needs_reversal_identification():
    system = build_system("skew-shifted", (1, -1, 1))
    result = eliminate(system, (1, -1, 1))
    assert result.success and result.identified
    # H(z) = (1 + zq) H(zq^2) + zq^2 H(zq^4)
    assert result.terms == (
        (((0, Fraction(0), 1), (1, Fraction(1), 1)), Fraction(2)),
        (((1, Fraction(2), 1),), Fraction(4)),
    )
    plain = eliminate(system, (1, -1, 1), identify_reversals=False)
    assert not plain.success
    assert "cycle" in plain.reason


def test_eliminate_rejects_unnormalized_and_bad_identification():
    system = build_system("skew-shifted", (1, -1, 1), normalized=False)
    result = eliminate(system, (1, -1, 1))
    assert not result.success and "normalized" in result.reason
    closed = build_system("cylindric", (1, -1))
    with pytest.raises(ValueError):
        eliminate(closed, (1, -1), identify_reversals=True)


def test_elimination_soundness():
    # the single eliminated equation has the same fixed-point solution as
    # the kept component of the full system
    window = Window(24, 10)
    for seed, weights, keep in [
        ((1, -1), (1, 2, 1), (-1, 1)),
        ((1, -1, 1), None, (1, -1, 1)),
    ]:
        system = build_system("skew-shifted", seed, weights)
        result = eliminate(system, keep)
        assert result.success
        single = solve_fixed_point(result.as_system(system), window)[keep]
        full = solve_fixed_point(system, window)[keep]
        assert single.agrees_with(full)


def test_geometric_profile_coefficient_recurrence():
    system = build_system("cylindric", (1,), normalized=False)
    rec = to_coefficient_recurrences(system)[(1,)]
    # (1 - q^n) h(n) = q h(n-1)
    assert rec.coefficient((1,), 0).entries == (
        (Fraction(0), Fraction(0), 1),
        (Fraction(1), Fraction(0), -1),
    )
    assert rec.coefficient((1,), 1).entries == ((Fraction(0), Fraction(1), -1),)
    report = check_closed_form(closed_form_euler(), rec, 12, Window(60))
    assert report.holds and report.initial_ok and not report.vacuous


def test_derived_recurrences_match_encoded_width4():
    system = build_system("skew-shifted", (1, -1), (1, 2, 1))
    for keep in ((1, -1), (-1, 1)):
        derived = to_coefficient_recurrences(eliminate(system, keep))
        encoded = width4_recurrence(keep)
        assert derived.terms == encoded.terms, keep


def test_closed_forms_satisfy_encoded_recurrences():
    for p in ((1, 1), (1, -1), (-1, 1)):
        report = check_closed_form(
            closed_form_width4(p), width4_recurrence(p), 12, Window(240)
        )
        assert report.holds and not report.vacuous, (p, report.failures[:2])
    for p in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)):
        report = check_closed_form(
            closed_form_width6(p), width6_recurrence(p), 8, Window(260)
        )
        assert report.holds and not report.vacuous, (p, report.failures[:2])


def test_recurrence_check_rejects_wrong_sign():
    # the middle-coefficient sign separates (1,-1) from (-1,1); crossing
    # them must fail, with the offending degree reported rather than raised
    report = check_closed_form(
        closed_form_width4((1, -1)), width4_recurrence((-1, 1)), 8, Window(150)
    )
    assert not report.holds
    assert report.failures and report.failures[0][0] == 2


def test_goellnitz_derived_recurrence_checks_closed_form():
    system = build_system("skew-shifted", (1, -1, 1))
    rec = to_coefficient_recurrences(eliminate(system, (1, -1, 1)))
    # (1 - q^(2n)) h(n) = (q^(2n-1) + q^(4n-2)) h(n-1)
    assert rec.coefficient((1, -1, 1), 0).entries == (
        (Fraction(0), Fraction(0), 1),
        (Fraction(2), Fraction(0), -1),
    )
    assert rec.coefficient((1, -1, 1), 1).entries == (
        (Fraction(2), Fraction(-1), -1),
        (Fraction(4), Fraction(-2), -1),
    )
    report = check_closed_form(closed_form_goellnitz(), rec, 15, Window(650))
    assert report.holds and not report.vacuous


def test_inhomogeneous_recurrence_for_distinct_pairs():
    system = build_system("distinct", (1, -1), (0, 1))
    recs = to_coefficient_recurrences(system)
    rec = recs[(1, -1)]
    assert rec.inhom  # the constant 1 survives denominator clearing
    window = Window(15, 12)
    sol = solve_fixed_point(system, window)

    def value_fn(target, m):
        if m < 0:
            return sol[target].z_slice(0) * 0
        return sol[target].z_slice(m)

    for n in range(10):
        assert rec.evaluate(n, value_fn, Window(15)).is_zero(), n


def test_sigma_prefactor_two_forms_agree():
    for n in range(12):
        for m in range(12):
            assert sigma_prefactor_terms(n, m) == sigma_prefactor_factored(n, m)


def test_system_json_roundtrip():
    for system in [
        build_system("skew-shifted", (1, -1), (1, 2, 1)),
        build_system("distinct", (1, -1), (0, 1)),
        build_system("cylindric", (1,), normalized=False),
    ]:
        payload = json.loads(json.dumps(system_to_json(system)))
        assert system_from_json(payload) == system


def test_pretty_output_mentions_prefactors():
    system = build_system("skew-shifted", (1, -1), (1, 2, 1))
    text = system.pretty()
    assert "(1 - z*q)" in text
    assert "H[+1,-1]" in text
    rec = width4_recurrence((1, -1))
    assert "h[+1,-1]" in rec.pretty()


def test_display_strings_are_pinned_on_small_systems():
    s = make_series([(0, 0, 1), (0, 1, -2), (1, Fraction(1, 2), 1), (2, 3, -1)], Window(5, 3, 2))
    assert repr(s) == "TruncatedSeries(q<5, z<=3, scale=2, 4 terms)"
    assert repr(zero(Window(None))) == "TruncatedSeries(q<inf, z<=inf, scale=1, 0 terms)"
    assert s.pretty() == "1 - 2*q + z*q^1/2 - z^2*q^3"
    assert (-s).pretty(max_terms=2) == "-1 + 2*q + ..."
    assert s.pretty(max_terms=4) == s.pretty() and s.pretty(max_terms=3) == "1 - 2*q + z*q^1/2 + ..."
    assert make_series([(0, 0, 2), (1, 1, -3)], Window(3, 1)).pretty() == "2 - 3*z*q"
    assert make_series([(0, 0, -2), (0, 2, 1)], Window(3)).pretty() == "-2 + q^2"
    assert zero(Window(4)).pretty() == "0"
    system = build_system("skew-shifted", (1, -1), (1, 2, 1))
    assert eliminate(system, (-1, 1)).pretty() == (
        "H[-1,+1](z) = (1 + z*q - z*q^3 - z^2*q^4) H[-1,+1](z*q^4)")
    assert eliminate(system, (1, 1)).pretty() == (
        "elimination failed: substitution cycle: profile (1, -1) would be needed twice")
    assert FunctionalTerm(-1, 2, (1, -1), ((0, 0, 1), (1, 1, -1)), Fraction(1, 2)).pretty() == (
        "- (1 - z*q) F[+1,-1](z*q^2) / (1 - z*q^(1/2))")
    assert FunctionalTerm(1, 0, (1, -1), ((0, 0, 2), (1, 1, -3), (2, Fraction(3, 2), 1))).pretty() == (
        "(2 - 3*z*q + z^2*q^(3/2)) F[+1,-1](z)")
    assert FunctionalTerm(1, 0, (1, -1), ((0, 0, -2), (2, 0, 5))).pretty() == "(-2 + 5*z^2) F[+1,-1](z)"
    distinct = build_system("distinct", (1, -1), (0, 1))
    assert distinct.pretty().splitlines() == [
        "F[-1,+1](z) = 1 + (z) F[+1,-1](z) / (1 - z)",
        "F[+1,-1](z) = 1 + (z*q) F[-1,+1](z*q^1) / (1 - z*q^1)",
    ]
    recs = to_coefficient_recurrences(distinct)
    assert recs[(1, -1)].pretty() == (
        "(1) * h[+1,-1](n) + (-q^(n)) * h[-1,+1](n-1) + (-q^(1)) * h[+1,-1](n-1)"
        " = at n=0: 1*q^0; at n=1: -1*q^1")


def test_linqpoly_pretty_signs_every_offset():
    poly = LinQPoly.from_entries([(1, 2, 1), (2, -3, -1), (3, Fraction(1, 2), 2),
                                  (1, Fraction(-3, 2), 1), (Fraction(1, 2), 0, 1), (0, 5, -1)])
    assert poly.pretty() == (
        "-q^(5) + q^((1/2)*n) + q^(n-(3/2)) + q^(n+2) - q^(2*n-3) + 2*q^(3*n+(1/2))"
    )
    # integral parts are kept as ints, equal to the Fractions they came from
    assert all(type(x) is int for a, b, _c in poly.entries for x in (a, b) if x.denominator == 1)
    assert poly == LinQPoly.from_entries([(Fraction(a), Fraction(b), c) for a, b, c in poly.entries])
    assert poly.instantiate(4) == {5: -2, Fraction(5, 2): 1, 6: 1, 2: 1, Fraction(25, 2): 2}
    # a constant prints as its number, as in the other signed sums
    assert LinQPoly.from_entries([(0, 0, 3), (1, 0, -2)]).pretty() == "3 - 2*q^(n)"
    assert LinQPoly.from_entries([(0, 0, -1), (1, 1, 1)]).pretty() == "-1 + q^(n+1)"
    assert LinQPoly.from_entries([(0, 0, -2)]).pretty() == "-2"
    assert LinQPoly.from_entries([(0, 0, 2), (0, 0, -2)]).pretty() == "0"


def test_functional_term_validation():
    with pytest.raises(ValueError):
        FunctionalTerm(2, 1, (1, -1))
    with pytest.raises(ValueError):
        FunctionalTerm(1, -1, (1, -1))
    with pytest.raises(ValueError):
        FunctionalTerm(1, 0, None)  # constant term needs a value
    with pytest.raises(ValueError, match="z-degrees must be nonnegative"):
        FunctionalTerm(1, 0, (1, -1), ((-1, 0, 1), (-1, 0, -1)))  # refused though the sum is 0
    term = FunctionalTerm(1, 2, (1, -1), ((0, 0, 1), (0, 0, 1)))
    assert term.prefactor == ((0, Fraction(0), 2),)


CRITERION_11 = [(closed_form_width4, width4_recurrence, p, 40)
                for p in ((1, 1), (1, -1), (-1, 1))]
CRITERION_11 += [(closed_form_width6, width6_recurrence, p, 30)
                 for p in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1))]


@pytest.mark.parametrize("form, relation, profile, n_max", CRITERION_11)
def test_criterion_11_reports_are_pinned(form, relation, profile, n_max):
    report = check_closed_form(form(profile), relation(profile), n_max)
    assert (report.holds, report.failures, report.vacuous, report.initial_ok) == (
        True, (), (), True
    )
    assert report.window == Window(2 * (n_max + 2) ** 2 + 40)
    assert report.start_degree == relation(profile).min_degree


def test_one_wrong_coefficient_is_caught():
    # h(7) of the (1,1,1) closed form with its lowest coefficient off by one:
    # the relation at degree m reads h(m - lag) for lags 0..3, and its lag-0
    # coefficient starts with +1, so degrees 7..10 fail, the first at the
    # bumped exponent with residual +1
    true = closed_form_width6((1, 1, 1))
    window = Window(2 * (30 + 2) ** 2 + 40)
    values = list(islice(true.values(window), 31))
    _z, low, _c = next(values[7].items())

    def value(n, window):
        h = values[n]
        return h + make_series([(0, low, 1)], window) if n == 7 else h

    wrong = CoefficientSequence((1, 1, 1), "width6-closed-form", value)
    report = check_closed_form(wrong, width6_recurrence((1, 1, 1)), 30)
    assert report.holds is False
    assert report.failures[0] == (7, low, 1)
    assert [f[0] for f in report.failures] == [7, 8, 9, 10]
    assert report.initial_ok and not report.vacuous


def test_closed_form_values_keep_the_window():
    # every value is exact in the whole window it was asked for, which the
    # width-6 assembly meets by evaluating its base below q^(N - low)
    forms = [closed_form_euler(), closed_form_goellnitz()]
    forms += [closed_form_width4(p) for p in ((1, 1), (1, -1), (-1, 1))]
    forms += [closed_form_width6(p) for p in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1))]
    for form in forms:
        for n in range(13):
            for window in (Window(1), Window(7), Window(60)):
                assert form.value(n, window).window == window, (form.label, n, window)


def test_wrong_last_coefficient_is_caught():
    # the sliding window reaches the last degree: h(n_max) bumped at its
    # lowest exponent fails there alone, with residual +1
    true = closed_form_width4((1, -1))
    window = Window(240)
    values = list(islice(true.values(window), 13))
    _z, low, _c = next(values[12].items())
    values[12] = values[12] + make_series([(0, low, 1)], window)
    wrong = CoefficientSequence((1, -1), "width4-closed-form", lambda n, w: values[n])
    report = check_closed_form(wrong, width4_recurrence((1, -1)), 12, window)
    assert report.failures == ((12, low, 1),)
    assert report.holds is False and report.initial_ok and not report.vacuous


def test_coupled_mapping_and_initial_value():
    # the Euler relation (1 - q^n) h(n) = q h(n-1), given as a mapping from
    # its one profile; doubling every value keeps the homogeneous relation
    # but fails the initial condition h(0) = 1
    rec = to_coefficient_recurrences(build_system("cylindric", (1,), normalized=False))
    report = check_closed_form({(1,): closed_form_euler()}, rec[(1,)], 12, Window(60))
    assert report.holds and report.initial_ok and not report.vacuous
    doubled = [2 * h for h in islice(closed_form_euler().values(Window(60)), 13)]
    wrong = CoefficientSequence((1,), "doubled", lambda n, w: doubled[n])
    report = check_closed_form({(1,): wrong}, rec[(1,)], 12, Window(60))
    assert report.failures == () and not report.vacuous
    assert report.initial_ok is False and report.holds is False


# -- the from-scratch closed forms, kept as the oracle of the running ones ----


def _oracle_poch_value(numerator, denominator, shift, sign, n_trunc):
    """``sign * q^shift * prod (f)_n / prod (f)_n`` exact below ``q^n_trunc``."""
    if n_trunc <= shift:
        return zero(Window(n_trunc, None, 1))
    poch = _poch(numerator, denominator, Window(n_trunc - shift))
    return _combine(Window(n_trunc), [(poch, 0, shift, sign)])


def _oracle_euler(n, window):
    return _oracle_poch_value([], [(qf(1, 1), n)], n, 1, window.q_truncation)


def _oracle_goellnitz(n, window):
    return _oracle_poch_value(
        [(qf(1, 2, -1), n)], [(qf(2, 2), n)], n * n, 1, window.q_truncation
    )


def _oracle_width4(p):
    # the paper's K(n) = (q^2;q^4)_ceil(n/2) (-q^4;q^4)_floor(n/2) / (q^4;q^4)_n,
    # not the cancelled 1/(-q^2;-q^2)_n that closed_form_width4 runs on
    def value(n, window):
        shift = n * (n + 1) if p == (1, 1) else n * n
        sign = (-1) ** (n // 2 if p == (-1, 1) else (n + 1) // 2)
        return _oracle_poch_value(
            [(qf(2, 4), (n + 1) // 2), (qf(4, 4, -1), n // 2)],
            [(qf(4, 4), n)], shift, sign, window.q_truncation,
        )
    return value


# the prefactor polynomial B(n, m) of each width-6 summand, term by term
WIDTH6_BRACKETS = {
    (1, 1, 1): lambda n, m: ((0, 1), (3 * n + 1, -1), (3 * n - 6 * m, -1)),
    (1, 1, -1): lambda n, m: ((0, 1), (3 * n + 1, -1), (3 * n - 6 * m, -1)),
    (1, -1, 1): lambda n, m: ((0, 1),),
    (-1, 1, 1): lambda n, m: (
        (0, 1), (3 * n + 1, -1), (3 * n - 2, -1), (3 * n - 6 * m, -1),
        (3 * n - 6 * m - 3, -1), (6 * n - 6 * m - 2, 1), (6 * n - 12 * m - 3, 1),
    ),
}


def _oracle_width6(p):
    e_fn, _groups, sign_off = _WIDTH6_DATA[p]
    br_fn = WIDTH6_BRACKETS[p]

    def value(n, window):
        n_trunc = window.q_truncation
        low = width6_min_exponent(p, n)
        if n_trunc <= low:
            return zero(Window(n_trunc, None, 1))
        inner = Window(n_trunc - low)
        base = _poch([], [(qf(3, 3), n)], inner)
        parts = []
        for m in range(n // 2 + 1):
            if m > 0:
                num = [(qf(3 * (n - 2 * m + 1), 3), 2), (qf(6 * m - 5, 4, -1), 2)]
                base = _poch(num, [(qf(6 * m, 1), 1)], inner, base)
            sgn = (-1) ** (m + sign_off)
            parts += [(base, 0, e_fn(n, m) + be, sgn * bc) for be, bc in br_fn(n, m)]
        return _combine(Window(n_trunc), parts)
    return value


W4 = ((1, 1), (1, -1), (-1, 1))
W6 = ((1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1))
# (sequence, oracle, shift(n): the value vanishes in windows at or below it, n_max)
ORACLE_CASES = [
    (closed_form_euler(), _oracle_euler, lambda n: n, 40),
    (closed_form_goellnitz(), _oracle_goellnitz, lambda n: n * n, 40),
]
ORACLE_CASES += [
    (closed_form_width4(p), _oracle_width4(p), (lambda n: n * (n + 1)) if p == (1, 1) else (lambda n: n * n), 40)
    for p in W4
]
ORACLE_CASES += [
    (closed_form_width6(p), _oracle_width6(p), lambda n, p=p: width6_min_exponent(p, n), 30)
    for p in W6
]


def _exact(s):
    return s.window, s._rows


@pytest.mark.parametrize("form, oracle, shift, n_max", ORACLE_CASES,
                         ids=["_".join((c[0].label, *map(str, c[0].profile))) for c in ORACLE_CASES])
def test_running_values_equal_the_from_scratch_oracle(form, oracle, shift, n_max):
    # every degree in q^1, q^2, the criterion-11 window and the windows of
    # the coefficient-recurrences case (n <= 10, 12, 16), and a width-4 or
    # width-6 form in every window through q^80, where its packs start
    # narrow and widen and the width-4 packs shrink to the slots each degree
    # reaches; where the stream ends before n_max, the oracle's later values
    # are zero
    windows = {1, 2, *(2 * (k + 2) ** 2 + 40 for k in (n_max, 10, 12, 16))}
    if form.label in ("width4-closed-form", "width6-closed-form"):
        windows.update(range(1, 81))
    for N in sorted(windows):
        window = Window(N)
        got = list(islice(form.values(window), n_max + 1))
        assert [_exact(h) for h in got] == [_exact(oracle(n, window)) for n in range(len(got))], N
        assert all(oracle(n, window).is_zero() for n in range(len(got), n_max + 1)), N
    # h(n) turns zero in the windows at or below its shift
    for n in sorted({*range(11), *range(10, n_max + 1, 5), n_max}):
        for N in (shift(n) - 1, shift(n), shift(n) + 1):
            if N >= 1:
                window = Window(N)
                for k in range(max(n - 1, 0), n + 2):
                    assert _exact(form.value(k, window)) == _exact(oracle(k, window)), (N, k)
    window = Window(100)
    stream = list(form.values(window))
    for n in (0, 1, n_max):
        want = stream[n] if n < len(stream) else zero(window)
        assert _exact(form.value(n, window)) == _exact(want)
    assert form.value(-1, window) == zero(window)


@pytest.mark.parametrize("form, oracle, shift, n_max", ORACLE_CASES,
                         ids=["_".join((c[0].label, *map(str, c[0].profile))) for c in ORACLE_CASES])
def test_streams_end_where_no_later_value_touches_the_window(form, oracle, shift, n_max):
    # a running form stops at its first shift at or past q^N, a width-6 form
    # once two consecutive degrees from n = 2 on clear the window; past the
    # end every value is zero in the window
    for N in range(1, 81):
        window = Window(N)
        ended = len(list(form.values(window)))
        if form.label == "width6-closed-form":
            assert ended == next(n for n in count(2) if min(shift(n), shift(n + 1)) >= N), N
        else:
            assert ended == next(n for n in count() if shift(n) >= N), N
        for n in range(ended, ended + 3):
            assert _exact(form.value(n, window)) == _exact(zero(window)) == _exact(oracle(n, window)), (N, n)


def test_width6_valuation_bound_grows_along_parities():
    # closed_form_width6 stops once two consecutive degrees from n = 2 on
    # clear the window, which needs this growth
    for p in W6:
        lows = [width6_min_exponent(p, n) for n in range(200)]
        assert all(lows[n] <= lows[n + 2] for n in range(2, 198)), p


def test_width6_groups_expand_to_the_bracket():
    # each group (k, terms) stands for q^(-k m) times its terms; expanded and
    # combined they give the bracket's (exponent, coefficient) pairs, the
    # literal terms written out above (sigma_prefactor_terms expands the
    # same groups, so it cannot serve as their check)
    def combined(pairs):
        out = {}
        for e, c in pairs:
            out[e] = out.get(e, 0) + c
        return tuple(sorted((e, c) for e, c in out.items() if c))

    for p in W6:
        _e_fn, groups_fn, _off = _WIDTH6_DATA[p]
        for n in range(61):
            for m in range(n // 2 + 1):
                pairs = [(e - k * m, c) for k, terms in groups_fn(n) for e, c in terms]
                assert combined(pairs) == combined(WIDTH6_BRACKETS[p](n, m)), (p, n, m)


# -- the per-degree check, kept as the oracle of the packed one ---------------


def oracle_check_closed_form(sequence, recurrence, n_max, window=None):
    """``check_closed_form`` evaluating the residual at every degree."""
    if window is None:
        window = Window(2 * (n_max + 2) ** 2 + 40)
    single = isinstance(sequence, CoefficientSequence)
    targets = {recurrence.profile, *(tgt for tgt, _lag, _poly in recurrence.terms)}
    streams = {tgt: (sequence if single else sequence[tgt]).values(window) for tgt in targets}
    nothing = zero(Window(None))  # h(n) for n < 0, exactly zero
    order = recurrence.order()
    recent = {tgt: deque([nothing] * order, order + 1) for tgt in targets}
    value_fn = lambda tgt, m: recent[tgt][m - n - 1]  # h(m) for n - order <= m <= n
    failures, vacuous = [], []
    for n in range(min(recurrence.min_degree, 0), max(n_max, 0) + 1):
        for tgt, values in streams.items():
            recent[tgt].append(next(values, zero(Window(window.q_truncation))) if n >= 0 else nothing)
        if n == 0:
            init = recent[recurrence.profile][-1]
        if not recurrence.min_degree <= n <= n_max:
            continue
        used_nonzero = any(not value_fn(tgt, n - lag).is_zero() for tgt, lag, _poly in recurrence.terms)
        if not used_nonzero and not any(deg == n for deg, _ in recurrence.inhom):
            vacuous.append(n)
            continue
        try:
            residual = recurrence.evaluate(n, value_fn, window)
        except ValueError as err:  # a residual exact nowhere is no check
            if "compares nothing" not in str(err):
                raise
            vacuous.append(n)
            continue
        if not residual.is_zero():
            diff = residual.first_difference(zero(residual.window))
            failures.append((n, diff[1], diff[2]))
    initial_ok = init.agrees_with(one(init.window))
    return CheckReport(not failures and initial_ok, n_max, window, tuple(failures),
                       tuple(vacuous), initial_ok, recurrence.min_degree)


def _both(sequence, recurrence, n_max, window=None):
    """The packed check's report, once the oracle is seen to give the same
    report or raise the same error, and the packed check to evaluate the
    residual at the failing degrees alone: its zero test is exact."""
    evaluated, evaluate = [], CoefficientRecurrence.evaluate

    def counted(self, n, value_fn, window):
        evaluated.append(n)
        return evaluate(self, n, value_fn, window)

    outcomes = []
    for check in (check_closed_form, oracle_check_closed_form):
        CoefficientRecurrence.evaluate = counted if check is check_closed_form else evaluate
        try:
            outcomes.append(check(sequence, recurrence, n_max, window))
        except ValueError as err:
            outcomes.append(("ValueError", str(err)))
        finally:
            CoefficientRecurrence.evaluate = evaluate
    assert outcomes[0] == outcomes[1]
    if isinstance(outcomes[0], CheckReport):
        assert evaluated == [n for n, _e, _c in outcomes[0].failures]
    return outcomes[0]


def test_packed_check_matches_oracle_on_every_closed_form_pair():
    # every width-4 and width-6 form against every relation of its width;
    # the crossed pairs fail, and their failure tuples must match too
    pairs = [(closed_form_width4(p), width4_recurrence(r), 20) for p in W4 for r in W4]
    pairs += [(closed_form_width6(p), width6_recurrence(r), 14) for p in W6 for r in W6]
    reports = [_both(*pair) for pair in pairs]
    assert sum(not rep.holds for rep in reports) == 18
    assert all(rep.holds == (form.profile == rel.profile) for (form, rel, _n), rep in zip(pairs, reports))


def test_packed_check_matches_oracle_where_values_vanish_in_the_window():
    # in the windows q^1..q^40 the streams end early and the width-4 packs
    # shrink to a few slots; the degrees that read only values zero in the
    # window are vacuous, as in the oracle
    reports = [_both(closed_form_width4(p), width4_recurrence(p), 12, Window(N)) for p in W4 for N in range(1, 41)]
    reports += [_both(closed_form_width6(p), width6_recurrence(p), 12, Window(N)) for p in W6 for N in range(1, 41)]
    assert all(rep.holds for rep in reports) and any(rep.vacuous for rep in reports)


def _with_extra_term(relation, lag, entry, shift=0):
    """The relation with every exponent raised by ``shift`` and one more
    entry ``(alpha, beta, c)`` in its coefficient at ``lag``."""
    terms = [(tgt, lg, LinQPoly.from_entries([(a, b + shift, c) for a, b, c in poly.entries]
                                              + ([entry] if lg == lag else [])))
             for tgt, lg, poly in relation.terms]
    return CoefficientRecurrence(relation.profile, tuple(terms), relation.inhom, relation.min_degree)


def test_packed_check_tests_every_class_of_exponents():
    # The width-4 (1,1) values and relation lie on even exponents.  Adding
    # q h(n-1) leaves the even class zero and the odd class not; raising
    # the relation to q R and adding h(n-1) does the opposite.  Both fail
    # at every degree, at the oracle's exponent, of the class that is not
    # zero; a check of one class alone passes one of them.  The (1,-1)
    # values alternate their classes from degree to degree.
    for profile in ((1, 1), (1, -1)):
        relation = width4_recurrence(profile)
        for extra, shift, parity in (((0, 1, 1), 0, 1), ((0, 0, 1), 1, 0)):
            report = _both(closed_form_width4(profile), _with_extra_term(relation, 1, extra, shift), 12)
            assert [n for n, _e, _c in report.failures] == list(range(2, 13)), (profile, extra)
            if profile == (1, 1):
                assert all(e % 2 == parity for _n, e, _c in report.failures), extra
        assert _both(closed_form_width4(profile), _with_extra_term(relation, 1, (0, 0, 0), 1), 12).holds


def test_h0_is_one_read_off_the_pack():
    # sign q^offset P(x) in the window q^6: 1 only for offset 0, sign +1 and
    # P = 1 in the slots that reach the window, whatever lies past them
    assert _Packed(1, 1, 3, 6, True, (0, (-1, 2), 1)).is_one()
    assert not _Packed(1, 1, 3, 6, True, (2, (-1, 2), 1)).is_one()
    assert not _Packed(1, 1, 3, 6, True, (0, (-1, 2), -1)).is_one()
    assert not _Packed(-1, 1, 3, 6, True, (0, (-1, 2), 1)).is_one()
    assert _Packed(-1, 1, 3, 6, True, (0, (-1, 2), -1)).is_one()
    assert not _Packed(1 + (1 << 16), 1, 6, 6, True).is_one()
    assert _Packed(1 + (1 << 48), 1, 6, 6, True).is_one()
    for form in [closed_form_width4(p) for p in W4] + [closed_form_width6(p) for p in W6]:
        for n_trunc in (1, 2, 7):
            assert next(form._read(Window(n_trunc))).is_one(), (form.profile, n_trunc)


def test_width6_zero_flags_agree_with_the_decoded_values(monkeypatch):
    # the zero flag tests the window's slots alone: a value whose only
    # nonzero digits lie past its window is zero, as its decoded series is
    for p in W6:
        for n_trunc in range(1, 81):
            for n, h in enumerate(closed_form_width6(p)._read(Window(n_trunc))):
                assert h.is_zero() == h.series.is_zero(), (p, n_trunc, n)
    # No shipped value is zero in its window with digits past it, so a
    # hand-made one: bases 0 and 1 share the shift 4 at n = 2, so G = q^4
    # (base_0 - base_1) = -q^5 + ..., and G - G + q G is zero below q^6 while
    # its part q G, which starts at q^5, holds digits at q^6.
    monkeypatch.setitem(_WIDTH6_DATA, (1, -1, 1), (lambda n, m: n * n + m * (m - 1),
                                                   lambda n: ((0, ((0, 1),)), (0, ((0, -1), (1, 1)))), 0))
    zeros = 0
    for n_trunc in range(1, 12):
        values = list(closed_form_width6((1, -1, 1))._read(Window(n_trunc)))
        assert [h.is_zero() for h in values] == [h.series.is_zero() for h in values], n_trunc
        zeros += sum(h.is_zero() for h in values)
    assert zeros


def test_packed_check_matches_oracle_on_derived_recurrences():
    euler = to_coefficient_recurrences(build_system("cylindric", (1,), normalized=False))[(1,)]
    assert _both(closed_form_euler(), euler, 12, Window(60)).holds
    # values exact below q^40 in a check at q^60: the residual is known below q^40
    short = list(islice(closed_form_euler().values(Window(40)), 13))
    assert _both(CoefficientSequence((1,), "short", lambda n, w: short[n]), euler, 12, Window(60)).holds
    doubled_values = [2 * h for h in islice(closed_form_euler().values(Window(60)), 13)]
    doubled = CoefficientSequence((1,), "doubled", lambda n, w: doubled_values[n])
    assert not _both(doubled, euler, 12, Window(60)).holds
    goellnitz = to_coefficient_recurrences(eliminate(build_system("skew-shifted", (1, -1, 1)), (1, -1, 1)))
    assert _both(closed_form_goellnitz(), goellnitz, 15, Window(300)).holds
    # the coupled width-4 system against the closed forms, (-1,-1) sharing
    # (1,1); then with (-1,-1) read as series, so degrees that mix its
    # values with packs in x move them all onto the q-grid
    system = build_system("skew-shifted", (1, -1), (1, 2, 1))
    forms = {p: closed_form_width4(p) for p in W4}
    forms[(-1, -1)] = forms[(1, 1)]
    for p, rec in to_coefficient_recurrences(system).items():
        assert _both(forms, rec, 12, Window(120)).holds, p
    forms[(-1, -1)] = CoefficientSequence((1, 1), "rows", lambda n, w: closed_form_width4((1, 1)).value(n, w))
    for p, rec in to_coefficient_recurrences(system).items():
        assert _both(forms, rec, 12, Window(120)).holds, p
    # solver values in a smaller window than the check's, an inhomogeneous
    # system, and fractional weights on the grids q^(1/2) and q^(1/6).  On
    # the last system h[-1,+1](7) starts at q^(21/2), so it is zero in its
    # window q^10: it adds nothing to degree 7, but it still bounds the
    # check there, and the relation holds
    for kind, seed, weights, window in [
        ("distinct", (1, -1), (0, 1), Window(15, 12)),
        ("cylindric", (-1, -1, 1), (Fraction(1, 2), 1, 1), Window(10, 8)),
        ("skew-shifted", (1, -1), (Fraction(1, 2), 1, Fraction(1, 2)), Window(10, 8)),
        ("cylindric", (1, -1), (Fraction(3, 2), Fraction(1, 3)), Window(10, 8)),
    ]:
        system = build_system(kind, seed, weights, normalized=False)
        sol = solve_fixed_point(system, window)
        sequences = {p: CoefficientSequence(p, "solver", lambda n, w, p=p: sol[p].z_slice(n)) for p in sol}
        for p, rec in to_coefficient_recurrences(system).items():
            report = _both(sequences, rec, window.z_truncation - rec.order(), Window(window.q_truncation + 5))
            assert report.failures == (), (kind, p)


def test_values_on_different_grids_meet_on_their_common_grid():
    # h_A(n) = q^(1/2) h_B(n) with h_A on the grid q^(1/2) and h_B on the
    # integers: each degree moves both onto q^(1/2); a bump of h_A(2) at
    # q^(5/2), or of h_B(3) at q^4, fails that degree alone
    window = Window(12)
    relation = CoefficientRecurrence((1,), (
        ((1,), 0, LinQPoly.from_entries([(0, 0, 1)])),
        ((2,), 0, LinQPoly.from_entries([(0, Fraction(1, 2), -1)])),
    ), (), 0)
    b = [make_series([(0, 0, 1)] * (n == 0) + [(0, n, 3), (0, 2 * n + 1, -BIG)], window) for n in range(5)]
    a = [make_series([(0, e + Fraction(1, 2), c) for _z, e, c in h.items()], window) for h in b]
    for bumped, failing in (("none", []), ("a", [2]), ("b", [3])):
        values = {(1,): list(a), (2,): list(b)}
        if bumped == "a":
            values[(1,)][2] = a[2] + make_series([(0, Fraction(5, 2), 1)], window)
        elif bumped == "b":
            values[(2,)][3] = b[3] + make_series([(0, 4, 1)], window)
        sequences = {p: CoefficientSequence(p, "grids", lambda n, w, p=p: values[p][n]) for p in values}
        report = _both(sequences, relation, 4, window)
        assert [n for n, _e, _c in report.failures] == failing, bumped


def test_a_zero_value_still_bounds_the_residual():
    # h(n) = q h'(n) at n = 1, with h'(1) zero in its window q^2 (its true
    # value may start at q^5): the residual q^6 - q * 0 is known below q^3
    # only, where it vanishes, so the relation holds there
    relation = CoefficientRecurrence((1,), (
        ((1,), 0, LinQPoly.from_entries([(0, 0, 1)])),
        ((2,), 0, LinQPoly.from_entries([(0, 1, -1)])),
    ), (), 1)
    values = {(1,): [one(Window(20)), make_series([(0, 6, 1)], Window(20))],
              (2,): [one(Window(20)), zero(Window(2))]}
    sequences = {p: CoefficientSequence(p, "cut", lambda n, w, p=p: values[p][n]) for p in values}
    assert _both(sequences, relation, 1, Window(20)).failures == ()
    value_fn = lambda tgt, m: values[tgt][m]
    assert relation.evaluate(1, value_fn, Window(20)).window == Window(3)
    # h'(-1) is exactly zero and bounds nothing: at degree 0 the residual
    # h'(0) - q^(-1) h'(-1) = q^19 is read up to the window q^20
    relation = CoefficientRecurrence((1,), (
        ((2,), 0, LinQPoly.from_entries([(0, 0, 1)])),
        ((2,), 1, LinQPoly.from_entries([(1, -1, -1)])),
    ))
    values[(2,)] = [make_series([(0, 19, 1)], Window(20))]
    assert _both(sequences, relation, 0, Window(20)).failures == ((0, 19, 1),)


BIG = 2**200
HALVES = st.sampled_from([Fraction(k, 2) for k in range(5)])


@st.composite
def recurrences_with_values(draw):
    """A relation c0 h(n) + sum over lags >= 1 of C(n) h(n - lag) = I(n),
    with c0 = +-1, integral and half-integral exponents, and the values it
    determines from drawn initial ones (coefficients up to 2^200, leading
    zeros, the grid q^(1/2)); then one value bumped or cut to a smaller window."""
    order = draw(st.integers(1, 3))
    n_max = order + draw(st.integers(0, 5))
    window = Window(draw(st.integers(1, 24)), None, draw(st.sampled_from((1, 2))))
    c0 = draw(st.sampled_from((1, -1)))
    coefficient = st.integers(-3, 3).filter(bool)
    rest = []
    for lag in range(1, order + 1):
        poly = LinQPoly.from_entries(draw(st.lists(st.tuples(HALVES, HALVES, coefficient), max_size=3)))
        if not poly.is_zero():
            rest.append(((1,), lag, poly))
    inhom = tuple(
        (deg, tuple(draw(st.lists(st.tuples(HALVES, coefficient), min_size=1, max_size=2))))
        for deg in draw(st.sets(st.integers(order, n_max), max_size=2))
    )
    rest_relation = CoefficientRecurrence((1,), tuple(rest), inhom, order)
    relation = CoefficientRecurrence(
        (1,), (((1,), 0, LinQPoly.from_entries([(0, 0, c0)])), *rest), inhom, order)
    top = window.q_truncation * 2 + 2
    values = []
    for n in range(order):
        lead = draw(st.integers(0, top))
        keys = draw(st.lists(st.integers(lead, top), max_size=6))
        big = st.integers(-BIG, BIG) | st.integers(-3, 3)
        values.append(TruncatedSeries({(0, k): draw(big) for k in keys}, window.q_truncation, None, 2))
    for n in range(order, n_max + 1):
        value_fn = lambda tgt, m: values[m] if m >= 0 else zero(window)
        values.append(-c0 * rest_relation.evaluate(n, value_fn, window))
    k = draw(st.integers(0, n_max))
    change = draw(st.sampled_from(("bump", "cut", "none")))
    if change == "bump":
        e = Fraction(draw(st.integers(0, top)), 2)
        bump = draw(st.sampled_from((1, -1, BIG, -BIG)))
        values[k] = values[k] + make_series([(0, e, bump)], values[k].window)
    elif change == "cut":
        h = values[k]
        cut = draw(st.integers(1, window.q_truncation))
        values[k] = TruncatedSeries(dict(h.coeffs), cut, None, h.q_scale)
    sequence = CoefficientSequence((1,), "drawn", lambda n, w: values[n] if n < len(values) else zero(w))
    return sequence, relation, n_max, window


@settings(max_examples=max(300, settings.default.max_examples))  # 1000 under the ci profile
@given(recurrences_with_values())
def test_packed_check_matches_oracle_on_drawn_relations(case):
    _both(*case)


def _cut_at_one(e):
    """h(n) - q^e h(n - 1) from n = 2, with h(0) = 1, h(1) zero in the
    window q^2 and h(2) = 1 + q: at degree 2 the residual is exact below
    q^(2 + e) only."""
    rec = CoefficientRecurrence((1,), (
        ((1,), 0, LinQPoly.from_entries([(0, 0, 1)])),
        ((1,), 1, LinQPoly.from_entries([(0, e, -1)])),
    ), (), 2)
    values = [one(Window(20)), zero(Window(2)), make_series([(0, 0, 1), (0, 1, 1)], Window(20))]
    return CoefficientSequence((1,), "cut", lambda n, w: values[n] if n < 3 else zero(w)), rec, values


def test_a_residual_exact_nowhere_is_vacuous():
    # q^(-3) against h(1) zero in q^2 bounds the residual at q^(-1), and
    # q^(-2) at q^0: neither degree compares anything
    for e in (-3, -2):
        seq, rec, _values = _cut_at_one(e)
        assert _both(seq, rec, 2, Window(20)) == CheckReport(True, 2, Window(20), (), (2,), True, 2), e
    seq, rec, _values = _cut_at_one(-1)  # exact below q^1: 1 + q - 0 fails at q^0
    assert _both(seq, rec, 2, Window(20)).failures == ((2, 0, 1),)


def test_evaluate_refuses_a_residual_exact_nowhere():
    for e, bound in ((-3, -1), (-2, 0)):
        _seq, rec, values = _cut_at_one(e)
        with pytest.raises(ValueError, match=r"degree 2 is exact below q\^%d only" % bound):
            rec.evaluate(2, lambda tgt, m: values[m], Window(20))


def test_packed_check_raises_as_evaluate_does():
    # a coefficient q^(n - 3) against the nonzero h(0) at degree 1
    rec = CoefficientRecurrence((1,), (
        ((1,), 0, LinQPoly.from_entries([(0, 0, 1)])),
        ((1,), 1, LinQPoly.from_entries([(1, -3, 1)])),
    ), (), 1)
    outcome = _both(closed_form_euler(), rec, 4, Window(20))
    assert outcome[0] == "ValueError" and "negative" in outcome[1]
    # an inhomogeneous constant q^(-1) at degree 1
    rec = CoefficientRecurrence((1,), rec.terms[:1], ((1, ((-1, 1),)),), 1)
    assert _both(closed_form_euler(), rec, 4, Window(20)) == (
        "ValueError", "inhomogeneous exponent q^-1 is negative at degree 1")


def _against_zero(values):
    """h(n) = values[n] (zero past the list), and the relation h(n) = 0 from n = 1."""
    seq = CoefficientSequence((1,), "given", lambda n, w: values[n] if n < len(values) else zero(w))
    rec = CoefficientRecurrence((1,), (((1,), 0, LinQPoly.from_entries([(0, 0, 1)])),), (), 1)
    return seq, rec


def test_zero_test_reports_the_last_exponent_of_the_window():
    window = Window(40)
    for c in (1, -1, BIG):
        seq, rec = _against_zero([one(window), make_series([(0, 39, c)], window)])
        assert _both(seq, rec, 1, window).failures == ((1, 39, c),)


def test_zero_test_ignores_what_lies_past_the_window():
    # h(1) = q^40 in a wider window, and q * h(1) for h(1) = q^39: the
    # residual lies at q^40, outside the window of the check
    window = Window(40)
    seq, rec = _against_zero([one(window), make_series([(0, 40, BIG)], Window(45))])
    report = _both(seq, rec, 1, window)
    assert report.failures == () and report.holds
    shifted = CoefficientRecurrence((1,), (((1,), 0, LinQPoly.from_entries([(0, 1, 1)])),), (), 1)
    seq, _rec = _against_zero([one(window), make_series([(0, 39, 1)], window)])
    assert _both(seq, shifted, 1, window).holds


def test_zero_test_does_not_alias_at_the_slot_boundary():
    # h(0..2) = M and h(3) = M - q against h(n) + h(n-1) + h(n-2) + h(n-3):
    # M = 2^14 needs 2 bytes and the weight 4 one more, and in slots of 2
    # bytes the two terms of the residual 4M - q = 2^16 - q would cancel
    window = Window(10)
    m = 2**14
    values = [make_series([(0, 0, m)], window)] * 3 + [make_series([(0, 0, m), (0, 1, -1)], window)]
    seq = CoefficientSequence((1,), "given", lambda n, w: values[n] if n < 4 else zero(w))
    unit = LinQPoly.from_entries([(0, 0, 1)])
    rec = CoefficientRecurrence((1,), tuple(((1,), lag, unit) for lag in range(4)), (), 3)
    assert _both(seq, rec, 3, window).failures == ((3, 0, 2**16),)


def test_values_with_a_z_degree_are_evaluated():
    # the packs hold pure q-series: a value with a z^1 row sends the degrees
    # that use it to the series residual, which reports or passes as before
    window = Window(20)
    bivariate = make_series([(0, 3, 1), (1, 2, 5)], window)
    seq, rec = _against_zero([one(window), bivariate])
    assert [n for n, _e, _c in _both(seq, rec, 1, window).failures] == [1]
    steady = CoefficientRecurrence((1,), (
        ((1,), 0, LinQPoly.from_entries([(0, 0, 1)])),
        ((1,), 1, LinQPoly.from_entries([(0, 0, -1)])),
    ), (), 1)
    same = CoefficientSequence((1,), "same", lambda n, w: bivariate)
    assert check_closed_form(same, steady, 4, window).failures == ()


def test_criterion_11_checks_read_the_streams_packs(monkeypatch):
    # no value is packed from rows or decoded to rows, h(0) = 1 included,
    # and no width-4 value is spread onto the q-grid
    calls = []
    for module, name in ((series, "_pack"), (series, "_unpack"), (recur, "_signed_spread")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, name=name, real=real: calls.append(name) or real(*args))
    for form, relation, profile, n_max in CRITERION_11:
        calls.clear()
        assert check_closed_form(form(profile), relation(profile), n_max).holds, profile
        assert calls == [], profile


def test_criterion_11_guard_trips_and_widenings_are_pinned(monkeypatch):
    # a guard trip redoes a degree in slots of s + 1 + s // 4 bytes: each
    # pass of _times_binomials tests its guard from one _guard, so trips are
    # passes less degrees; _widen counts the stream's and the check's
    # re-slottings.  Slots that grew a byte at a time took 73 trips and 645
    # widenings here.  Width-6 bases cut to their own reach trip the same
    # guards, two of them at a later degree, where one more base is widened.
    # The check widens its kept packs where its slots grow, and a value as
    # it enters only where its own slots are narrower: a value whose digits
    # leave its top byte free (the fit test) keeps its own slots.  So the
    # width-6 values enter unmoved at all but a few degrees, and K(n) enters
    # widened, in x, at 12 of the 41 degrees of each width-4 check.
    calls = dict.fromkeys(("_guard", "_times_binomials", "_widen"), 0)

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    spy(series, "_guard")
    spy(recur, "_times_binomials")
    spy(series, "_widen")
    monkeypatch.setattr(recur, "_widen", series._widen)
    counts = []
    for form, relation, profile, n_max in CRITERION_11:
        calls.update(dict.fromkeys(calls, 0))
        assert check_closed_form(form(profile), relation(profile), n_max).holds, profile
        counts.append((calls["_guard"] - calls["_times_binomials"], calls["_widen"]))
    assert counts == [(7, 39)] * 3 + [(5, 39), (5, 39), (6, 49), (5, 38)]


def test_shipped_checks_take_the_packed_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("evaluate called")

    monkeypatch.setattr(CoefficientRecurrence, "evaluate", refuse)
    for p in W4:
        assert check_closed_form(closed_form_width4(p), width4_recurrence(p), 12).holds, p
    for p in W6:
        assert check_closed_form(closed_form_width6(p), width6_recurrence(p), 10).holds, p
