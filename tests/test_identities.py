"""Tests for the identity case registry, evaluators, and reports."""

import json
import pathlib
import tracemalloc
from functools import partial
from itertools import islice
from types import SimpleNamespace

import pytest

from cylq import cli, identities
from cylq.identities import (
    compare_series,
    get_case,
    registry,
    report_text,
    sum_alternating_mod4,
    sum_double_mod7,
    sum_euler,
    sum_goellnitz,
    sum_mod12,
    sum_rogers_ramanujan,
    sum_schmidt_distinct_even,
    sum_schmidt_distinct_odd,
    sum_signed_distinct_mod2,
    verify,
    Side,
)
from cylq.lattice import (
    count_distinct_by_marked_sum,
    count_partitions_by_hook,
    schmidt_genfun,
    signed_distinct_genfun,
)
from cylq.products import ProductSpec
from cylq.recur import closed_form_width6, width6_min_exponent
from cylq.series import (TruncatedSeries, Window, gauss_binomial, inv_poch_finite, monomial, one,
                         poch_finite, poch_product, qf, zero, zf)

EXPECTED_LABELS = {
    "coefficient-recurrences",
    "cylinder-products",
    "distinct-pair-chains",
    "euler-sum",
    "goellnitz-sums",
    "hook-counts",
    "mixed-weighted-pair",
    "mod12-sums",
    "mod4-alternating-sum",
    "mod5-chain-1",
    "mod5-chain-2",
    "mod7-double-sum",
    "open-chain-products",
    "open-chain-weighted-example",
    "product-embedding",
    "rogers-ramanujan",
    "schmidt-marginals",
    "schmidt-refined",
    "signed-distinct-mod2",
    "solver-vs-enumeration",
    "symmetric-mirror-counts",
    "symmetric-width4-bivariate",
    "width4-coefficient-forms",
    "width6-coefficient-forms",
}


def test_registry_labels_and_metadata():
    assert set(registry()) == EXPECTED_LABELS
    for label in registry():
        case = get_case(label)
        assert case.label == label
        assert case.description
        assert case.expected in ("equal", "report-only")
        assert case.window.q_truncation is not None


def test_unknown_label_raises_with_known_labels_listed():
    with pytest.raises(KeyError) as err:
        get_case("no-such-case")
    assert "euler-sum" in str(err.value)


def test_every_case_at_default_window():
    """Equal cases pass; report-only cases report, never 'mismatch'."""
    for label in registry():
        rep = verify(label)
        case = get_case(label)
        if case.expected == "equal":
            assert rep["status"] == "pass", report_text(rep)
            assert rep["equal"] is True
        else:
            assert rep["status"] == "report"
        json.dumps(rep)  # every report is JSON-serializable


@pytest.mark.parametrize("window", [Window(1, 0), Window(1)], ids=["q1-z0", "q1"])
def test_every_case_reports_at_smallest_window(window):
    """The smallest windows yield a report from every case, never a raise;
    the z-bound goes to the cases that have a z-window, which others refuse."""
    for label in registry():
        has_z = get_case(label).window.z_truncation is not None
        rep = verify(label, window if has_z else Window(window.q_truncation))
        assert rep["case"] == label and rep["comparisons"]
        json.dumps(rep)


def test_schmidt_refined_checks_its_diamonds_in_the_whole_window():
    """Both diamond comparisons pass in the reported window, past q^15 and
    z^15 too, with nothing to note."""
    for window in (Window(21, 20), Window(30, 30)):
        diamonds = [c for c in verify("schmidt-refined", window)["comparisons"]
                    if c["label"].startswith("diamonds")]
        assert [(c["equal"], c["note"]) for c in diamonds] == [(True, "")] * 2


def test_every_case_refuses_a_window_without_a_q_bound():
    for label in registry():
        with pytest.raises(ValueError, match="identity evaluation needs a finite q-window"):
            verify(label, Window(None))


def test_halved_chain_reports_an_odd_exponent_as_a_first_difference(monkeypatch):
    """A width-4 form whose chain gains q^1 halves to a chain with a term at
    q^(1/2): an ordinary unequal comparison, not a refusal."""
    real = identities.closed_form_width4

    def patched(profile):
        def values(window):
            stream = real(profile).values(window)
            yield next(stream) + monomial(0, 1, window)
            yield from stream
        return SimpleNamespace(values=values)

    monkeypatch.setattr(identities, "closed_form_width4", patched)
    by_label = {c["label"]: c for c in verify("signed-distinct-mod2", Window(12))["comparisons"]}
    halved = by_label["halved chain = product"]
    assert halved["equal"] is False
    assert halved["first_difference"] == {"z_degree": 0, "q_exponent": "1/2", "lhs": 1, "rhs": 0}
    assert halved["coefficients"] == [halved["first_difference"]]


def test_report_shape_and_conventions():
    rep = verify("mixed-weighted-pair", Window(8))
    assert rep["schema"] == "cylq-report/1"
    assert rep["case"] == "mixed-weighted-pair"
    assert rep["window"] == {"q_truncation": 8, "z_truncation": None, "q_scale": 1}
    assert rep["conventions"]["pochhammer"].startswith("standard")
    assert "w3_inequality" in rep["conventions"]
    assert rep["status"] == "report" and rep["equal"] is False
    by_label = {c["label"]: c for c in rep["comparisons"]}
    bad = by_label["closed chain vs claimed product"]
    assert bad["equal"] is False
    assert bad["first_difference"] == {
        "z_degree": 0,
        "q_exponent": 1,
        "lhs": 3,
        "rhs": 4,
    }
    assert 0 < len(bad["coefficients"]) <= 12
    assert bad["coefficients"][0] == bad["first_difference"]
    for c in rep["comparisons"]:
        assert c["lhs"]["provenance"] and c["rhs"]["provenance"]
    text = report_text(rep)
    assert "first difference at z^0 q^1: 3 vs 4" in text
    assert "[DIFF]" in text and "[ok]" in text


def test_window_override_is_recorded():
    rep = verify("euler-sum", Window(10))
    assert rep["window"]["q_truncation"] == 10
    assert rep["status"] == "pass"


def _digest(report):
    return {
        "status": report["status"],
        "window": report["window"],
        "comparisons": [[c["label"], c["equal"], c["first_difference"], c["note"]]
                        for c in report["comparisons"]],
    }


def test_default_window_reports_match_their_golden_digests():
    """Each case's default-window report keeps its status, window and, per
    comparison, label, outcome, first difference and note."""
    golden = json.loads(pathlib.Path(__file__).with_name("report_digests.json").read_text())
    assert sorted(golden) == list(registry())
    for label in registry():
        assert _digest(verify(label)) == golden[label], label


@pytest.mark.parametrize("label, distinct", [("cylinder-products", 9), ("open-chain-products", 8)])
def test_product_sweeps_expand_each_distinct_product_once(label, distinct, monkeypatch):
    calls = []
    expand = ProductSpec.expand
    monkeypatch.setattr(ProductSpec, "expand", lambda spec, window: calls.append(spec) or expand(spec, window))
    report = verify(label)
    assert report["status"] == "pass"
    assert len(calls) == len(set(calls)) == distinct
    # every profile is still enumerated and compared with its own product
    assert len(report["comparisons"]) == {"cylinder-products": 30, "open-chain-products": 14}[label]


@pytest.mark.parametrize("label", sorted(EXPECTED_LABELS))
def test_window_without_z_runs_and_reports_the_case_z_as_the_cli_does(label, capsys):
    """A window without a z-bound takes the case's own z-bound, in the API
    as in ``cylq verify --N``, and the report records it."""
    cli.main(["verify", "--case", label, "--N", "14", "--format", "json"])
    (from_cli,) = json.loads(capsys.readouterr().out)["reports"]
    report = verify(label, Window(14))
    assert report == from_cli
    assert report["window"]["z_truncation"] == get_case(label).window.z_truncation


def test_a_window_field_the_case_would_not_use_is_refused():
    """A z-bound on a case without a z-window, or another q-grid, would be
    reported but not used: ``verify`` refuses it and names the case."""
    for label, window in [("euler-sum", Window(10, 3)), ("euler-sum", Window(10, None, 2)),
                          ("schmidt-refined", Window(10, 5, 2)), ("hook-counts", Window(10, 0))]:
        with pytest.raises(ValueError, match="case %s " % label):
            verify(label, window)
        with pytest.raises(ValueError, match="case %s " % label):
            get_case(label).run(window)
    assert verify("schmidt-refined", Window(10, 5))["window"]["z_truncation"] == 5


def test_compare_series_negative_control():
    w = Window(12)
    lhs = poch_product([], [qf(1, 1)], w)
    # build a series differing in exactly one coefficient
    bumped = dict(lhs.coeffs)
    bumped[(0, 5)] = bumped.get((0, 5), 0) + 1
    rhs = TruncatedSeries(bumped, 12, None, 1)
    cmp = compare_series(
        "control", lhs, Side("a", "product"), rhs, Side("b", "product")
    )
    assert cmp.equal is False
    assert cmp.first_difference == (0, 5, lhs.coefficient(0, 5), lhs.coefficient(0, 5) + 1)
    assert cmp.rows == (cmp.first_difference,)


def test_mod5_chain_expected_mismatch_pattern():
    """Entries always match their own product and the shared core; only
    the width-3 entry matches the printed chain target."""
    for label in ("mod5-chain-1", "mod5-chain-2"):
        rep = verify(label, Window(9))
        for c in rep["comparisons"]:
            if "direct product" in c["label"] or "shared core" in c["label"]:
                assert c["equal"], c["label"]
            elif c["label"].startswith("entry 1"):
                assert c["equal"], c["label"]
            else:
                assert not c["equal"], c["label"]
                assert c["first_difference"]["q_exponent"] == 5


def test_sum_evaluator_spot_values():
    w = Window(12)
    euler = sum_euler(w)
    assert euler.coefficient(0, 5) == 7  # partitions of 5
    rr = sum_rogers_ramanujan(0, w)
    assert rr.coefficient(0, 4) == 2  # 4 and 1+1+1+1
    gg2 = sum_goellnitz("GG2", w)
    assert gg2.coefficient(0, 7) == 3  # 7, 4+1+1+1, seven ones


# ---------------------------------------------------------------------------
# from-scratch sum evaluators: the oracles of the running sums
# ---------------------------------------------------------------------------
# Each builds every summand from its Pochhammer symbols, adds it to the total
# and stops by its own bound on the first exponent.


def oracle_euler(window):
    n_trunc = window.q_truncation
    w = Window(n_trunc)
    total = zero(w)
    for n in range(n_trunc):
        total = total + inv_poch_finite(qf(1, 1), n, w).times_monomial(0, n)
    return total


def oracle_rogers_ramanujan(shift, window):
    n_trunc = window.q_truncation
    w = Window(n_trunc)
    total = zero(w)
    n = 0
    while n * n + shift * n < n_trunc:
        total = total + inv_poch_finite(qf(1, 1), n, w).times_monomial(0, n * n + shift * n)
        n += 1
    return total


def oracle_alternating_mod4(window):
    n_trunc = window.q_truncation
    d_cap = 10 if window.z_truncation is None else window.z_truncation
    w = Window(n_trunc, d_cap)
    total = zero(w)
    n = 0
    while 2 * n <= d_cap and 4 * n * n < n_trunc:
        c = (
            poch_finite(qf(2, 4), n, w)
            * poch_finite(qf(4, 4, -1), n, w)
            * inv_poch_finite(qf(4, 4), 2 * n, w)
        ).times_monomial(0, 4 * n * n, (-1) ** n)
        total = total + c.times_monomial(2 * n)
        if 2 * n + 1 <= d_cap:
            unit = TruncatedSeries({(0, 0): 1, (0, 4 * n + 2): 1}, n_trunc, d_cap, 1).invert()
            total = total - (c * unit).times_monomial(2 * n + 1, 4 * n + 1)
        n += 1
    return total


def oracle_signed_distinct_mod2(window):
    n_trunc = window.q_truncation
    w = Window(n_trunc)
    total = zero(w)
    n = 0
    while 2 * n * n + n < n_trunc:
        c = (
            poch_finite(qf(1, 2), n + 1, w)
            * poch_finite(qf(2, 2, -1), n, w)
            * inv_poch_finite(qf(2, 2), 2 * n + 1, w)
        )
        total = total + c.times_monomial(0, 2 * n * n + n, (-1) ** n)
        n += 1
    return total


def oracle_goellnitz(variant, window):
    n_trunc = window.q_truncation
    w = Window(n_trunc)
    total = zero(w)
    n = 0
    while n * n < n_trunc:
        if variant == "LG2":  # q^(n^2) prod_{j<n} (q + q^(2j)) / (q^2;q^2)_n
            c = one(w)
            for j in range(n):
                c = c * TruncatedSeries({(0, 1): 1, (0, 2 * j): 1}, n_trunc, None, 1)
            c = c * inv_poch_finite(qf(2, 2), n, w)
            shift = n * n
        else:
            c = poch_finite(qf(1, 2, -1), n, w) * inv_poch_finite(qf(2, 2), n, w)
            shift = {"GG1": n * n + 2 * n, "LG1": n * n + n, "GG2": n * n}[variant]
        total = total + c.times_monomial(0, shift)
        n += 1
    return total


def oracle_mod12(profile, window):
    # q^(3 floor(n/2)^2 - 2n - 4) bounds every summand of h(n) from below
    n_trunc = window.q_truncation
    w = Window(n_trunc)
    floor_bound = lambda k: 3 * (k // 2) ** 2 - 2 * k - 4  # noqa: E731
    total = zero(w)
    for n, h in enumerate(closed_form_width6(profile).values(w)):
        if n >= 4 and floor_bound(n) >= n_trunc and floor_bound(n + 1) >= n_trunc:
            return total
        total = total + h
    return total


def oracle_double_mod7(window):
    n_trunc = window.q_truncation
    w = Window(n_trunc)
    total = zero(w)
    n1 = 0
    while 3 * n1 * n1 < 4 * n_trunc:
        base = inv_poch_finite(qf(1, 1), n1, w)
        for n2 in range(2 * n1 + 1):
            e = n1 * n1 + n2 * n2 - n1 * n2 + n1 + n2
            if e < n_trunc:
                total = total + (base * gauss_binomial(2 * n1, n2, w)).times_monomial(0, e)
        n1 += 1
    return total


def oracle_schmidt_distinct_odd(window):
    n_trunc = window.q_truncation
    d_cap = n_trunc if window.z_truncation is None else window.z_truncation
    w = Window(n_trunc, d_cap)
    total = zero(w)
    n = 0
    while 2 * n <= d_cap and n * (n + 1) < n_trunc:
        t = inv_poch_finite(zf(1, 1, 1), n, w) * inv_poch_finite(zf(1, 1, 1), n + 1, w)
        total = total + t.times_monomial(2 * n, n * (n + 1))
        n += 1
    return total


def oracle_schmidt_distinct_even(window):
    n_trunc = window.q_truncation
    d_cap = n_trunc if window.z_truncation is None else window.z_truncation
    w = Window(n_trunc, d_cap)
    total = one(w)
    n = 1
    while 2 * n - 1 <= d_cap and n * (n - 1) < n_trunc:
        t = inv_poch_finite(zf(1, 0, 1), n, w) * inv_poch_finite(zf(1, 1, 1), n, w)
        total = total + t.times_monomial(2 * n - 1, n * (n - 1))
        n += 1
    return total


W6 = ((1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1))
# (label, sum, oracle, bivariate)
SUM_ORACLES = [
    ("euler", sum_euler, oracle_euler, False),
    *[("rogers-ramanujan-%d" % s, partial(sum_rogers_ramanujan, s), partial(oracle_rogers_ramanujan, s), False)
      for s in (0, 1)],
    ("signed-distinct-mod2", sum_signed_distinct_mod2, oracle_signed_distinct_mod2, False),
    *[("goellnitz-" + v, partial(sum_goellnitz, v), partial(oracle_goellnitz, v), False)
      for v in ("GG1", "LG1", "GG2", "LG2")],
    *[("mod12-" + ",".join(map(str, p)), partial(sum_mod12, p), partial(oracle_mod12, p), False) for p in W6],
    ("double-mod7", sum_double_mod7, oracle_double_mod7, False),
    ("alternating-mod4", sum_alternating_mod4, oracle_alternating_mod4, True),
    ("schmidt-distinct-odd", sum_schmidt_distinct_odd, oracle_schmidt_distinct_odd, True),
    ("schmidt-distinct-even", sum_schmidt_distinct_even, oracle_schmidt_distinct_even, True),
]


@pytest.mark.parametrize("fast, oracle, bivariate", [c[1:] for c in SUM_ORACLES],
                         ids=[c[0] for c in SUM_ORACLES])
def test_running_sums_equal_the_from_scratch_oracles(fast, oracle, bivariate):
    ns = (1, 2, 3, 5, 8, 13, 30, 41, 81, 200)
    if bivariate:  # the fallback z-window grows with N for the Schmidt sums
        windows = [Window(n, d) for n in ns for d in (0, 1, 3, 10, 20)] + [Window(n) for n in ns[:7]]
    else:
        windows = [Window(n) for n in ns]
    for window in windows + [Window(30, 3, 2)]:
        got, want = fast(window), oracle(window)
        assert (got.window, got._rows) == (want.window, want._rows), window


def test_sum_euler_adds_each_summand_as_it_is_made():
    # holding every summand q^n / (q;q)_n until one sum takes O(N^2) memory
    # (2 MiB at q^400); adding each as it is made keeps O(N)
    tracemalloc.start()
    try:
        sum_euler(Window(400))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 2**20


def test_sum_double_mod7_adds_each_summand_as_it_is_made():
    # every (n1, n2) summand held in one list until one sum peaks at 2.7 MiB
    # at q^400; running each row's terms along n2 and adding each summand as
    # it is made keeps the peak near 0.07 MiB
    tracemalloc.start()
    try:
        sum_double_mod7(Window(400))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 2**20


def test_signed_distinct_enumeration_small_values():
    s = signed_distinct_genfun(Window(6))
    # q^3: (3) and (2,1) each carry one odd part
    assert s.coefficient(0, 3) == -2
    assert s.coefficient(0, 2) == 1
    assert s.coefficient(0, 1) == -1


def test_marked_enumeration_hand_count():
    s = schmidt_genfun("distinct", Window(6, 4), "odd")
    # largest part 3, odd-position sum 4: only (3, 2, 1)
    assert s.coefficient(3, 4) == 1
    d = schmidt_genfun("diamond", Window(4, 3))
    # anchor sum 1: diamonds (1) and (1; x, y) for (x, y) != (0, 0), x, y <= 1
    assert d.coefficient(1, 1) == 4


def test_hook_tables_hand_count():
    t = count_distinct_by_marked_sum(6, "odd")
    assert t[(3, 4)] == 1  # (3,2,1)
    h = count_partitions_by_hook(6)
    assert h[(3, 4)] == 1  # (2,2) is the only partition of 4 with hook 3
    # both tables record the empty partition at (0, 0)
    assert t[(0, 0)] == 1 and h[(0, 0)] == 1


def test_mod12_stopping_rule_matches_brute_force():
    w = Window(20)
    for profile in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)):
        brute = zero(w)  # past the stream's end every value is zero in w
        for n, h in enumerate(islice(closed_form_width6(profile).values(w), 40)):
            if width6_min_exponent(profile, n) < 20:
                brute = brute + h
        assert sum_mod12(profile, w).first_difference(brute) is None


def test_sum_mod12_is_the_sum_of_its_stream():
    # the closed form's stream ends where sum_mod12 stops: summing the whole
    # stream by plain additions gives the same series and window
    for profile in W6:
        for n_trunc in range(1, 81):
            w = Window(n_trunc)
            total = zero(w)
            for h in closed_form_width6(profile).values(w):
                total = total + h
            got = sum_mod12(profile, w)
            assert (got.window, got._rows) == (total.window, total._rows), (profile, n_trunc)


def test_sum_mod12_rejects_infinite_window():
    with pytest.raises(ValueError):
        sum_mod12((1, 1, 1), Window(None))


def test_marked_enumeration_requires_z_cap():
    with pytest.raises(ValueError):
        schmidt_genfun("unrestricted", Window(8))
