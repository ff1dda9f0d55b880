"""Tests for the exact truncated-series ring."""

from fractions import Fraction as Fr
from itertools import count
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cylq.series import (
    PochFactor,
    TruncatedSeries,
    Window,
    gauss_binomial,
    inv_poch_finite,
    make_series,
    monomial,
    one,
    poch_finite,
    poch_infinite,
    poch_product,
    qf,
    series_from_json,
    series_to_json,
    theta_sum,
    zero,
    zf,
)
from cylq.series import (_UNIT_STEP, _UNWINDOWED_LIMIT, _combine, _div_binomial, _doublings, _from_pack,
                         _from_rows, _guard, _min_bound, _mul_binomial, _pack, _poch, _rebase, _running, _shift_sum,
                         _signed_spread, _slot_size, _times_binomials, _unpack, _widen)

W = Window(24)
WB = Window(16, 8)


def test_finite_pochhammer_is_standard():
    # (q;q)_3 = (1-q)(1-q^2)(1-q^3): the j=0 factor must be (1-q)
    s = poch_finite(qf(1, 1), 3, Window(None))
    expect = make_series(
        [(0, 0, 1), (0, 1, -1), (0, 2, -1), (0, 4, 1), (0, 5, 1), (0, 6, -1)],
        Window(None),
    )
    assert s == expect


def test_finite_pochhammer_with_z():
    # (zq^3; q^4)_2 = (1 - zq^3)(1 - zq^7)
    s = poch_finite(zf(1, 3, 4), 2, Window(None, 4))
    expect = make_series(
        [(0, 0, 1), (1, 3, -1), (1, 7, -1), (2, 10, 1)], Window(None, 4)
    )
    assert s == expect


def test_negative_sign_factor():
    # (-q;q)_2 = (1+q)(1+q^2)
    s = poch_finite(qf(1, 1, -1), 2, Window(None))
    expect = make_series([(0, 0, 1), (0, 1, 1), (0, 2, 1), (0, 3, 1)], Window(None))
    assert s == expect


def test_euler_pentagonal():
    s = poch_infinite(qf(1, 1), Window(27))
    expect = make_series(
        [(0, 0, 1), (0, 1, -1), (0, 2, -1), (0, 5, 1), (0, 7, 1),
         (0, 12, -1), (0, 15, -1), (0, 22, 1), (0, 26, 1)],
        Window(27),
    )
    assert s == expect


def test_partition_numbers():
    p = poch_infinite(qf(1, 1), W).invert()
    got = [p.coefficient(0, n) for n in range(12)]
    assert got == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56]


def test_gauss_binomial_example():
    g = gauss_binomial(4, 2, Window(None))
    expect = make_series(
        [(0, 0, 1), (0, 1, 1), (0, 2, 2), (0, 3, 1), (0, 4, 1)], Window(None)
    )
    assert g == expect
    assert gauss_binomial(3, 5, W).is_zero()
    assert gauss_binomial(3, -1, W).is_zero()
    assert gauss_binomial(5, 0, Window(None)) == one(Window(None))


def test_gauss_binomial_symmetry_and_pascal():
    # [n m] = [n n-m]; [n m] = [n-1 m-1] + q^m [n-1 m]
    for n in range(7):
        for m in range(n + 1):
            a = gauss_binomial(n, m, Window(None))
            assert a == gauss_binomial(n, n - m, Window(None))
            if 0 < m:
                b = gauss_binomial(n - 1, m - 1, Window(None))
                c = gauss_binomial(n - 1, m, Window(None)).times_monomial(0, m)
                total = b + c
                assert a.first_difference(total) is None


def test_theta_is_euler_product():
    assert theta_sum(1, 2, W).agrees_with(poch_infinite(qf(1, 1), W))


def test_theta_2_3_is_mod5_product():
    prod = poch_product([qf(2, 5), qf(3, 5), qf(5, 5)], [], W)
    assert theta_sum(2, 3, W).agrees_with(prod)


def test_theta_rational_arguments():
    # theta(b1,b2)(q) = theta(1,2) at q -> q^b with b = 1/2: grid scale 2
    t = theta_sum(Fr(1, 2), 1, Window(10))
    base = theta_sum(1, 2, Window(20))
    for m in range(20):
        assert t.coefficient(0, Fr(m, 2)) == base.coefficient(0, m)


def test_ring_axioms_spot():
    a = poch_finite(zf(1, 1, 1), 3, WB)
    b = poch_infinite(qf(2, 3), WB)
    c = monomial(2, 5, WB, coefficient=-4)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert (a - a).is_zero()
    assert a * one(WB) == a
    assert (a * zero(WB)).is_zero()


def test_invert_roundtrip():
    a = poch_finite(zf(1, 1, 1), 4, WB)
    inv = a.invert()
    assert (a * inv).agrees_with(one(WB))
    # (q;q)_inf * 1/(q;q)_inf == 1
    e = poch_infinite(qf(1, 1), W)
    assert (e * e.invert()).agrees_with(one(W))


def test_invert_needs_unit():
    with pytest.raises(ValueError):
        make_series([(0, 1, 1)], W).invert()
    with pytest.raises(ValueError):
        make_series([(0, 0, 2)], W).invert()


def test_invert_needs_window():
    poly = poch_finite(zf(1, 1, 1), 1, Window(6))  # z window unbounded
    with pytest.raises(ValueError):
        poly.invert()
    assert poly.invert(z_truncation=3).coefficient(3, 3) == 1


def test_inv_poch_negative_index_is_zero():
    assert inv_poch_finite(qf(1, 1), -1, W).is_zero()
    assert inv_poch_finite(qf(1, 1), -5, W).is_zero()
    assert inv_poch_finite(qf(1, 1), 0, W) == one(W)


def test_poch_finite_rejects_negative_index():
    with pytest.raises(ValueError):
        poch_finite(qf(1, 1), -1, W)


def test_divergent_at_origin_rejected():
    with pytest.raises(ValueError, match="divergent-at-origin"):
        poch_infinite(qf(0, 1), W)
    # but (z q^0; q)_inf is fine
    s = poch_infinite(zf(1, 0, 1), WB)
    assert s.coefficient(1, 0) == -1


def test_window_validation():
    with pytest.raises(ValueError):
        Window(0)
    with pytest.raises(ValueError):
        Window(-3)
    with pytest.raises(ValueError):
        Window(5, -1)
    with pytest.raises(ValueError):
        Window(5, 2, 0)


def test_window_intersection():
    a = poch_infinite(qf(1, 1), Window(20)).invert()
    b = poch_infinite(qf(1, 1), Window(12))
    prod = a * b
    assert prod.q_truncation == 12
    assert prod.agrees_with(one(Window(12)))
    with pytest.raises(ValueError):
        prod.coefficient(0, 12)


def test_scale_unification():
    half = monomial(0, Fr(1, 2), Window(4))
    third = monomial(0, Fr(1, 3), Window(4))
    prod = half * third
    assert prod.q_scale == 6
    assert prod.coefficient(0, Fr(5, 6)) == 1


def test_euler_identity_bivariate():
    # sum_n z^n q^n / (q;q)_n == 1/(zq;q)_inf
    lhs = zero(WB)
    for n in range(WB.z_truncation + 1):
        lhs = lhs + inv_poch_finite(qf(1, 1), n, WB).times_monomial(n, n)
    rhs = poch_infinite(zf(1, 1, 1), WB).invert()
    assert lhs.agrees_with(rhs)


def test_substitute_z():
    s = make_series([(0, 1, 1), (1, Fr(3, 2), 2)], Window(10, 5))
    t = s.substitute_z(Fr(1, 2), sign=-1)
    assert t.coefficient(0, 1) == 1
    assert t.coefficient(1, 2) == -2
    # substitution by q^0 with sign -1 is z -> -z
    u = s.substitute_z(0, sign=-1)
    assert u.coefficient(1, Fr(3, 2)) == -2
    with pytest.raises(ValueError):
        s.substitute_z(-1)


def test_substitute_z_functional():
    # F(z) = 1/(zq;q)_inf, then F(zq^2) = 1/(zq^3;q)_inf
    f = poch_infinite(zf(1, 1, 1), WB).invert()
    g = poch_infinite(zf(1, 3, 1), WB).invert()
    assert f.substitute_z(2).agrees_with(g)


def test_coefficient_outside_window_rejected():
    s = one(Window(5, 3))
    with pytest.raises(ValueError):
        s.coefficient(0, 5)
    with pytest.raises(ValueError):
        s.coefficient(4, 1)
    assert s.coefficient(3, 4) == 0
    assert s.coefficient(0, Fr(9, 2)) == 0


def test_z_slice_and_collapse():
    f = poch_infinite(zf(1, 1, 1), Window(10, 10)).invert()
    col = f.z_slice(3)
    expect = inv_poch_finite(qf(1, 1), 3, Window(10)).times_monomial(0, 3)
    assert col.agrees_with(expect)
    # collapse at z=1: generating function of partitions into parts >= 1
    # with multiplicity weight... here just check it sums columns
    g = make_series([(0, 0, 1), (1, 1, 1), (2, 1, 1)], Window(3, 4))
    assert g.collapse_z().coefficient(0, 1) == 2


def test_collapse_z_guard():
    s = one(Window(10, 3))
    with pytest.raises(ValueError):
        s.collapse_z()


def test_canonical_and_eq():
    a = monomial(0, Fr(2, 2), Window(5))  # lands on integer grid
    b = monomial(0, 1, Window(5))
    assert a == b
    c = monomial(0, Fr(1, 2), Window(5))
    assert a != c


def test_json_roundtrip():
    s = poch_finite(zf(2, Fr(1, 2), Fr(3, 2), -1), 2, Window(9, 6))
    payload = series_to_json(s)
    assert payload["schema"] == "cylq-series/1"
    back = series_from_json(payload)
    assert back == s


def test_pochfactor_validation():
    with pytest.raises(ValueError):
        PochFactor(-1, Fr(1))
    with pytest.raises(ValueError):
        PochFactor(0, Fr(-1))
    with pytest.raises(ValueError):
        PochFactor(0, Fr(1), 2)
    with pytest.raises(ValueError):
        PochFactor(0, Fr(1), 1, Fr(0))


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries({(0, -1): 1}, 5, None, 1)
    with pytest.raises(ValueError):
        TruncatedSeries({(-1, 0): 1}, 5, None, 1)
    with pytest.raises(ValueError, match="series keys must be integer pairs"):
        make_series([("a", 0, 1), (0, 1, 1)], Window(5, 3))


def test_degenerate_pochhammer_base():
    # (q^0; q)_2 = (1 - 1)(1 - q) vanishes and (-q^0; q)_2 = (1 + 1)(1 + q)
    assert poch_finite(qf(0, 1), 2, Window(None)).is_zero()
    assert poch_finite(qf(0, 1, -1), 2, Window(None)) == make_series(
        [(0, 0, 2), (0, 1, 2)], Window(None)
    )
    with pytest.raises(ValueError, match="constant term is 2"):
        inv_poch_finite(qf(0, 1, -1), 2, W)


def test_unwindowed_exponents_are_refused():
    # dense rows would hold every exponent below the far one
    top = _UNWINDOWED_LIMIT - 1
    assert monomial(top, top, Window(None)).coefficient(top, top) == 1
    for key in ((0, top + 1), (top + 1, 0)):
        with pytest.raises(ValueError, match="stored without a window"):
            TruncatedSeries({key: 1}, None)
    payload = {"schema": "cylq-series/1", "q_truncation": None, "z_truncation": 2,
               "q_scale": 1, "terms": [[0, 10**9, 1, 1]]}
    with pytest.raises(ValueError, match="q\\^1000000000 lies past"):
        series_from_json(payload)
    # a window bounds the storage instead
    assert TruncatedSeries({(10**9, 10**9): 1}, 10, 3).is_zero()


def test_combine_follows_shifted_windows():
    s = make_series([(0, 0, 1), (0, 2, 5)], Window(4))
    # q^3 s is exact below q^7, and the window stops it at q^6
    assert _state(_combine(Window(6), [(s, 0, 3, 1)])) == ({(0, 3): 1, (0, 5): 5}, 6, None, 1)
    # a negative shift is allowed where the sum has nothing below q^0
    parts = [(s, 0, -1, 1), (one(Window(9)), 0, -1, -1)]
    assert _state(_combine(Window(6), parts)) == ({(0, 1): 5}, 3, None, 1)
    with pytest.raises(ValueError, match="negative q-exponent -1 is outside the ring"):
        _combine(Window(6), parts[:1])


def test_pochhammer_from_a_start():
    start = make_series([(0, 0, 1), (1, 1, -2), (2, Fr(5, 3), 7)], Window(9, 3))
    expected = start * poch_finite(zf(1, 1, 1), 3, WB) * inv_poch_finite(qf(Fr(1, 2), 2), 4, WB)
    got = _poch([(zf(1, 1, 1), 3)], [(qf(Fr(1, 2), 2), 4)], WB, start)
    assert _state(got) == _state(expected)


def test_running_terms_and_their_stop():
    # T(n) = (-q;q^2)_n / (zq;q)_(n+1) at z^n q^(n^2), sign (-1)^n: each step
    # gains one binomial above the bar and one below
    def step(n):
        if not n:
            return [], [(zf(1, 1, 1), 1)], 0, 0, 1
        return [(qf(2 * n - 1, 1, -1), 1)], [(zf(1, n + 1, 1), 1)], n, n * n, (-1) ** n

    for N, D in ((1, 0), (1, 5), (10, 2), (10, 9), (17, 8), (30, 3)):
        parts = list(_running(step, Window(N, D)))
        # the parts stop at the first z- or q-shift outside the window
        assert len(parts) == next(n for n in count() if n > D or n * n >= N), (N, D)
        for n, (term, k, e, sign) in enumerate(parts):
            w = Window(N - e, D)
            want = poch_finite(qf(1, 2, -1), n, w) * inv_poch_finite(zf(1, 1, 1), n + 1, w)
            assert (k, e, sign) == (n, n * n, (-1) ** n)
            assert _state(term) == _state(want), (N, D, n)
    # a pure q-term in a window without a z-bound: 1/(q;q)_n at q^n, n < N
    euler = lambda n: ([], [(qf(n, 1), 1)], 0, n, 1) if n else _UNIT_STEP  # noqa: E731
    parts = list(_running(euler, Window(12)))
    assert [part[1:] for part in parts] == [(0, n, 1) for n in range(12)]
    for n, (term, *_shifts) in enumerate(parts):
        assert _state(term) == _state(inv_poch_finite(qf(1, 1), n, Window(12 - n))), n

# ---------------------------------------------------------------------------
#
# The oracle below is the dict arithmetic the dense kernel replaced: it
# works on {(z_degree, q_numerator): coefficient} and builds its results
# through the validating public constructor.


def _state(s):
    """Everything a series is: its terms and its window, uncanonicalized."""
    return dict(s.coeffs), s.q_truncation, s.z_truncation, s.q_scale


def _outcome(fn, *args):
    try:
        return _state(fn(*args))
    except ValueError as err:
        return ("ValueError", str(err))


def _rescaled(s, scale):
    f = scale // s.q_scale
    return {(z, qn * f): c for (z, qn), c in s.coeffs.items()}


def _bounds(a, b):
    return _min_bound(a.q_truncation, b.q_truncation), _min_bound(a.z_truncation, b.z_truncation)


def oracle_add(a, b, sign=1):
    scale = lcm(a.q_scale, b.q_scale)
    out = _rescaled(a, scale)
    for k, c in _rescaled(b, scale).items():
        out[k] = out.get(k, 0) + sign * c
    return TruncatedSeries(out, *_bounds(a, b), scale)


def oracle_mul(a, b):
    scale = lcm(a.q_scale, b.q_scale)
    ntr, dtr = _bounds(a, b)
    qcap = None if ntr is None else ntr * scale
    out: dict = {}
    for (za, qa), ca in _rescaled(a, scale).items():
        for (zb, qb), cb in _rescaled(b, scale).items():
            z, qn = za + zb, qa + qb
            if (dtr is None or z <= dtr) and (qcap is None or qn < qcap):
                out[(z, qn)] = out.get((z, qn), 0) + ca * cb
    return TruncatedSeries(out, ntr, dtr, scale)


def oracle_invert(s, q_truncation=None, z_truncation=None):
    ntr = _min_bound(s.q_truncation, q_truncation)
    dtr = _min_bound(s.z_truncation, z_truncation)
    coeffs = dict(s.coeffs)
    a0 = coeffs.get((0, 0), 0)
    if a0 not in (1, -1):
        raise ValueError("cannot invert: constant term is %d, need a unit (+1 or -1)" % a0)
    if ntr is None and any(qn for (_, qn) in coeffs):
        raise ValueError(
            "cannot invert a series with q-dependence without a finite q_truncation"
        )
    if dtr is None and any(z for (z, _) in coeffs):
        raise ValueError(
            "cannot invert a series with z-dependence without a finite z_truncation"
        )
    rest = {k: c for k, c in coeffs.items() if k != (0, 0)}
    inv = {(0, 0): a0}
    for z in range(0, (dtr or 0) + 1):
        for qn in range(0, (ntr or 1) * s.q_scale):
            if z or qn:
                acc = sum(
                    c * inv.get((z - gz, qn - gq), 0)
                    for (gz, gq), c in rest.items()
                    if gz <= z and gq <= qn
                )
                if acc:
                    inv[(z, qn)] = -a0 * acc
    return TruncatedSeries(inv, ntr, dtr, s.q_scale)


def oracle_moved(s, q_exponent, q_step, z_degree, coefficient, sign):
    """z^k q^m -> coefficient sign^k z^(k + z_degree) q^(m + q_exponent + k q_step)."""
    scale = lcm(s.q_scale, q_exponent.denominator, q_step.denominator)
    out = {
        (z + z_degree, qn + int((q_exponent + z * q_step) * scale)): c * coefficient * sign ** z
        for (z, qn), c in _rescaled(s, lcm(scale, s.q_scale)).items()
    }
    return TruncatedSeries(out, s.q_truncation, s.z_truncation, scale)


def oracle_canonical(s):
    g = s.q_scale
    for (_, qn) in s.coeffs:
        g = gcd(g, qn)
    if g <= 1:
        return s
    out = {(z, qn // g): c for (z, qn), c in s.coeffs.items()}
    return TruncatedSeries(out, s.q_truncation, s.z_truncation, s.q_scale // g)


def oracle_first_difference(a, b):
    scale = lcm(a.q_scale, b.q_scale)
    ntr, dtr = _bounds(a, b)
    ac, bc = _rescaled(a, scale), _rescaled(b, scale)
    diffs = [
        (qn, z)
        for (z, qn) in set(ac) | set(bc)
        if (ntr is None or qn < ntr * scale) and (dtr is None or z <= dtr)
        and ac.get((z, qn), 0) != bc.get((z, qn), 0)
    ]
    if not diffs:
        return None
    qn, z = min(diffs)
    return z, Fr(qn, scale), ac.get((z, qn), 0), bc.get((z, qn), 0)


BIG = 2**200


@st.composite
def windows(draw, finite=False):
    n = draw(st.integers(1, 12) if finite else st.one_of(st.none(), st.integers(1, 12)))
    d = draw(st.integers(0, 4) if finite else st.one_of(st.none(), st.integers(0, 4)))
    return Window(n, d, draw(st.integers(1, 6)))


@st.composite
def series(draw, window=None, unit=False):
    """A random series: sparse or dense support, coefficients up to 2^200,
    some terms past the window (the constructor drops them)."""
    w = window or draw(windows())
    zmax = 4 if w.z_truncation is None else w.z_truncation + 1
    qmax = 8 * w.q_scale if w.q_truncation is None else w.q_truncation * w.q_scale + 2
    coefficient = st.integers(-BIG, BIG) | st.integers(-3, 3)
    if draw(st.booleans()):
        keys = draw(st.lists(st.tuples(st.integers(0, zmax), st.integers(0, qmax)), max_size=8))
    else:
        keys = [(z, qn) for z in range(draw(st.integers(0, zmax)) + 1) for qn in range(qmax)]
    coeffs = {k: draw(coefficient) for k in keys}
    if unit:
        coeffs[(0, 0)] = draw(st.sampled_from((1, -1)))
    return TruncatedSeries(coeffs, w.q_truncation, w.z_truncation, w.q_scale)


@given(series(), series())
def test_ring_operations_match_dict_kernel(a, b):
    assert _state(a * b) == _state(oracle_mul(a, b))
    assert _state(a + b) == _state(oracle_add(a, b))
    assert _state(a - b) == _state(oracle_add(a, b, -1))
    assert _state(-a) == _state(oracle_add(zero(a.window), a, -1))
    assert _state(a * 3) == _state(oracle_mul(a, make_series([(0, 0, 3)], a.window)))
    assert a.first_difference(b) == oracle_first_difference(a, b)
    assert a.first_difference(a + b) == oracle_first_difference(a, oracle_add(a, b))
    assert (a == b) == (_state(oracle_canonical(a)) == _state(oracle_canonical(b)))
    assert _state(a.canonical()) == _state(oracle_canonical(a))
    assert a.support_size() == len(a.coeffs)
    assert [(z, Fr(qn, a.q_scale), c) for (z, qn), c in sorted(a.coeffs.items())] == list(a.items())


@given(series(unit=True), st.one_of(st.none(), st.integers(1, 12)),
       st.one_of(st.none(), st.integers(0, 4)))
def test_invert_matches_dict_kernel(a, q_truncation, z_truncation):
    assert _outcome(a.invert, q_truncation, z_truncation) == _outcome(
        oracle_invert, a, q_truncation, z_truncation
    )


exponents = st.fractions(0, 5, max_denominator=4)


@given(series(), st.integers(0, 5), exponents, st.integers(-BIG, BIG), st.sampled_from((1, -1)))
def test_monomial_moves_match_dict_kernel(a, z_degree, e, c, sign):
    assert _state(a.times_monomial(z_degree, e, c)) == _state(
        oracle_moved(a, e, Fr(0), z_degree, c, 1)
    )
    assert _state(a.substitute_z(e, sign)) == _state(oracle_moved(a, Fr(0), e, 0, 1, sign))


@given(st.data(), windows(finite=True))
def test_binomial_primitives_match_repeated_products(data, w):
    a = data.draw(series(w))
    qcap = w.q_truncation * w.q_scale
    bounds = (w.q_truncation, w.z_truncation, w.q_scale)
    rows, divided = [list(r) for r in a._rows], [list(r) for r in a._rows]
    product, quotient = a, a
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.integers(0, 2))
        e = data.draw(st.integers(0 if i else 1, qcap + 1))
        c = data.draw(st.sampled_from((1, -1)) | st.integers(-BIG, BIG))
        binomial = TruncatedSeries({(0, 0): 1, (i, e): -c}, *bounds)
        _mul_binomial(rows, i, e, c, qcap, w.z_truncation)
        _div_binomial(divided, i, e, c, qcap, w.z_truncation)
        product = oracle_mul(product, binomial)
        quotient = oracle_mul(quotient, oracle_invert(binomial))
    assert _state(_from_rows(rows, *bounds)) == _state(product)
    assert _state(_from_rows(divided, *bounds)) == _state(quotient)


# -- Kronecker packs: the codec, the shift-add binomials and the signed decode


@given(st.data(), st.integers(1, 12), st.integers(0, 3))
def test_pack_round_trips_through_unpack_and_widen(data, size, more):
    # balanced digits of either sign, in slots read as machine words of 1,
    # 2, 4 and 8 bytes, and slot by slot where a digit is wider than 8 bytes
    half = 1 << 8 * size - 1
    row = data.draw(st.lists(st.integers(-half, half - 1) | st.integers(-3, 3), max_size=40))
    slots = len(row) + data.draw(st.integers(0, 3))
    padded = row + [0] * (slots - len(row))
    packed = _pack([row], slots, size)
    assert _unpack(packed, size, slots) == padded
    assert _unpack(_widen(packed, size, size + more, slots), size + more, slots) == padded


@pytest.mark.parametrize("length, bits", [(15, 2), (15, 6), (15, 30), (255, 4), (255, 8), (255, 32)])
@pytest.mark.parametrize("sign", [1, -1])
def test_pack_slot_rule_holds_full_magnitude_products(length, bits, sign):
    # every coefficient at full magnitude c and of one sign: the middle
    # coefficient of the product is length * c^2, just past the slots one
    # bit short of the rule would give
    c = (1 << bits) - 1
    a = TruncatedSeries({(0, j): c for j in range(length)}, None)
    b = TruncatedSeries({(0, j): sign * c for j in range(length)}, None)
    assert _state(a * b) == _state(oracle_mul(a, b))


@given(st.data(), st.lists(st.integers(0, 9), min_size=1, max_size=300), st.integers(0, 3))
def test_packed_binomials_match_the_row_kernel(data, row, headroom):
    # from 1-byte slots, which widen wherever the guard trips
    slots, rows = len(row), [list(row)]
    size, packed = 1, _pack([row], slots, 1)
    for _ in range(data.draw(st.integers(1, 6))):
        divide, e = data.draw(st.booleans()), data.draw(st.integers(1, slots + 1))
        if divide:
            _div_binomial(rows, 0, e, 1, slots, None)
        else:
            _mul_binomial(rows, 0, e, -1, slots, None)
        shifts = _doublings(e, slots) if divide else (e,)
        (packed,), size = _times_binomials([(packed, shifts)], size, slots, headroom)
        assert packed < 1 << 8 * size * slots and not packed & _guard(slots, size, headroom)
    assert _unpack(packed, size, slots) == rows[0] + [0] * (slots - len(rows[0]))


def test_a_slot_that_wrapped_is_widened_never_decoded():
    # t = (X, 0) packs to digits (0, 1): a slot that reaches X carries into
    # the next and leaves digits that look small, so a test at the end passes
    assert _unpack(1 << 8, 1, 2) == [0, 1]
    row, slots = [100, 100, 0], 3
    packed = _pack([row], slots, 1)
    unguarded = packed
    for s in (1, 1):
        unguarded = unguarded + (unguarded << 8 * s) & (1 << 8 * slots) - 1
    assert not unguarded & _guard(slots, 1, 0)
    assert _unpack(unguarded, 1, slots) == [100, 44, 45]
    # the guard trips at the first add past 2^7 (200), before any carry,
    # and the product is done again in 2-byte slots
    (once,), size = _times_binomials([(packed, (1,))], 1, slots, 0)
    assert size == 2 and _unpack(once, 2, slots) == [100, 200, 100]
    (wide,), size = _times_binomials([(packed, (1, 1))], 1, slots, 0)
    assert size == 2 and _unpack(wide, 2, slots) == [100, 300, 300]
    assert _times_binomials([(_widen(packed, 1, 2, slots), (1, 1))], 2, slots, 0) == ([wide], 2)
    # headroom 1 tests once per two adds: (60, 60, 0) times (1 + q) passes
    # the guard, 2^6, at (60, 120, 60), between two tests; the second add
    # reaches (60, 180, 180) with no carry, and the test after it trips.  A
    # third add before a test would carry 360 out of its slot.
    packed = _pack([[60, 60, 0]], slots, 1)
    assert packed + (packed << 8) & _guard(slots, 1, 1)
    (twice,), size = _times_binomials([(packed, (1, 1))], 1, slots, 1)
    assert size == 2 and _unpack(twice, 2, slots) == [60, 180, 180]
    (thrice,), size = _times_binomials([(packed, (1, 1, 1))], 1, slots, 1)
    assert size == 2 and _unpack(thrice, 2, slots) == [60, 240, 360]


@given(st.data(), st.integers(0, 3), st.integers(1, 3), st.integers(2, 5) | st.integers(1, 40))
def test_packed_guard_runs_of_headroom_adds_match_the_row_kernel(data, headroom, size, slots):
    # digits at or just below 2^(8 size - 1 - H), so the first runs of H + 1
    # adds trip the guard, and few slots, so that a run one add longer could
    # wrap a slot and leave every slot clear; each pack takes more than H + 1
    # shifts, products (1 + q^s) and quotients 1 / (1 - q^e) as their doublings
    top = (1 << 8 * size - 1 - headroom) - 1
    digit = st.integers(max(top - 3, 0), top) | st.integers(0, 3) | st.integers(0, top)
    work, expected = [], []
    for _ in range(data.draw(st.integers(1, 3))):
        row = data.draw(st.lists(digit, min_size=slots, max_size=slots))
        rows, shifts = [list(row)], []
        while len(shifts) <= headroom + 1:
            e = data.draw(st.integers(1, slots))
            if e < slots and data.draw(st.booleans()):
                _div_binomial(rows, 0, e, 1, slots, None)
                shifts += _doublings(e, slots)
            else:
                _mul_binomial(rows, 0, e, -1, slots, None)
                shifts.append(e)
        work.append((_pack([row], slots, size), tuple(shifts)))
        expected.append(rows[0] + [0] * (slots - len(rows[0])))
    packs, wider = _times_binomials(work, size, slots, headroom)
    grown = [size]  # each guard trip grows the slots from s to s + 1 + s // 4 bytes
    while grown[-1] < wider:
        grown.append(grown[-1] + 1 + grown[-1] // 4)
    assert grown[-1] == wider
    for packed, row in zip(packs, expected):
        assert 0 <= packed < 1 << 8 * wider * slots and not packed & _guard(slots, wider, headroom)
        assert _unpack(packed, wider, slots) == row


@given(st.data(), st.integers(1, 40), st.integers(1, 30))
def test_packed_signed_sums_decode_as_combine(data, n_trunc, slots):
    # each part is c q^e base, e possibly negative; cancelling copies of the
    # negative parts leave the sum a power series, and without them
    # _combine's negative-exponent error must come back unchanged
    digit = st.integers(0, 9) | st.integers(0, 2**80)
    bases = data.draw(st.lists(st.lists(digit, min_size=slots, max_size=slots), min_size=1, max_size=4))
    parts = data.draw(st.lists(st.tuples(st.integers(0, len(bases) - 1), st.integers(-5, 45),
                                         st.sampled_from((1, -1, 2, -3))), min_size=1, max_size=8))
    if data.draw(st.booleans()):
        parts += [(i, e, -c) for i, e, c in parts if e < 0]
    size = _slot_size(sum(abs(c) for _i, _e, c in parts), max(map(max, bases)))
    origin = min(0, *(e for _i, e, _c in parts))
    total = _shift_sum([(_pack([bases[i]], slots, size), e - origin, c) for i, e, c in parts], size)
    width = min(n_trunc, slots + min(e for _i, e, _c in parts))
    series_of = [make_series([(0, j, x) for j, x in enumerate(b)], Window(slots)) for b in bases]
    assert _outcome(lambda: _from_pack(_rebase(total, size, origin), size, width)) == _outcome(
        _combine, Window(n_trunc), [(series_of[i], 0, e, c) for i, e, c in parts])


@given(st.data(), st.integers(1, 12), st.integers(0, 3), st.integers(0, 20), st.sampled_from((1, -1)))
def test_signed_spread_pack_equals_the_row_transform(data, size, more, shift, sign):
    # a non-negative pack in x read at x = -q^2, shifted and signed, in slots
    # as wide or wider: slot k, times sign (-1)^k, lands in slot shift + 2k
    top = (1 << 8 * size - 1) - 1
    row = data.draw(st.lists(st.integers(0, top) | st.integers(0, 3), min_size=1, max_size=40))
    spread = [0] * (shift + 2 * len(row))
    spread[shift::2] = [sign * (-1) ** k * c for k, c in enumerate(row)]
    packed = _signed_spread(_pack([row], len(row), size), size, len(row), size + more, shift, sign)
    assert packed == _pack([spread], len(spread), size + more)


@given(series())
def test_json_matches_dict_kernel(a):
    assert series_to_json(a)["terms"] == [
        [z, qn, a.q_scale, c] for (z, qn), c in sorted(a.coeffs.items())
    ]
    assert _state(series_from_json(series_to_json(a))) == _state(a)
