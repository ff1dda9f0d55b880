"""Sum-product identity checks: evaluators, a case registry, reports.

This module gathers every identity the kit can check into addressable
cases.  Each case compares two or more exactly-computed representations
of the same series -- enumeration, infinite product, coupled-system
solver, closed-form sum -- inside an explicit window, and produces a
report listing, per comparison, equality or the first difference with
per-coefficient detail.  Nothing here raises on a mismatch: exploratory
cases whose sides are expected to disagree are first-class citizens and
are marked ``expected="report-only"``.

Contents:

* closed-form sum evaluators (`sum_euler`, `sum_rogers_ramanujan`,
  `sum_double_mod7`, `sum_alternating_mod4`, `sum_signed_distinct_mod2`,
  `sum_goellnitz`, `sum_mod12`, `sum_schmidt_distinct_odd`,
  `sum_schmidt_distinct_even`), each summing exactly as many terms as
  can touch the window.  The single sums run on `series._running`: each
  summand is the one before times a few binomials, and one `_combine`
  adds them; `sum_mod12` adds the width-6 closed-form values;
* the registry (`registry`, `get_case`) of `IdentityCase` entries and
  the `verify` report builder with a versioned JSON shape and a
  human-readable rendering (`report_text`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from typing import Callable, Optional, Sequence

# recur first: compiling it is the largest transient of these imports, and
# the fewer modules it lands on, the lower a fresh process's peak memory
from .recur import (
    build_system,
    check_closed_form,
    closed_form_width4,
    closed_form_width6,
    sigma_prefactor_factored,
    sigma_prefactor_terms,
    solve_fixed_point,
    width4_recurrence,
    width6_recurrence,
)
from .lattice import (
    count_distinct_by_marked_sum,
    count_partitions_by_hook,
    full_profile,
    genfun_by_enumeration,
    schmidt_genfun,
    scp_weights,
    signed_distinct_genfun,
)
from .products import (
    CONVENTIONS,
    ProductSpec,
    cp_product,
    cp_product_spec,
    dspp_product,
    dspp_product_spec,
    nonsymmetric_mirror_series,
    scp_product_spec,
)
from .series import (
    TruncatedSeries,
    Window,
    _UNIT_STEP,
    _combine,
    _poch,
    _running,
    inv_poch_finite,
    one,
    poch_infinite,
    poch_product,
    qf,
    theta_sum,
    zf,
)

__all__ = [
    "CONVENTIONS",
    "Comparison",
    "IdentityCase",
    "Side",
    "compare_series",
    "get_case",
    "registry",
    "report_text",
    "sum_alternating_mod4",
    "sum_double_mod7",
    "sum_euler",
    "sum_goellnitz",
    "sum_mod12",
    "sum_rogers_ramanujan",
    "sum_schmidt_distinct_even",
    "sum_schmidt_distinct_odd",
    "sum_signed_distinct_mod2",
    "verify",
]

GOELLNITZ_VARIANTS = ("GG1", "LG1", "GG2", "LG2")


def _require_q(window: Window) -> int:
    if window.q_truncation is None:
        raise ValueError("identity evaluation needs a finite q-window")
    return window.q_truncation


def _z_cap(window: Window, fallback: int) -> int:
    return window.z_truncation if window.z_truncation is not None else fallback


# ---------------------------------------------------------------------------
# closed-form sum evaluators
# ---------------------------------------------------------------------------


def sum_euler(window: Window) -> TruncatedSeries:
    """``sum_n q^n / (q;q)_n``: partitions graded by number of parts."""
    w = Window(_require_q(window))
    step = lambda n: ([], [(qf(n, 1), 1)], 0, n, 1) if n else _UNIT_STEP
    return _combine(w, _running(step, w))


def sum_rogers_ramanujan(shift: int, window: Window) -> TruncatedSeries:
    """``sum_n q^(n^2 + shift*n) / (q;q)_n`` for shift in {0, 1}."""
    if shift not in (0, 1):
        raise ValueError("shift must be 0 or 1")
    w = Window(_require_q(window))
    step = lambda n: ([], [(qf(n, 1), 1)], 0, n * n + shift * n, 1) if n else _UNIT_STEP
    return _combine(w, _running(step, w))


def sum_double_mod7(window: Window) -> TruncatedSeries:
    """``sum_{n1,n2} q^(n1^2+n2^2-n1*n2+n1+n2)/(q;q)_n1 * [2n1 choose n2]_q``.

    The inner Gaussian binomial vanishes outside ``0 <= n2 <= 2*n1``.  The
    term ``T(n1, n2) = [2n1 choose n2]_q / (q;q)_n1`` runs along n2 from
    ``T(n1, 0) = T(n1-1, 0) / (1 - q^n1)`` by ``(1 - q^(2n1-n2+1)) / (1 -
    q^n2)``.  The exponent falls before it rises in n2, so each term is made
    in the window of the least exponent at its n2 or after, which every
    summand made from it needs; the least over a row grows with n1 and ends
    the outer loop.
    """
    n_trunc = _require_q(window)
    e = lambda n1, n2: n1 * n1 + n2 * n2 - n1 * n2 + n1 + n2  # noqa: E731
    low = lambda n1, n2: min(e(n1, m) for m in range(n2, 2 * n1 + 1))  # noqa: E731
    step = lambda n1: ([], [(qf(n1, 1), 1)], 0, low(n1, 0), 1) if n1 else _UNIT_STEP

    def parts():
        for n1, (term, _, _, _) in enumerate(_running(step, Window(n_trunc))):
            for n2 in range(2 * n1 + 1):
                if n2:
                    if low(n1, n2) >= n_trunc:
                        break
                    num, den = [(qf(2 * n1 - n2 + 1, 1), 1)], [(qf(n2, 1), 1)]
                    term = _poch(num, den, Window(n_trunc - low(n1, n2)), term)
                if e(n1, n2) < n_trunc:
                    yield term, 0, e(n1, n2), 1

    return _combine(Window(n_trunc), parts())


def sum_alternating_mod4(window: Window) -> TruncatedSeries:
    """The alternating bracket sum with period-4 factors.

    ``sum_n (-1)^n q^(4n^2) (q^2;q^4)_n (-q^4;q^4)_n / (q^4;q^4)_(2n)
    * (1 - q^(4n+1) z / (1 + q^(4n+2))) * z^(2n)``.
    """
    n_trunc = _require_q(window)
    d_cap = _z_cap(window, 10)
    w = Window(n_trunc, d_cap)
    # c(n) = c(n-1) (1 - q^(4n-2)) (1 + q^(4n)) / ((1 - q^(8n-4)) (1 - q^(8n)))
    step = lambda n: (
        [(qf(4 * n - 2, 1), 1), (qf(4 * n, 1, -1), 1)], [(qf(8 * n - 4, 4), 2)], 2 * n, 4 * n * n, (-1) ** n
    ) if n else _UNIT_STEP
    parts = []
    for c, k, e, sign in _running(step, w):
        parts.append((c, k, e, sign))
        odd = e + 2 * k + 1  # the z^(2n+1) part: -c q^(4n+1) / (1 + q^(4n+2))
        if k < d_cap and odd < n_trunc:
            c_odd = _poch([], [(qf(2 * k + 2, 1, -1), 1)], Window(n_trunc - odd, d_cap), c)
            parts.append((c_odd, k + 1, odd, -sign))
    return _combine(w, parts)


def sum_signed_distinct_mod2(window: Window) -> TruncatedSeries:
    """``sum_n (-1)^n q^(2n^2+n) (q;q^2)_(n+1) (-q^2;q^2)_n / (q^2;q^2)_(2n+1)``."""
    w = Window(_require_q(window))
    # S(n) = S(n-1) (1 - q^(2n+1)) (1 + q^(2n)) / ((1 - q^(4n)) (1 - q^(4n+2))), S(0) = (1 - q) / (1 - q^2)
    step = lambda n: (
        [(qf(2 * n + 1, 1), 1), (qf(2 * n, 1, -1), 1)], [(qf(4 * n, 2), 2)], 0, 2 * n * n + n, (-1) ** n
    ) if n else ([(qf(1, 1), 1)], [(qf(2, 1), 1)], 0, 0, 1)
    return _combine(w, _running(step, w))


def sum_goellnitz(variant: str, window: Window) -> TruncatedSeries:
    """The four Goellnitz-Gordon / little Goellnitz sum sides.

    ``GG1``: ``sum q^(n^2+2n) (-q;q^2)_n / (q^2;q^2)_n``;
    ``LG1``: the same with exponent ``n^2+n``;
    ``GG2``: the same with exponent ``n^2``;
    ``LG2``: ``sum q^(n^2+n) (-q^(-1);q^2)_n / (q^2;q^2)_n``, computed in
    the Laurent-free rewriting ``q^(n^2+n-1) (1+q) (-q;q^2)_(n-1)`` of its
    numerator for ``n >= 1``.
    """
    if variant not in GOELLNITZ_VARIANTS:
        raise ValueError("variant must be one of %s" % (GOELLNITZ_VARIANTS,))
    w = Window(_require_q(window))
    # G(n) = G(n-1) (1 + q^(2n-1)) / (1 - q^(2n)); LG2's numerator gains 1 + q^(2n-3), and 1 + q at n = 1
    lg2 = variant == "LG2"
    shift = {"GG1": 2, "LG1": 1, "GG2": 0, "LG2": 1}[variant]
    step = lambda n: (
        [(qf(max(2 * n - 1 - 2 * lg2, 1), 1, -1), 1)], [(qf(2 * n, 1), 1)], 0, n * n + shift * n - lg2, 1
    ) if n else _UNIT_STEP
    return _combine(w, _running(step, w))


def sum_mod12(profile: Sequence[int], window: Window) -> TruncatedSeries:
    """The period-12 double sum for a width-3 open chain profile.

    Sums the closed-form coefficient values ``h(n)`` of
    :func:`closed_form_width6`: its stream ends where no later value
    touches the window.
    """
    w = Window(_require_q(window))
    return _combine(w, ((h, 0, 0, 1) for h in closed_form_width6(profile).values(w)))


def sum_schmidt_distinct_odd(window: Window) -> TruncatedSeries:
    """``sum_n z^(2n) q^(n(n+1)) / ((zq;q)_n (zq;q)_(n+1))``."""
    n_trunc = _require_q(window)
    w = Window(n_trunc, _z_cap(window, n_trunc))
    step = lambda n: ([], [(zf(1, n, 1), 2)], 2 * n, n * n + n, 1) if n else ([], [(zf(1, 1, 1), 1)], 0, 0, 1)
    return _combine(w, _running(step, w))


def sum_schmidt_distinct_even(window: Window) -> TruncatedSeries:
    """``1 + sum_{n>=1} z^(2n-1) q^(n(n-1)) / ((z;q)_n (zq;q)_n)``."""
    n_trunc = _require_q(window)
    w = Window(n_trunc, _z_cap(window, n_trunc))
    step = lambda n: ([], [(zf(1, n - 1, 1), 2)], 2 * n - 1, n * n - n, 1) if n else _UNIT_STEP
    return _combine(w, _running(step, w))


# ---------------------------------------------------------------------------
# count tables as series
# ---------------------------------------------------------------------------


def _table_series(
    table: dict, n_trunc: int, *, shift_m: int = 0, shift_n: int = 0
) -> TruncatedSeries:
    """Pack a ``{(m, n): count}`` table as ``sum count z^(m-shift_m)
    q^(n-shift_n)`` for comparison; the empty-partition corner (0, 0)
    and entries outside the window drop."""
    coeffs = {}
    for (m, n), c in table.items():
        if (m, n) == (0, 0):
            continue
        mm, nn = m - shift_m, n - shift_n
        if c and mm >= 0 and 0 <= nn < n_trunc:
            coeffs[(mm, nn)] = c
    return TruncatedSeries(coeffs, n_trunc, None, 1)


# ---------------------------------------------------------------------------
# comparisons and cases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Side:
    """One side of a comparison: what it is and how it was computed."""

    description: str
    provenance: str  # enumeration | product | sum | solver | closed-form | ...


@dataclass(frozen=True)
class Comparison:
    """The outcome of comparing two series representations."""

    label: str
    lhs: Side
    rhs: Side
    equal: bool
    first_difference: Optional[tuple] = None  # (z, Fraction q, lhs c, rhs c)
    rows: tuple = ()  # up to max_rows differing coefficients, same shape
    note: str = ""


def compare_series(
    label: str,
    lhs: TruncatedSeries,
    lhs_side: Side,
    rhs: TruncatedSeries,
    rhs_side: Side,
    *,
    max_rows: int = 12,
    note: str = "",
) -> Comparison:
    """Compare two series on the intersection of their windows."""
    def row(z, e, _c):
        return z, e, lhs.coefficient(z, e), rhs.coefficient(z, e)

    delta = _combine(lhs.window, [(lhs, 0, 0, 1), (rhs, 0, 0, -1)])
    keyed = sorted(delta.items(), key=lambda t: (t[1], t[0]))
    diff = row(*keyed[0]) if keyed else None
    rows = tuple(row(*t) for t in keyed[:max_rows])
    return Comparison(label, lhs_side, rhs_side, diff is None, diff, rows, note)


def _flag_comparison(
    label: str, lhs_side: Side, rhs_side: Side, holds: bool, note: str = ""
) -> Comparison:
    """A comparison established by something other than series subtraction
    (polynomial identities checked index-by-index, recurrence reports)."""
    return Comparison(label, lhs_side, rhs_side, bool(holds), None, (), note)


@dataclass(frozen=True)
class IdentityCase:
    """A named, re-runnable identity check.

    ``expected`` is ``"equal"`` for cases whose comparisons are all
    asserted to hold, and ``"report-only"`` for exploratory cases whose
    value is the report itself (some of their comparisons genuinely
    differ; the report records by how much).
    """

    label: str
    description: str
    expected: str
    window: Window
    runner: Callable = field(repr=False, compare=False)

    def run(self, window: Optional[Window] = None) -> list:
        return self.runner(self._window_for(window))

    def _window_for(self, window: Optional[Window]) -> Window:
        """The window the case runs in and reports: ``window`` or the case's
        own, a missing z-bound taken from the case's.  A z-bound on a case
        without one, or a q-grid other than the case's, is refused: the case
        would not use it, so its report would claim what it did not run.  A
        window without a q-bound is refused too: no case's sides end there.
        Runners take the window this returns as it is."""
        window = self.window if window is None else window
        if window.z_truncation is not None and self.window.z_truncation is None:
            raise ValueError("case %s has no z-window, so it cannot run in z <= %d"
                             % (self.label, window.z_truncation))
        if window.q_scale != self.window.q_scale:
            raise ValueError("case %s runs on the q-grid of scale %d, not %d"
                             % (self.label, self.window.q_scale, window.q_scale))
        _require_q(window)
        if window.z_truncation is None:
            return replace(window, z_truncation=self.window.z_truncation)
        return window


_REGISTRY: dict = {}


def _case(label: str, description: str, expected: str, window: Window):
    def wrap(fn):
        _REGISTRY[label] = IdentityCase(label, description, expected, window, fn)
        return fn

    return wrap


def registry() -> tuple:
    """All case labels, sorted."""
    return tuple(sorted(_REGISTRY))


def get_case(label: str) -> IdentityCase:
    try:
        return _REGISTRY[label]
    except KeyError:
        raise KeyError(
            "unknown identity case %r; known cases: %s"
            % (label, ", ".join(registry()))
        ) from None


# -- shared side constructors ------------------------------------------------

_ENUM = lambda text: Side(text, "enumeration")  # noqa: E731
_PROD = lambda text: Side(text, "product")  # noqa: E731
_SUM = lambda text: Side(text, "sum")  # noqa: E731
_SOLVER = lambda text: Side(text, "solver")  # noqa: E731
_CLOSED = lambda text: Side(text, "closed-form")  # noqa: E731
_TABLE = lambda text: Side(text, "table")  # noqa: E731


def _sign_profiles(width: int):
    return itertools.product((1, -1), repeat=width)


def _z_parity(series: TruncatedSeries, parity: int) -> TruncatedSeries:
    coeffs = {k: v for k, v in series.coeffs.items() if k[0] % 2 == parity}
    return TruncatedSeries(
        coeffs, series.q_truncation, series.z_truncation, series.q_scale
    )


def _stack_values(seq, n_max: int, window: Window) -> TruncatedSeries:
    """``sum_{n <= n_max} z^n h(n)`` for a coefficient sequence."""
    values = seq.values(Window(window.q_truncation))
    parts = [(h, n, 0, 1) for n, h in zip(range(n_max + 1), values)]
    return _combine(Window(window.q_truncation, n_max), parts)


def _sum_and_chain(labels, total, sum_text, chain, chain_text, spec, text, w) -> list:
    """A sum, and (q;q)_inf times a chain product, each against the product
    ``spec`` expands; ``labels`` name the two comparisons."""
    rhs = spec.expand(w)
    return [
        compare_series(labels[0], total, _SUM(sum_text), rhs, _PROD(text)),
        compare_series(labels[1], poch_infinite(qf(1, 1), w) * chain,
                       _PROD("(q;q)_inf x " + chain_text), rhs, _PROD(text)),
    ]


def _weighted_open_chain(w: Window) -> tuple:
    """The open chain (1,-1) with weights (0,1,0), z collapsed, and the
    product 1/((q;q)_inf^3 (q;q^2)_inf) claimed for it."""
    enum = genfun_by_enumeration(
        "skew-shifted", (1, -1), (0, 1, 0), window=Window(w.q_truncation, w.q_truncation)
    ).collapse_z()
    return enum, ProductSpec.make((), [(1, 1), (1, 1), (1, 1), (1, 2)]).expand(w)


# -- case runners ------------------------------------------------------------


@_case(
    "euler-sum",
    "Partitions graded by part count: sum q^n/(q;q)_n = 1/(q;q)_inf.",
    "equal",
    Window(30),
)
def _run_euler_sum(w: Window) -> list:
    return [
        compare_series(
            "sum = product",
            sum_euler(w),
            _SUM("sum_n q^n/(q;q)_n"),
            poch_product([], [qf(1, 1)], w),
            _PROD("1/(q;q)_inf"),
        )
    ]


@_case(
    "rogers-ramanujan",
    "The two Rogers-Ramanujan sum-product identities.",
    "equal",
    Window(40),
)
def _run_rogers_ramanujan(w: Window) -> list:
    out = []
    for shift in (0, 1):
        out.append(
            compare_series(
                "shift %d" % shift,
                sum_rogers_ramanujan(shift, w),
                _SUM("sum q^(n^2+%dn)/(q;q)_n" % shift),
                ProductSpec.make((), [(1 + shift, 5), (4 - shift, 5)]).expand(w),
                _PROD("1/(q^%d,q^%d;q^5)_inf" % (1 + shift, 4 - shift)),
            )
        )
    return out


@_case(
    "mod7-double-sum",
    "Gaussian-binomial double sum = the modulus-7 product of the rank-3 "
    "width-7 closed chain.",
    "equal",
    Window(26),
)
def _run_mod7(w: Window) -> list:
    return _sum_and_chain(
        ("double sum = product", "(q;q)_inf x closed-chain product = product"),
        sum_double_mod7(w),
        "sum q^(n1^2+n2^2-n1n2+n1+n2)/(q;q)_n1 [2n1, n2]_q",
        cp_product((-1, -1, -1, 1, 1, 1, 1), None, w),
        "closed-chain product, profile (-1,-1,-1,1,1,1,1)",
        ProductSpec.make((), [(2, 7), (3, 7), (3, 7), (4, 7), (4, 7), (5, 7)]),
        "1/(q^2,q^3,q^3,q^4,q^4,q^5;q^7)_inf",
        w,
    )


def _run_product_sweep(kind: str, max_width: int, w: Window) -> list:
    """Enumeration = product for every profile of width <= max_width,
    standard weights, closed (``cylindric``) or open chains.  Each profile
    is enumerated on its own; profiles with one product (rotations, say)
    share its one expansion."""
    closed = kind == "cylindric"
    spec_of = cp_product_spec if closed else dspp_product_spec
    enum_text = "%s enumeration, standard weights" % ("closed-chain" if closed else "open-chain")
    expanded: dict = {}

    def product(d):
        spec = spec_of(d)
        if spec not in expanded:
            expanded[spec] = spec.expand(w)
        return expanded[spec]

    return [
        compare_series(
            "profile %s" % (d,),
            genfun_by_enumeration(kind, d, window=w).collapse_z(),
            _ENUM(enum_text),
            product(d),
            _PROD("exponent-multiset product mod %d" % h if closed
                  else "two-multiset product, moduli %d and %d" % (h + 1, 2 * (h + 1))),
        )
        for h in range(1, max_width + 1)
        for d in _sign_profiles(h)
    ]


_case(
    "cylinder-products",
    "Closed chains, standard weights: enumeration = modulus-h product "
    "for every profile of width <= 4.",
    "equal",
    Window(12),
)(partial(_run_product_sweep, "cylindric", 4))

_case(
    "open-chain-products",
    "Open chains, standard weights: enumeration = two-multiset product "
    "for every profile of width <= 3.",
    "equal",
    Window(10),
)(partial(_run_product_sweep, "skew-shifted", 3))


@_case(
    "open-chain-weighted-example",
    "Open chain (1,-1) with weights (0,1,0): the enumeration equals "
    "1/((q;q)^3 (q;q^2)) and its own two-multiset product.",
    "equal",
    Window(12),
)
def _run_open_chain_weighted(w: Window) -> list:
    enum, claimed = _weighted_open_chain(w)
    witness = enum.coefficient(0, 3) if w.q_truncation > 3 else None
    return [
        compare_series(
            "enumeration = claimed product",
            enum,
            _ENUM("open-chain enumeration, profile (1,-1), weights (0,1,0)"),
            claimed,
            _PROD("1/((q;q)_inf^3 (q;q^2)_inf)"),
            note="coefficient of q^3 is %s" % witness,
        ),
        compare_series(
            "enumeration = two-multiset product",
            enum,
            _ENUM("open-chain enumeration, profile (1,-1), weights (0,1,0)"),
            dspp_product((1, -1), (0, 1, 0), w),
            _PROD("two-multiset product for weights (0,1,0)"),
        ),
    ]


@_case(
    "symmetric-width4-bivariate",
    "Width-2 open chain with weights (1,2,1): the three coupled series "
    "have bivariate product forms, matching solver and enumeration.",
    "equal",
    Window(12, 12),
)
def _run_symmetric_width4(w: Window) -> list:
    system = build_system("skew-shifted", (1, -1), (1, 2, 1), normalized=True)
    solved = solve_fixed_point(system, w)
    products = {
        (1, 1): poch_product([zf(1, 4, 4, -1), zf(1, 2, 4)], [], w),
        (1, -1): poch_product([zf(1, 1, 4), zf(1, 3, 4, -1)], [], w),
        (-1, 1): poch_product([zf(1, 1, 4, -1), zf(1, 3, 4)], [], w),
    }
    texts = {
        (1, 1): "(-zq^4;q^4)_inf (zq^2;q^4)_inf",
        (1, -1): "(zq;q^4)_inf (-zq^3;q^4)_inf",
        (-1, 1): "(-zq;q^4)_inf (zq^3;q^4)_inf",
    }
    zq = poch_infinite(zf(1, 1, 1), w)
    out = []
    for d, prod in products.items():
        out.append(
            compare_series(
                "profile %s: product = solver" % (d,),
                prod,
                _PROD(texts[d]),
                solved[d],
                _SOLVER("normalized fixed-point solution"),
            )
        )
        enum = genfun_by_enumeration("skew-shifted", d, (1, 2, 1), window=w)
        out.append(
            compare_series(
                "profile %s: product = (zq;q)_inf x enumeration" % (d,),
                prod,
                _PROD(texts[d]),
                zq * enum,
                _ENUM("(zq;q)_inf x open-chain enumeration, weights (1,2,1)"),
            )
        )
    return out


@_case(
    "mod4-alternating-sum",
    "Alternating bracket sum = (zq,-zq^3;q^4)_inf, with the z-parity "
    "split matching the (1,-1) coefficient closed form.",
    "equal",
    Window(40, 10),
)
def _run_mod4(w: Window) -> list:
    lhs = sum_alternating_mod4(w)
    product = poch_product([zf(1, 1, 4), zf(1, 3, 4, -1)], [], w)
    stacked = _stack_values(closed_form_width4((1, -1)), w.z_truncation, w)
    out = [
        compare_series(
            "bracket sum = product",
            lhs,
            _SUM("alternating period-4 bracket sum"),
            product,
            _PROD("(zq;q^4)_inf (-zq^3;q^4)_inf"),
        ),
        compare_series(
            "bracket sum = stacked coefficient closed forms",
            lhs,
            _SUM("alternating period-4 bracket sum"),
            stacked,
            _CLOSED("sum_n z^n h(n), width-4 closed form, profile (1,-1)"),
        ),
    ]
    for parity, name in ((0, "even"), (1, "odd")):
        out.append(
            compare_series(
                "%s z-degrees match the closed form" % name,
                _z_parity(lhs, parity),
                _SUM("alternating sum, %s z-part" % name),
                _z_parity(stacked, parity),
                _CLOSED("stacked closed form, %s z-part" % name),
            )
        )
    return out


@_case(
    "mod12-sums",
    "The four period-12 double-sum identities for the width-3 open chain "
    "with weights (1,2,2,1), plus the order-independent prefactor forms.",
    "equal",
    Window(36),
)
def _run_mod12(w: Window) -> list:
    targets = {
        (1, -1, 1): (
            ProductSpec.make([(4, 12), (8, 12)], [(6, 12)]),
            "(q^4,q^8;q^12)_inf / (q^6;q^12)_inf",
        ),
        (1, 1, -1): (
            ProductSpec.make([(1, 6), (10, 12)], [(5, 6)]),
            "(q;q^6)_inf (q^10;q^12)_inf / (q^5;q^6)_inf",
        ),
        (1, 1, 1): (
            ProductSpec.make([(2, 12), (10, 12)], [(6, 12)]),
            "(q^2,q^10;q^12)_inf / (q^6;q^12)_inf",
        ),
        (-1, 1, 1): (
            ProductSpec.make([(2, 12), (5, 12), (11, 12)], [(1, 6)]),
            "(q^2,q^5,q^11;q^12)_inf / (q;q^6)_inf",
        ),
    }
    out = []
    for d, (spec, text) in targets.items():
        out += _sum_and_chain(
            ("profile %s: double sum = product" % (d,),
             "profile %s: (q;q)_inf x chain product = product" % (d,)),
            sum_mod12(d, w),
            "period-12 double sum (stacked width-6 closed form)",
            dspp_product(d, (1, 2, 2, 1), w),
            "two-multiset product, weights (1,2,2,1)",
            spec,
            text,
            w,
        )
    mismatch = None
    for n in range(21):
        for m in range(21):
            if sigma_prefactor_terms(n, m) != sigma_prefactor_factored(n, m):
                mismatch = (n, m)
                break
        if mismatch:
            break
    out.append(
        _flag_comparison(
            "prefactor forms agree for n, m <= 20",
            _CLOSED("seven-term aggregated prefactor"),
            _CLOSED("factored prefactor, expanded"),
            mismatch is None,
            "first mismatch at (n, m) = %s" % (mismatch,) if mismatch else "",
        )
    )
    return out


@_case(
    "goellnitz-sums",
    "The Goellnitz-Gordon and little Goellnitz sum-product identities, "
    "with the modulus-8 targets tied to the width-3 open chain products.",
    "equal",
    Window(40),
)
def _run_goellnitz(w: Window) -> list:
    data = {
        "GG1": ((1, 1, 1), ProductSpec.make((), [(3, 8), (4, 8), (5, 8)]),
                "1/(q^3,q^4,q^5;q^8)_inf"),
        "LG1": ((1, 1, -1), ProductSpec.make((), [(3, 4), (2, 8)]),
                "1/((q^3;q^4)_inf (q^2;q^8)_inf)"),
        "GG2": ((1, -1, 1), ProductSpec.make((), [(1, 8), (4, 8), (7, 8)]),
                "1/(q,q^4,q^7;q^8)_inf"),
        "LG2": ((-1, 1, 1), ProductSpec.make((), [(1, 4), (6, 8)]),
                "1/((q;q^4)_inf (q^6;q^8)_inf)"),
    }
    out = []
    for variant, (d, spec, text) in data.items():
        out += _sum_and_chain(
            ("%s sum = product" % variant, "%s: (q;q)_inf x chain product = product" % variant),
            sum_goellnitz(variant, w),
            "variant %s single sum" % variant,
            dspp_product(d, None, w),
            "two-multiset product, profile %s" % (d,),
            spec,
            text,
            w,
        )
    return out


@_case(
    "schmidt-refined",
    "Refined part-position identities: marked enumerations equal their "
    "chain enumerations and closed forms (sums or products).",
    "equal",
    Window(21, 20),
)
def _run_schmidt_refined(w: Window) -> list:
    out = []

    strict_odd = schmidt_genfun("distinct", w, "odd")
    out.append(
        compare_series(
            "distinct, odd marks: enumeration = sum",
            strict_odd,
            _ENUM("distinct partitions, z^largest q^(odd-position sum)"),
            sum_schmidt_distinct_odd(w),
            _SUM("sum z^(2n) q^(n(n+1)) / ((zq;q)_n (zq;q)_(n+1))"),
        )
    )
    out.append(
        compare_series(
            "distinct, odd marks: enumeration = strict chain",
            strict_odd,
            _ENUM("distinct partitions, z^largest q^(odd-position sum)"),
            genfun_by_enumeration("distinct", (1, -1), (0, 1), window=w),
            _ENUM("strict closed chain (1,-1), weights (0,1)"),
        )
    )
    strict_even = schmidt_genfun("distinct", w, "even")
    out.append(
        compare_series(
            "distinct, even marks: enumeration = sum",
            strict_even,
            _ENUM("distinct partitions, z^largest q^(even-position sum)"),
            sum_schmidt_distinct_even(w),
            _SUM("1 + sum z^(2n-1) q^(n(n-1)) / ((z;q)_n (zq;q)_n)"),
        )
    )
    out.append(
        compare_series(
            "distinct, even marks: enumeration = strict chain",
            strict_even,
            _ENUM("distinct partitions, z^largest q^(even-position sum)"),
            genfun_by_enumeration("distinct", (-1, 1), (0, 1), window=w),
            _ENUM("strict closed chain (-1,1), weights (0,1)"),
        )
    )

    plain_odd = schmidt_genfun("unrestricted", w, "odd")
    out.append(
        compare_series(
            "unrestricted, odd marks: enumeration = product",
            plain_odd,
            _ENUM("partitions, z^largest q^(odd-position sum)"),
            poch_product([], [zf(1, 1, 1), zf(1, 1, 1)], w),
            _PROD("1/(zq;q)_inf^2"),
        )
    )
    out.append(
        compare_series(
            "unrestricted, odd marks: enumeration = closed chain",
            plain_odd,
            _ENUM("partitions, z^largest q^(odd-position sum)"),
            genfun_by_enumeration("cylindric", (1, -1), (0, 1), window=w),
            _ENUM("closed chain (1,-1), weights (0,1)"),
        )
    )
    plain_even = schmidt_genfun("unrestricted", w, "even")
    out.append(
        compare_series(
            "unrestricted, even marks: enumeration = product",
            plain_even,
            _ENUM("partitions, z^largest q^(even-position sum)"),
            poch_product([], [zf(1, 1, 1), zf(1, 1, 1)], w) * inv_poch_finite(zf(1, 0, 1), 1, w),
            _PROD("1/((1-z) (zq;q)_inf^2)"),
        )
    )
    out.append(
        compare_series(
            "unrestricted, even marks: enumeration = closed chain",
            plain_even,
            _ENUM("partitions, z^largest q^(even-position sum)"),
            genfun_by_enumeration("cylindric", (-1, 1), (0, 1), window=w),
            _ENUM("closed chain (-1,1), weights (0,1)"),
        )
    )

    diamonds = schmidt_genfun("diamond", w)
    out.append(
        compare_series(
            "diamonds: enumeration = product",
            diamonds,
            _ENUM("partition diamonds, z^largest q^(anchor sum)"),
            poch_product([zf(1, 1, 1, -1)], [zf(1, 1, 1)] * 3, w),
            _PROD("(-zq;q)_inf / (zq;q)_inf^3"),
        )
    )
    out.append(
        compare_series(
            "diamonds: enumeration = open chain",
            diamonds,
            _ENUM("partition diamonds, z^largest q^(anchor sum)"),
            genfun_by_enumeration("skew-shifted", (1, -1), (0, 1, 0), window=w),
            _ENUM("open chain (1,-1), weights (0,1,0)"),
        )
    )
    return out


@_case(
    "schmidt-marginals",
    "Setting z = 1 in the refined identities: odd-position sums over "
    "distinct/unrestricted partitions and the diamond anchor sum.",
    "equal",
    Window(16),
)
def _run_schmidt_marginals(wq: Window) -> list:
    w = Window(wq.q_truncation, wq.q_truncation)
    return [
        compare_series(
            "distinct, odd marks",
            schmidt_genfun("distinct", w, "odd").collapse_z(),
            _ENUM("distinct partitions, q^(odd-position sum)"),
            poch_product([], [qf(1, 1)], wq),
            _PROD("1/(q;q)_inf"),
        ),
        compare_series(
            "unrestricted, odd marks",
            schmidt_genfun("unrestricted", w, "odd").collapse_z(),
            _ENUM("partitions, q^(odd-position sum)"),
            poch_product([], [qf(1, 1), qf(1, 1)], wq),
            _PROD("1/(q;q)_inf^2"),
        ),
        compare_series(
            "diamond anchors",
            schmidt_genfun("diamond", w).collapse_z(),
            _ENUM("partition diamonds, q^(anchor sum)"),
            poch_product([qf(1, 1, -1)], [qf(1, 1)] * 3, wq),
            _PROD("(-q;q)_inf / (q;q)_inf^3"),
        ),
    ]


@_case(
    "hook-counts",
    "Largest-part / largest-hook equidistributions: odd-position sums "
    "against hooks, and shifted even-position sums against hooks of "
    "partitions with parts > 1.",
    "equal",
    Window(16),
)
def _run_hook_counts(w: Window) -> list:
    n_trunc = w.q_truncation
    max_weight = n_trunc - 1
    odd = count_distinct_by_marked_sum(max_weight, "odd")
    hooks = count_partitions_by_hook(max_weight)
    shifted = count_distinct_by_marked_sum(
        max_weight, "even", include_largest=True
    )
    big_hooks = count_partitions_by_hook(max_weight + 1, min_part=2)
    return [
        compare_series(
            "odd-position sums match hooks",
            _table_series(odd, n_trunc),
            _TABLE("distinct partitions by (largest part, odd-position sum)"),
            _table_series(hooks, n_trunc),
            _TABLE("partitions by (largest hook, size)"),
        ),
        compare_series(
            "shifted even-position sums match hooks over parts > 1",
            _table_series(shifted, n_trunc),
            _TABLE(
                "distinct partitions by (largest part, largest + even-position sum)"
            ),
            _table_series(big_hooks, n_trunc, shift_m=1, shift_n=1),
            _TABLE("partitions with parts > 1 by (largest hook - 1, size - 1)"),
        ),
    ]


@_case(
    "signed-distinct-mod2",
    "Alternating sum = (q;q^2)_inf (-q^2;q^2)_inf = signed distinct "
    "partition count, linked to the width-4 coefficient chain at z = q.",
    "equal",
    Window(40),
)
def _run_signed_distinct(w: Window) -> list:
    product = poch_product([qf(1, 2), qf(2, 2, -1)], [], w)
    out = [
        compare_series(
            "alternating sum = product",
            sum_signed_distinct_mod2(w),
            _SUM("alternating period-2 sum"),
            product,
            _PROD("(q;q^2)_inf (-q^2;q^2)_inf"),
        ),
        compare_series(
            "signed enumeration = product",
            signed_distinct_genfun(w),
            _ENUM("sum over distinct partitions of (-1)^(odd parts) q^size"),
            product,
            _PROD("(q;q^2)_inf (-q^2;q^2)_inf"),
        ),
    ]
    degrees = itertools.takewhile(lambda n: n * n + n < w.q_truncation, itertools.count())
    chain = _combine(w, [(h, 0, n, 1) for n, h in zip(degrees, closed_form_width4((1, -1)).values(w))])
    doubled = poch_product([qf(2, 4), qf(4, 4, -1)], [], w)
    out.append(
        compare_series(
            "coefficient chain at z = q",
            chain,
            _CLOSED("sum_n q^n h(n), width-4 closed form, profile (1,-1)"),
            doubled,
            _PROD("(q^2;q^4)_inf (-q^4;q^4)_inf"),
        )
    )
    # the chain's coefficients read on the q^(1/2) grid: exponents below N
    # halve to exponents below ceil(N / 2), and an odd one stays a term
    half_trunc = (w.q_truncation + 1) // 2
    out.append(
        compare_series(
            "halved chain = product",
            TruncatedSeries(dict(chain.coeffs), half_trunc, None, 2 * chain.q_scale),
            _CLOSED("the chain with every exponent halved"),
            poch_product([qf(1, 2), qf(2, 2, -1)], [], Window(half_trunc)),
            _PROD("(q;q^2)_inf (-q^2;q^2)_inf"),
        )
    )
    return out


@_case(
    "distinct-pair-chains",
    "Strict closed chains of width 2 with weights (0,1): the "
    "inhomogeneous solver reproduces both refined sums.",
    "equal",
    Window(15, 15),
)
def _run_distinct_pairs(w: Window) -> list:
    system = build_system("distinct", (1, -1), (0, 1))
    solved = solve_fixed_point(system, w)
    return [
        compare_series(
            "odd-mark chain: solver = sum",
            solved[(1, -1)],
            _SOLVER("inhomogeneous fixed point, profile (1,-1)"),
            sum_schmidt_distinct_odd(w),
            _SUM("sum z^(2n) q^(n(n+1)) / ((zq;q)_n (zq;q)_(n+1))"),
        ),
        compare_series(
            "even-mark chain: solver = sum",
            solved[(-1, 1)],
            _SOLVER("inhomogeneous fixed point, profile (-1,1)"),
            sum_schmidt_distinct_even(w),
            _SUM("1 + sum z^(2n-1) q^(n(n-1)) / ((z;q)_n (zq;q)_n)"),
        ),
        compare_series(
            "odd-mark chain: enumeration = solver",
            genfun_by_enumeration("distinct", (1, -1), (0, 1), window=w),
            _ENUM("strict closed chain (1,-1), weights (0,1)"),
            solved[(1, -1)],
            _SOLVER("inhomogeneous fixed point, profile (1,-1)"),
        ),
    ]


@_case(
    "solver-vs-enumeration",
    "The fixed-point solver agrees with direct enumeration on every "
    "width-3 profile, closed and open chains, standard weights.",
    "equal",
    Window(12, 12),
)
def _run_solver_vs_enumeration(w: Window) -> list:
    out = []
    for kind in ("cylindric", "skew-shifted"):
        solved: dict = {}
        for d in _sign_profiles(3):
            if d not in solved:
                system = build_system(kind, d, None, normalized=False)
                solved.update(solve_fixed_point(system, w))
            out.append(
                compare_series(
                    "%s %s" % (kind, d),
                    solved[d],
                    _SOLVER("unnormalized fixed point"),
                    genfun_by_enumeration(kind, d, window=w),
                    _ENUM("%s enumeration, standard weights" % kind),
                )
            )
    return out


@_case(
    "product-embedding",
    "Arbitrary-exponent products as weighted chains: the weights (1,1,2) "
    "realize 1/(q,q^2,q^4;q^4), and the (2,1,2) chain is the reciprocal "
    "of an alternating theta sum.",
    "equal",
    Window(18),
)
def _run_product_embedding(w: Window) -> list:
    theta = theta_sum(2, 3, w)
    chain = genfun_by_enumeration(
        "cylindric", (-1, -1, 1), (2, 1, 2), window=w
    ).collapse_z()
    return [
        compare_series(
            "weighted chain = target product",
            genfun_by_enumeration(
                "cylindric", (-1, -1, 1), (1, 1, 2), window=w
            ).collapse_z(),
            _ENUM("closed chain (-1,-1,1), weights (1,1,2)"),
            ProductSpec.make((), [(1, 4), (2, 4), (4, 4)]).expand(w),
            _PROD("1/(q,q^2,q^4;q^4)_inf"),
        ),
        compare_series(
            "theta sum = modulus-5 triple product",
            theta,
            _SUM("sum_(n in Z) (-1)^n q^(2 C(n+1,2) + 3 C(n,2))"),
            ProductSpec.make([(2, 5), (3, 5), (5, 5)], ()).expand(w),
            _PROD("(q^2,q^3,q^5;q^5)_inf"),
        ),
        compare_series(
            "chain x theta = 1",
            chain * theta,
            _ENUM("closed chain (-1,-1,1), weights (2,1,2), times the theta sum"),
            one(w),
            _PROD("1"),
        ),
    ]


@_case(
    "symmetric-mirror-counts",
    "Mirror-symmetric chains: the symmetric enumeration equals its "
    "boundary-1/interior-2 product, and the non-symmetric surplus of the "
    "doubled chain equals the even/odd ratio product.",
    "equal",
    Window(10),
)
def _run_symmetric_mirror(w: Window) -> list:
    out = []
    for half in ((1,), (1, 1), (1, -1), (-1, 1)):
        sym = genfun_by_enumeration("symmetric", half, window=w).collapse_z()
        out.append(
            compare_series(
                "half profile %s: symmetric = product" % (half,),
                sym,
                _ENUM("mirror-symmetric chain enumeration"),
                scp_product_spec(half).expand(w),
                _PROD("two-multiset product with weights %s" % (scp_weights(len(half)),)),
            )
        )
        full = genfun_by_enumeration(
            "cylindric", full_profile(half), window=w
        ).collapse_z()
        out.append(
            compare_series(
                "half profile %s: doubled minus symmetric = mirror product" % (half,),
                full - sym,
                _ENUM("doubled closed chain minus symmetric enumeration"),
                nonsymmetric_mirror_series(half, w),
                _PROD("symmetric product x (even/odd ratio - 1)"),
            )
        )
    return out


#: Per width: the seed profile and weights of its open-chain system, the
#: family's profiles, closed form, typed relation, the relation's term count
#: and the degrees its checks run to.
_FAMILIES = {
    4: ((1, -1), (1, 2, 1), ((1, 1), (1, -1), (-1, 1)),
        closed_form_width4, width4_recurrence, "three", 12),
    6: ((1, -1, 1), (1, 2, 2, 1), ((1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)),
        closed_form_width6, width6_recurrence, "four", 10),
}


def _run_closed_forms(width: int, w: Window) -> list:
    """Solver coefficients = the stacked closed forms, every profile of the
    width-4 or width-6 family; width 4 adds its reversal symmetry."""
    start, weights, profiles, form = _FAMILIES[width][:4]
    solved = solve_fixed_point(build_system("skew-shifted", start, weights, normalized=True), w)
    out = [
        compare_series(
            "profile %s: solver = closed form" % (d,),
            solved[d],
            _SOLVER("normalized fixed point"),
            _stack_values(form(d), w.z_truncation, w),
            _CLOSED("sum_n z^n h(n) from the width-%d closed form" % width),
        )
        for d in profiles
    ]
    if width == 4:
        out.append(
            compare_series(
                "reversal symmetry: (-1,-1) = (1,1)",
                solved[(-1, -1)],
                _SOLVER("normalized fixed point, profile (-1,-1)"),
                solved[(1, 1)],
                _SOLVER("normalized fixed point, profile (1,1)"),
            )
        )
    return out


_case(
    "width4-coefficient-forms",
    "Width-2 open chain, weights (1,2,1): solver coefficients equal the "
    "closed forms, and the reversed profile repeats them.",
    "equal",
    Window(20, 8),
)(partial(_run_closed_forms, 4))

_case(
    "width6-coefficient-forms",
    "Width-3 open chain, weights (1,2,2,1): solver coefficients equal "
    "the four closed forms.",
    "equal",
    Window(24, 6),
)(partial(_run_closed_forms, 6))


@_case(
    "coefficient-recurrences",
    "The uncoupled coefficient recurrences annihilate their closed "
    "forms (width-4 and width-6 families).",
    "equal",
    Window(1),  # windows are chosen per degree by the checker
)
def _run_coefficient_recurrences(window: Window) -> list:
    # fixed degrees, each check in the window check_closed_form derives from
    # them: every note names the degrees and the window actually used
    out = []
    for width, (_s, _w, profiles, form, relation, terms, n_max) in _FAMILIES.items():
        for d in profiles:
            rep = check_closed_form(form(d), relation(d), n_max)
            note = "checked degrees %d..%d in q<%d, whatever the case window" % (
                rep.start_degree, n_max, rep.window.q_truncation)
            if not rep.holds:
                note += "; failures at %s" % (rep.failures[:3],)
            out.append(
                _flag_comparison(
                    "width-%d recurrence, profile %s, n <= %d" % (width, d, n_max),
                    _CLOSED("width-%d closed form" % width),
                    Side("%s-term uncoupled recurrence" % terms, "recurrence"),
                    rep.holds and rep.initial_ok and not rep.vacuous,
                    note,
                )
            )
    return out


@_case(
    "mixed-weighted-pair",
    "A closed chain and an open chain claimed to share one product: the "
    "open side checks out; the closed side's series is reported against "
    "the claim and against its own direct product.",
    "report-only",
    Window(12),
)
def _run_mixed_weighted_pair(wq: Window) -> list:
    open_side, claimed = _weighted_open_chain(wq)
    closed_side = genfun_by_enumeration(
        "cylindric", (-1, 1, 1, 1), (1, 1, 0, 0), window=Window(wq.q_truncation, wq.q_truncation)
    ).collapse_z()
    return [
        compare_series(
            "open chain = claimed product",
            open_side,
            _ENUM("open chain (1,-1), weights (0,1,0)"),
            claimed,
            _PROD("1/((q;q)_inf^3 (q;q^2)_inf)"),
        ),
        compare_series(
            "closed chain vs claimed product",
            closed_side,
            _ENUM("closed chain (-1,1,1,1), weights (1,1,0,0)"),
            claimed,
            _PROD("1/((q;q)_inf^3 (q;q^2)_inf)"),
        ),
        compare_series(
            "closed chain = its own direct product",
            closed_side,
            _ENUM("closed chain (-1,1,1,1), weights (1,1,0,0)"),
            cp_product((-1, 1, 1, 1), (1, 1, 0, 0), wq),
            _PROD("exponent-multiset product for weights (1,1,0,0)"),
        ),
        compare_series(
            "closed chain = modulus-2 triple product",
            closed_side,
            _ENUM("closed chain (-1,1,1,1), weights (1,1,0,0)"),
            ProductSpec.make((), [(1, 2), (1, 2), (1, 2), (2, 2)]).expand(wq),
            _PROD("1/((q;q^2)_inf^3 (q^2;q^2)_inf)"),
        ),
    ]


_CHAIN_ONE = (
    "target (q^2,q^3;q^5)_inf / (q;q)_inf",
    ProductSpec.make([(2, 5), (3, 5)], [(1, 1)]),
    ProductSpec.make((), [(1, 5), (4, 5)]),
    (
        ((-1, -1, 1), (1, 3, 1)),
        ((-1, -1, 1, 1), (1, 3, 1, 5)),
        ((-1, 1, -1, 1, 1), (1, 4, 4, 1, 5)),
        ((-1, 1, -1, 1, -1), (5, 4, 1, 1, 4)),
    ),
)

_CHAIN_TWO = (
    "target (q,q^4;q^5)_inf / (q;q)_inf",
    ProductSpec.make([(1, 5), (4, 5)], [(1, 1)]),
    ProductSpec.make((), [(2, 5), (3, 5)]),
    (
        ((-1, 1, 1), (2, 2, 1)),
        ((-1, 1, -1, 1), (2, 2, 3, 3)),
        ((-1, 1, -1, 1, 1), (2, 3, 3, 2, 5)),
        ((-1, 1, -1, 1, -1), (5, 3, 2, 2, 3)),
    ),
)


def _run_mod5_chain(chain, w: Window) -> list:
    target_text, target_spec, core_spec, entries = chain
    target = target_spec.expand(w)
    core = core_spec.expand(w)
    out = []
    for idx, (d, weights) in enumerate(entries, start=1):
        enum = genfun_by_enumeration("cylindric", d, weights, window=w).collapse_z()
        label = "entry %d: profile %s, weights %s" % (idx, d, weights)
        out.append(
            compare_series(
                label + ": enumeration = direct product",
                enum,
                _ENUM("closed chain enumeration"),
                cp_product(d, weights, w),
                _PROD("exponent-multiset product"),
            )
        )
        total = sum(weights)
        out.append(
            compare_series(
                label + ": chain x (q^%d;q^%d)_inf = shared core" % (total, total),
                enum * poch_infinite(qf(total, total), w),
                _ENUM("enumeration with its full-period factor removed"),
                core,
                _PROD("core product, modulus 5"),
            )
        )
        out.append(
            compare_series(
                label + ": vs chain target",
                enum,
                _ENUM("closed chain enumeration"),
                target,
                _PROD(target_text),
            )
        )
    return out


_case(
    "mod5-chain-1",
    "First ladder of weighted closed chains aimed at a modulus-5 target: "
    "every entry matches its own product and the shared core; the "
    "width-4/5 entries are reported against the chain target.",
    "report-only",
    Window(12),
)(partial(_run_mod5_chain, _CHAIN_ONE))

_case(
    "mod5-chain-2",
    "Second ladder of weighted closed chains aimed at a modulus-5 "
    "target: entries match their own products and the shared core; the "
    "width-4/5 entries are reported against the chain target.",
    "report-only",
    Window(12),
)(partial(_run_mod5_chain, _CHAIN_TWO))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _exp_json(e):
    f = Fraction(e)
    return int(f) if f.denominator == 1 else str(f)


def _entry_json(entry) -> dict:
    z_deg, q_exp, ca, cb = entry
    return {
        "z_degree": z_deg,
        "q_exponent": _exp_json(q_exp),
        "lhs": ca,
        "rhs": cb,
    }


def _window_json(window: Window) -> dict:
    return {
        "q_truncation": window.q_truncation,
        "z_truncation": window.z_truncation,
        "q_scale": window.q_scale,
    }


def verify(case, window: Optional[Window] = None) -> dict:
    """Run an identity case and return its report.

    ``case`` is an `IdentityCase` or a registry label.  ``window``
    defaults to the case's own; a window without a z-bound takes the
    case's z-bound, and the report records the window the case ran in.  A
    z-bound on a case without one, a q-grid other than the case's, or a
    window without a q-bound raises ``ValueError``.
    The report is a JSON-shaped dict (schema ``cylq-report/1``) recording
    that window, the conventions in force, one entry per comparison with
    provenance for both sides, and -- for unequal comparisons -- the first
    difference plus up to twelve differing coefficients.  Mismatches are
    reported, never raised.
    """
    if isinstance(case, str):
        case = get_case(case)
    used = case._window_for(window)
    comparisons = case.runner(used)
    all_equal = all(c.equal for c in comparisons)
    if case.expected == "report-only":
        status = "report"
    else:
        status = "pass" if all_equal else "mismatch"
    return {
        "schema": "cylq-report/1",
        "case": case.label,
        "description": case.description,
        "expected": case.expected,
        "window": _window_json(used),
        "conventions": dict(CONVENTIONS),
        "equal": all_equal,
        "status": status,
        "comparisons": [
            {
                "label": c.label,
                "lhs": {"description": c.lhs.description, "provenance": c.lhs.provenance},
                "rhs": {"description": c.rhs.description, "provenance": c.rhs.provenance},
                "equal": c.equal,
                "first_difference": None
                if c.first_difference is None
                else _entry_json(c.first_difference),
                "coefficients": [_entry_json(r) for r in c.rows],
                "note": c.note,
            }
            for c in comparisons
        ],
    }


def report_text(report: dict) -> str:
    """Human-readable rendering of a `verify` report."""
    lines = [
        "case %s [%s] -- %s" % (report["case"], report["status"], report["description"]),
        "window: q<%s z<=%s scale=%s; %s"
        % (
            report["window"]["q_truncation"],
            report["window"]["z_truncation"],
            report["window"]["q_scale"],
            "; ".join("%s=%s" % kv for kv in sorted(report["conventions"].items())),
        ),
    ]
    for c in report["comparisons"]:
        mark = "=" if c["equal"] else "!="
        lines.append(
            "  [%s] %s (%s %s %s)"
            % (
                "ok" if c["equal"] else "DIFF",
                c["label"],
                c["lhs"]["provenance"],
                mark,
                c["rhs"]["provenance"],
            )
        )
        if c["note"]:
            lines.append("       note: %s" % c["note"])
        if c["first_difference"] is not None:
            d = c["first_difference"]
            lines.append(
                "       first difference at z^%s q^%s: %s vs %s"
                % (d["z_degree"], d["q_exponent"], d["lhs"], d["rhs"])
            )
            for r in c["coefficients"]:
                lines.append(
                    "         z^%s q^%s: %s vs %s"
                    % (r["z_degree"], r["q_exponent"], r["lhs"], r["rhs"])
                )
    return "\n".join(lines)
