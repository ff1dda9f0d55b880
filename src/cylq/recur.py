"""Coupled q-difference systems for grid-partition generating functions.

Splitting every object counted by ``F_delta(z) = sum z^(largest part)
q^(weighted size)`` according to which removable corners of the profile
carry its largest parts relates ``F_delta`` to shifted evaluations of the
generating functions of neighbouring profiles.  Inclusion-exclusion over
nonempty corner subsets ``J`` gives the unnormalized system

    F_p(z) = sum_J (-1)^(|J|-1) F_(sigma_J p)(z q^(s_J)) / (1 - z q^(s_J)),

where ``s_J`` sums the weights at the chosen corners and ``sigma_J`` swaps
the sign pairs there.  Multiplying through by ``(zq;q)_inf`` turns the
denominators into polynomial prefactors (the normalized system)

    H_p(z) = sum_J (-1)^(|J|-1) (zq;q)_(s_J - 1) H_(sigma_J p)(z q^(s_J)).

For the distinct kind the recursion is inhomogeneous and carries no
alternating sign: rows are distinct, so the largest part appears exactly
once at each peak that carries it, and classifying a nonempty object by
the exact set ``J`` of such peaks partitions the objects.  Removing those
rows leaves an object whose parts are all smaller, giving

    F_p(z) = 1 + sum_J z q^(s_J) F_(sigma_J p)(z q^(s_J)) / (1 - z q^(s_J)).

This module builds those systems for all four object kinds, solves them by
graded fixed-point iteration, eliminates a normalized system down to a
single functional equation by substitution, converts functional equations
to coefficient recurrences in the z-degree, and checks closed-form
coefficient sequences against such recurrences exactly.  Coefficient
sequences use the conventions ``h(0) = 1`` and ``h(n) = 0`` for ``n < 0``.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import floor, lcm
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .lattice import _CLOSED_KINDS, KINDS, _check_profile, _resolve
from .series import (TruncatedSeries, Window, _UNIT_STEP, _add_into, _collect, _combine, _doublings, _from_pack,
                     _from_rows, _magnitude, _min_bound, _monomial, _pack_q, _poch, _rebase, _running, _shift_sum,
                     _signed_spread, _signed_sum, _slot_size, _strip, _times_binomials, _widen, make_series, one,
                     poch_finite, qf, zero, zf)

__all__ = [
    "CheckReport",
    "CoefficientRecurrence",
    "CoefficientSequence",
    "EliminationResult",
    "FunctionalSystem",
    "FunctionalTerm",
    "LinQPoly",
    "build_system",
    "check_closed_form",
    "closed_form_euler",
    "closed_form_goellnitz",
    "closed_form_width4",
    "closed_form_width6",
    "corner_moves",
    "corner_set",
    "corner_subset_terms",
    "eliminate",
    "poch_z_prefactor",
    "profile_closure",
    "reverse_profile",
    "sigma_prefactor_factored",
    "sigma_prefactor_terms",
    "solve_fixed_point",
    "system_from_json",
    "system_to_json",
    "to_coefficient_recurrences",
    "width4_recurrence",
    "width6_recurrence",
]


# ---------------------------------------------------------------------------
# profiles and corners
# ---------------------------------------------------------------------------


def reverse_profile(profile: Sequence[int]) -> tuple:
    """The profile of an open chain read backwards: negate and reverse.

    Reading a chain ``lambda^0, ..., lambda^h`` in the other direction
    turns every ascent into a descent, so ``delta_i`` becomes
    ``-delta_(h+1-i)``.  With a palindromic weight vector the reversed
    chain keeps the weighted size and the largest part, so both profiles
    have the same generating function.
    """
    return tuple(-x for x in reversed(_check_profile(profile)))


def _is_closed_kind(kind: str) -> bool:
    if kind not in KINDS:
        raise ValueError(
            "unknown kind %r; expected one of %s" % (kind, ", ".join(KINDS))
        )
    return kind in _CLOSED_KINDS


def corner_set(kind: str, profile: Sequence[int]) -> tuple:
    """Indices at which a block of largest parts can be removed.

    Closed kinds (cylindric, distinct): ``j`` in ``0..h-1`` is a corner iff
    ``(delta[j-1], delta[j]) = (+1, -1)`` with the index wrapping around
    the cycle.  Open kinds (skew-shifted, symmetric): ``j`` runs over
    ``0..h``; the left end ``j = 0`` is a corner iff ``delta[0] = -1``, the
    right end ``j = h`` iff ``delta[h-1] = +1``, and an interior ``j`` iff
    ``(delta[j-1], delta[j]) = (+1, -1)``.
    """
    closed = _is_closed_kind(kind)
    d = _check_profile(profile)
    h = len(d)
    peaks = [j for j in range(h) if d[j - 1] == 1 and d[j] == -1]  # j = 0 wraps around
    if closed:
        return tuple(peaks)
    return tuple([0] * (d[0] == -1) + [j for j in peaks if j] + [h] * (d[h - 1] == 1))


def corner_moves(
    kind: str, profile: Sequence[int], weights: Optional[Sequence] = None
) -> tuple:
    """Each removable corner as ``(index, shift, swapped profile)``.

    The shift is the weight at the corner index; the swapped profile is
    the profile after removing a maximal block there (signs swapped at the
    corner, or the single boundary sign flipped for open ends).
    """
    kind, d, w = _resolve(kind, profile, weights)
    h = len(d)
    moves = []
    for j in corner_set(kind, d):
        nd = list(d)
        if kind in _CLOSED_KINDS or 0 < j < h:
            nd[j - 1], nd[j] = -1, 1  # a closed chain wraps at j = 0
        elif j == 0:
            nd[0] = 1
        else:
            nd[h - 1] = -1
        moves.append((j, w[j], tuple(nd)))
    return tuple(moves)


def corner_subset_terms(
    kind: str, profile: Sequence[int], weights: Optional[Sequence] = None
) -> tuple:
    """Corner-subset triples ``(sign, shift, profile)`` over nonempty
    corner subsets.

    A subset ``J`` swaps the signs at each of its corners (the swaps touch
    disjoint index pairs) and shifts the argument by ``q^(s_J)`` with
    ``s_J`` the sum of the chosen corner weights.  For the weak kinds the
    subsets overcount and carry the inclusion-exclusion sign
    ``(-1)^(|J|-1)`` (the signs then sum to 1, so the constant terms of
    the two sides agree).  For the distinct kind the subset ``J`` is the
    exact set of peaks holding the largest part, the strata partition the
    nonempty objects, and every sign is ``+1``.
    """
    kind, d, w = _resolve(kind, profile, weights)
    strict = kind == "distinct"
    moves = corner_moves(kind, d, None if kind == "symmetric" else w)
    terms = []
    for r in range(1, len(moves) + 1):
        for combo in itertools.combinations(moves, r):
            nd = list(d)
            for _j, _wj, single in combo:  # the swaps touch disjoint entries
                nd = [y if y != x else z for x, y, z in zip(d, single, nd)]
            s = sum((wj for _j, wj, _single in combo), Fraction(0))
            sign = 1 if strict else (-1) ** (r - 1)
            terms.append((sign, s, tuple(nd)))
    if terms and not strict:
        assert sum(t[0] for t in terms) == 1
    return tuple(terms)


def profile_closure(
    kind: str, profile: Sequence[int], weights: Optional[Sequence] = None
) -> tuple:
    """All profiles reachable from the seed by corner-subset swaps, sorted."""
    kind, seed, w = _resolve(kind, profile, weights)
    weights_arg = None if kind == "symmetric" else w
    seen = {seed}
    frontier = [seed]
    while frontier:
        p = frontier.pop()
        for _sgn, _s, q in corner_subset_terms(kind, p, weights_arg):
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return tuple(sorted(seen))


# ---------------------------------------------------------------------------
# functional terms and systems
# ---------------------------------------------------------------------------


def _canon_monomials(entries: Iterable) -> tuple:
    pairs = []
    for d, e, c in entries:
        d, e, c = int(d), Fraction(e), int(c)
        if d < 0:
            raise ValueError("prefactor z-degrees must be nonnegative")
        if e < 0:
            raise ValueError("prefactor q-exponents must be nonnegative")
        pairs.append(((d, e), c))
    return tuple((d, e, c) for (d, e), c in sorted(_collect(pairs).items()))


ONE_PREFACTOR = ((0, Fraction(0), 1),)


@dataclass(frozen=True)
class FunctionalTerm:
    """One summand of a functional equation.

    The term denotes ``sign * prefactor(z, q) * F_target(z q^shift)``,
    divided by ``(1 - z q^den_shift)`` when ``den_shift`` is set.  A term
    with ``target=None`` is the constant ``inhomogeneous``.  ``prefactor``
    is a polynomial in z and q stored as monomials ``(z_degree,
    q_exponent, coefficient)``.
    """

    sign: int
    shift: Fraction
    target: Optional[tuple]
    prefactor: tuple = ONE_PREFACTOR
    den_shift: Optional[Fraction] = None
    inhomogeneous: int = 0

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        object.__setattr__(self, "shift", Fraction(self.shift))
        if self.shift < 0:
            raise ValueError("shift must be nonnegative")
        if self.den_shift is not None:
            object.__setattr__(self, "den_shift", Fraction(self.den_shift))
            if self.den_shift < 0:
                raise ValueError("den_shift must be nonnegative")
        object.__setattr__(self, "prefactor", _canon_monomials(self.prefactor))
        object.__setattr__(self, "inhomogeneous", int(self.inhomogeneous))
        if self.target is None:
            if self.inhomogeneous == 0:
                raise ValueError("a constant term needs a nonzero value")
        else:
            object.__setattr__(self, "target", _check_profile(self.target))

    def prefactor_series(self, window: Window) -> TruncatedSeries:
        """The prefactor polynomial as a truncated series."""
        return make_series(self.prefactor, window)

    def pretty(self, symbol: str = "F") -> str:
        if self.target is None:
            return str(self.inhomogeneous)
        bits = []
        if self.sign < 0:
            bits.append("-")
        pf = _pretty_poly(self.prefactor)
        if pf != "1":
            bits.append("(%s)" % pf)
        arg = "z" if self.shift == 0 else "z*q^%s" % _pretty_exp(self.shift)
        bits.append("%s[%s](%s)" % (symbol, _pretty_profile(self.target), arg))
        if self.den_shift is not None:
            den = (
                "(1 - z)"
                if self.den_shift == 0
                else "(1 - z*q^%s)" % _pretty_exp(self.den_shift)
            )
            bits.append("/ %s" % den)
        return " ".join(bits)


def _pretty_exp(e: Fraction) -> str:
    return str(e.numerator) if e.denominator == 1 else "(%s)" % e


def _exact(x) -> Union[int, Fraction]:
    """``x`` as an exact number: an ``int`` where it is integral."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _pretty_profile(p: tuple) -> str:
    return ",".join("%+d" % x for x in p)


def _pretty_poly(monomials: tuple) -> str:
    return _signed_sum((c, _monomial(d, e, _pretty_exp)) for d, e, c in monomials)


@dataclass
class FunctionalSystem:
    """A closed coupled system of functional equations.

    ``equations`` maps each profile to the tuple of terms whose sum equals
    that profile's generating function; the system is closed (every target
    profile has its own equation).  ``normalized`` records whether the
    unknowns are the ``(zq;q)_inf``-multiples ``H`` (polynomial
    prefactors) or the plain generating functions ``F``.
    """

    kind: str
    weights: tuple
    normalized: bool
    seed: tuple
    equations: dict

    def profiles(self) -> tuple:
        return tuple(sorted(self.equations))

    def symbol(self) -> str:
        return "H" if self.normalized else "F"

    def pretty(self) -> str:
        sym = self.symbol()
        lines = []
        for p in self.profiles():
            rhs = []
            for t in self.equations[p]:
                txt = t.pretty(sym)
                if rhs and not txt.startswith("-"):
                    rhs.append("+ " + txt)
                elif rhs:
                    rhs.append("- " + txt[1:].strip())
                else:
                    rhs.append(txt)
            lines.append("%s[%s](z) = %s" % (sym, _pretty_profile(p), " ".join(rhs)))
        return "\n".join(lines)


def poch_z_prefactor(s: int) -> tuple:
    """``(zq;q)_(s-1) = prod_(j=1)^(s-1) (1 - z q^j)`` as monomials."""
    if s < 1 or s != int(s):
        raise ValueError("the polynomial prefactor needs an integer shift >= 1")
    return _canon_monomials(poch_finite(zf(1, 1, 1), int(s) - 1, Window(None)).items())


def build_system(
    kind: str,
    profile: Sequence[int],
    weights: Optional[Sequence] = None,
    normalized: Union[str, bool] = "auto",
) -> FunctionalSystem:
    """The closed coupled system reached from the given profile.

    ``normalized="auto"`` produces the normalized system exactly when every
    weight is an integer >= 1 (so every subset shift is a positive integer
    and ``(zq;q)_(s-1)`` is a polynomial) and the kind is not distinct;
    otherwise the unnormalized system is produced.  Passing
    ``normalized=True`` with ineligible weights or the distinct kind is an
    error.  A constant cylindric profile has no corners; its equation is
    the single-term geometric one, ``F(z) = F(z q^A) / (1 - z q^A)`` with
    ``A`` the total weight.  A constant distinct profile is rejected: its
    series is the constant 1 and carries no recursion.
    """
    kind, seed, w = _resolve(kind, profile, weights)
    weights_arg = None if kind == "symmetric" else w
    eligible = kind != "distinct" and all(
        x.denominator == 1 and x >= 1 for x in w
    )
    if normalized == "auto":
        norm = eligible
    else:
        norm = bool(normalized)
        if norm and not eligible:
            raise ValueError(
                "the normalized system needs integer weights >= 1 and a "
                "non-distinct kind; build the unnormalized system instead"
            )

    equations = {}
    for p in profile_closure(kind, seed, weights_arg):
        raw = corner_subset_terms(kind, p, weights_arg)
        if not raw:
            if kind == "cylindric":
                total = sum(w, Fraction(0))
                raw = ((1, total, p),)
            else:
                raise ValueError(
                    "profile %r has no removable corner; the distinct "
                    "series it generates is the constant 1" % (p,)
                )
        terms = []
        if kind == "distinct":
            terms.append(
                FunctionalTerm(1, Fraction(0), None, ONE_PREFACTOR, None, 1)
            )
        for sgn, s, tgt in raw:
            if kind == "distinct":
                terms.append(
                    FunctionalTerm(sgn, s, tgt, ((1, s, 1),), s)
                )
            elif norm:
                terms.append(
                    FunctionalTerm(sgn, s, tgt, poch_z_prefactor(int(s)), None)
                )
            else:
                terms.append(FunctionalTerm(sgn, s, tgt, ONE_PREFACTOR, s))
        equations[p] = tuple(terms)
    return FunctionalSystem(kind, w, norm, seed, equations)


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


def _frac_json(x: Optional[Fraction]):
    return None if x is None else [x.numerator, x.denominator]


def _frac_load(x) -> Optional[Fraction]:
    return None if x is None else Fraction(int(x[0]), int(x[1]))


def system_to_json(system: FunctionalSystem) -> dict:
    return {
        "schema": "cylq-system/1",
        "kind": system.kind,
        "weights": [_frac_json(x) for x in system.weights],
        "normalized": system.normalized,
        "seed": list(system.seed),
        "equations": [
            {
                "profile": list(p),
                "terms": [
                    {
                        "sign": t.sign,
                        "shift": _frac_json(t.shift),
                        "target": None if t.target is None else list(t.target),
                        "prefactor": [
                            [d, _frac_json(e), c] for d, e, c in t.prefactor
                        ],
                        "den_shift": _frac_json(t.den_shift),
                        "inhomogeneous": t.inhomogeneous,
                    }
                    for t in system.equations[p]
                ],
            }
            for p in system.profiles()
        ],
    }


def system_from_json(payload: dict) -> FunctionalSystem:
    if not isinstance(payload, dict) or payload.get("schema") != "cylq-system/1":
        raise ValueError("unsupported system schema")
    equations = {}
    for eq in payload["equations"]:
        p = tuple(int(x) for x in eq["profile"])
        terms = []
        for t in eq["terms"]:
            terms.append(
                FunctionalTerm(
                    int(t["sign"]),
                    _frac_load(t["shift"]),
                    None if t["target"] is None else tuple(int(x) for x in t["target"]),
                    tuple((int(d), _frac_load(e), int(c)) for d, e, c in t["prefactor"])
                    or ONE_PREFACTOR,
                    _frac_load(t["den_shift"]),
                    int(t["inhomogeneous"]),
                )
            )
        equations[p] = tuple(terms)
    return FunctionalSystem(
        str(payload["kind"]),
        tuple(_frac_load(x) for x in payload["weights"]),
        bool(payload["normalized"]),
        tuple(int(x) for x in payload["seed"]),
        equations,
    )


# ---------------------------------------------------------------------------
# graded fixed-point solver
# ---------------------------------------------------------------------------


def solve_fixed_point(system: FunctionalSystem, window: Window) -> dict:
    """Solve the system within the window; returns ``{profile: series}``.

    The unique solution with constant term 1 (the empty object) is found
    z-degree by z-degree.  The coefficient of ``z^n`` is a q-series: its
    equation references lower z-degrees (already final) plus same-degree
    coefficients whose contributions carry ``q^(shift*n)``, so repeated
    sweeps gain q-valuation and stabilize.  Zero-shift references resolve
    through the same sweeps as long as every dependency cycle gains some
    q-valuation; a cycle with no gain is reported as unsolvable.
    """
    if window.q_truncation is None or window.z_truncation is None:
        raise ValueError("solving needs finite q and z truncations")
    n_trunc, d_trunc = window.q_truncation, window.z_truncation
    profiles = sorted(system.equations)
    scale = window.q_scale
    for terms in system.equations.values():
        for t in terms:
            if t.target is None:
                continue
            scale = lcm(scale, t.shift.denominator)
            if t.den_shift is not None:
                scale = lcm(scale, t.den_shift.denominator)
            for _d, e, _c in t.prefactor:
                scale = lcm(scale, e.denominator)
    ncap = n_trunc * scale

    # tables[p][n]: the coefficient of z^n in F_p, as a list of ints indexed
    # by q-numerator on the grid 1/scale, without trailing zeros
    tables = {}
    for p in profiles:
        inhoms = [t.inhomogeneous for t in system.equations[p] if t.target is None]
        const = sum(inhoms) if inhoms else 1
        tables[p] = [[const] if const else []]

    for n in range(1, d_trunc + 1):
        fixed = {}
        varmul = {}
        for p in profiles:
            fx: list = []
            vm: list = []  # same-degree references: (target, q-offset, coefficient)
            for t in system.equations[p]:
                if t.target is None:
                    continue
                s_num = int(t.shift * scale)
                # 1/(1 - z q^den_shift) lifts z^k of F(z q^shift) to every z^m, m >= k
                dn = int((t.den_shift or 0) * scale)
                for d, e, c in t.prefactor:
                    m = n - d
                    if m < 0:
                        continue
                    e_num = int(e * scale)
                    base = t.sign * c
                    for k in range(m if t.den_shift is None else 0, min(m, n - 1) + 1):
                        off = e_num + s_num * k + dn * (m - k)
                        _add_into(fx, off, tables[t.target][k], ncap, base)
                    if m == n:
                        vm.append((t.target, e_num + s_num * n, base))
            fixed[p] = _strip(fx)
            varmul[p] = vm

        cur = dict(fixed)  # rows are replaced, never changed in place
        rounds = 0
        while True:
            changed = False
            for p in profiles:
                acc = list(fixed[p])
                for tgt, off, c in varmul[p]:
                    _add_into(acc, off, cur[tgt], ncap, c)
                if _strip(acc) != cur[p]:
                    cur[p] = acc
                    changed = True
            if not changed:
                break
            rounds += 1
            if rounds > ncap + 50:
                zero_shift = {
                    p
                    for p in profiles
                    for t in system.equations[p]
                    if t.target is not None and t.shift == 0
                }
                raise RuntimeError(
                    "fixed-point iteration made no progress at z-degree %d; "
                    "zero-shift dependencies involve profiles %s" % (n, sorted(zero_shift))
                )
        for p in profiles:
            tables[p].append(cur[p])

    return {p: _from_rows(tables[p], n_trunc, d_trunc, scale) for p in profiles}


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EliminationResult:
    """Outcome of substitution-based elimination.

    On success, ``terms`` is a tuple of ``(monomials, shift)`` pairs and
    the kept profile's function satisfies ``F(z) = sum_i P_i(z, q)
    F(z q^(shift_i))``.  Failure (a substitution cycle, or non-polynomial
    prefactors) is reported through ``success``/``reason``, never raised.
    """

    keep: tuple
    success: bool
    terms: tuple = ()
    substituted: tuple = ()
    identified: bool = False
    reason: Optional[str] = None

    def as_system(self, template: FunctionalSystem) -> FunctionalSystem:
        """The single-profile system carrying the eliminated equation."""
        if not self.success:
            raise ValueError("elimination failed: %s" % self.reason)
        terms = tuple(
            FunctionalTerm(1, shift, self.keep, monos, None)
            for monos, shift in self.terms
        )
        return FunctionalSystem(
            template.kind,
            template.weights,
            True,
            self.keep,
            {self.keep: terms},
        )

    def pretty(self) -> str:
        if not self.success:
            return "elimination failed: %s" % self.reason
        rhs = []
        for monos, shift in self.terms:
            arg = "z" if shift == 0 else "z*q^%s" % _pretty_exp(shift)
            txt = "(%s) H[%s](%s)" % (
                _pretty_poly(monos),
                _pretty_profile(self.keep),
                arg,
            )
            rhs.append(txt if not rhs else "+ " + txt)
        return "H[%s](z) = %s" % (_pretty_profile(self.keep), " ".join(rhs))


def eliminate(
    system: FunctionalSystem,
    keep: Sequence[int],
    identify_reversals: Union[str, bool] = "auto",
) -> EliminationResult:
    """Reduce a normalized system to one equation for a single profile.

    Starting from the kept profile's equation, the first term whose target
    is another profile is rewritten everywhere using that profile's
    equation; each profile's equation is used at most once, so a profile
    that would need a second substitution is a cycle and elimination
    reports failure.  Like terms (same target and argument shift) are
    combined after every substitution, which is what makes the telescoping
    cancellations happen.

    ``identify_reversals`` treats a target profile and its reversal as the
    same unknown.  That is sound for open chains with palindromic weights
    (the reversed chain has the same generating function) and lets systems
    whose raw substitution graph is cyclic collapse to a finite equation;
    ``"auto"`` switches it on exactly in that case.
    """
    keep = _check_profile(keep)
    if keep not in system.equations:
        raise ValueError("profile %r is not part of the system" % (keep,))
    palindromic = tuple(system.weights) == tuple(reversed(system.weights))
    reversible = system.kind in ("skew-shifted", "symmetric") and palindromic
    if identify_reversals == "auto":
        ident = reversible
    else:
        ident = bool(identify_reversals)
        if ident and not reversible:
            raise ValueError(
                "reversal identification needs an open-chain kind with a "
                "palindromic weight vector"
            )
    if not system.normalized:
        return EliminationResult(
            keep,
            False,
            reason="the system is not normalized; its equations carry "
            "non-polynomial denominators",
        )

    def canon(p: tuple) -> tuple:
        if p == keep:
            return keep
        if not ident:
            return p
        r = reverse_profile(p)
        if r == keep:
            return keep
        options = [x for x in (p, r) if x in system.equations]
        return min(options) if options else p

    def load_terms(p: tuple):
        out = []
        for t in system.equations[p]:
            if t.target is None or t.den_shift is not None:
                return None
            out.append((t.sign * t.prefactor_series(Window(None)), t.shift, canon(t.target)))
        return out

    def combine(terms: list) -> list:
        merged: dict = {}
        for poly, shift, tgt in terms:
            key = (shift, tgt)
            merged[key] = merged[key] + poly if key in merged else poly
        return [(p, s, t) for (s, t), p in merged.items() if not p.is_zero()]

    working = load_terms(keep)
    if working is None:
        return EliminationResult(
            keep,
            False,
            identified=ident,
            reason="the kept profile's equation has a non-polynomial term",
        )
    working = combine(working)
    visited: list = []
    while True:
        pending = [t for _p, _s, t in working if t != keep]
        if not pending:
            break
        x = pending[0]
        if x in visited:
            return EliminationResult(
                keep,
                False,
                substituted=tuple(visited),
                identified=ident,
                reason="substitution cycle: profile %r would be needed twice"
                % (x,),
            )
        sub = load_terms(x)
        if sub is None:
            return EliminationResult(
                keep,
                False,
                substituted=tuple(visited),
                identified=ident,
                reason="equation for %r has a non-polynomial term" % (x,),
            )
        rewritten = []
        for poly, shift, tgt in working:
            if tgt != x:
                rewritten.append((poly, shift, tgt))
                continue
            for spoly, sshift, stgt in sub:
                rewritten.append((poly * spoly.substitute_z(shift), shift + sshift, stgt))
        working = combine(rewritten)
        visited.append(x)

    terms = tuple(
        (_canon_monomials(poly.items()), shift)
        for poly, shift, _t in sorted(working, key=lambda w: (w[1], [t[:2] for t in w[0].items()]))
    )
    return EliminationResult(keep, True, terms, tuple(visited), ident, None)


# ---------------------------------------------------------------------------
# coefficient recurrences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinQPoly:
    """``sum_j c_j q^(alpha_j n + beta_j)`` stored as ``(alpha, beta, c)``."""

    entries: tuple

    @staticmethod
    def from_entries(entries: Iterable) -> "LinQPoly":
        """Collect like terms; an integral ``alpha`` or ``beta`` is kept as an
        ``int`` (equal to, and hashing like, its ``Fraction``), so the
        exponents of :meth:`instantiate` stay ints wherever they can."""
        agg = _collect(((_exact(a), _exact(b)), int(c)) for a, b, c in entries)
        return LinQPoly(tuple((a, b, c) for (a, b), c in sorted(agg.items())))

    def is_zero(self) -> bool:
        return not self.entries

    def instantiate(self, n: int) -> dict:
        """The polynomial at a concrete degree, as ``{q-exponent: coeff}``."""
        out: dict = {}
        for a, b, c in self.entries:
            e = a * n + b
            out[e] = out.get(e, 0) + c
        return {e: c for e, c in out.items() if c}

    def pretty(self) -> str:
        def power(a, b):  # q^(a*n+b), or "" for q^0
            if a == 0:
                return "q^(%s)" % _pretty_exp(b) if b else ""
            an = "%s*n" % _pretty_exp(a) if a != 1 else "n"
            return "q^(%s)" % (an if b == 0 else "%s%s%s" % (an, "+" if b > 0 else "-", _pretty_exp(abs(b))))

        return _signed_sum((c, power(a, b)) for a, b, c in self.entries)


@dataclass(frozen=True)
class CoefficientRecurrence:
    """A linear relation among z-degree coefficients.

    For every degree ``n`` the relation reads ``sum over (target, lag) of
    C[target, lag](n) * h_target(n - lag) = I(n)``, where each coefficient
    ``C`` is a :class:`LinQPoly` (a polynomial in ``q^n`` and ``q``) and
    the inhomogeneous side ``I`` is nonzero only at finitely many degrees
    (``inhom`` lists ``(degree, q-polynomial)`` pairs).
    """

    profile: tuple
    terms: tuple  # ((target, lag, LinQPoly), ...)
    inhom: tuple = ()
    min_degree: int = 0  # the relation applies for degrees n >= min_degree

    def order(self) -> int:
        return max((lag for _t, lag, _c in self.terms), default=0)

    def _walk(self, n: int, value_fn: Callable, window: Window):
        """The relation at degree ``n``: its terms ``(target, lag, value,
        exponent, coefficient)``, its inhomogeneous constants ``(exponent,
        coefficient)``, and the bound below which their sum is exact: the
        window, and each value's window plus the floor of its shift, a value
        zero in its window included.  A negative exponent against a nonzero
        value, or in a constant, raises."""
        terms, bound = [], window.q_truncation
        for tgt, lag, poly in self.terms:
            h = value_fn(tgt, n - lag)
            nonzero = not h.is_zero()  # a zero value adds nothing but its bound
            for e, c in poly.instantiate(n).items():
                if e < 0 and nonzero:
                    raise ValueError(
                        "coefficient exponent q^%s is negative at degree %d "
                        "while h_%s(%d) is nonzero" % (e, n, tgt, n - lag)
                    )
                terms.append((tgt, lag, h, e, c))
                if h.q_truncation is not None:
                    bound = _min_bound(bound, h.q_truncation + floor(e))
        inhom = [(e, c) for deg, qpoly in self.inhom if deg == n for e, c in qpoly]
        for e, _c in inhom:
            if e < 0:
                raise ValueError("inhomogeneous exponent q^%s is negative at degree %d" % (e, n))
        return terms, inhom, bound

    def evaluate(self, n: int, value_fn: Callable, window: Window) -> TruncatedSeries:
        """The relation's residual at degree ``n`` (zero iff it holds).

        ``value_fn(target, m)`` must return the coefficient series
        ``h_target(m)`` (the zero series for ``m < 0``).  Coefficients
        multiplying a nonzero value must instantiate to nonnegative
        exponents; a negative exponent against a nonzero value raises.  A
        value that is zero in its window adds nothing, but it still bounds
        where the residual is exact: at its window plus its shift.  A
        degree whose bound is 0 or less compares nothing, and raises.
        """
        terms, inhom, bound = self._walk(n, value_fn, window)
        if bound is not None and bound <= 0:
            raise ValueError(
                "the residual at degree %d is exact below q^%d only: it compares nothing" % (n, bound)
            )
        parts = [(h, 0, e, c) for _t, _l, h, e, c in terms]
        return _combine(window, parts + [(one(window), 0, e, -c) for e, c in inhom])

    def coefficient(self, target: tuple, lag: int) -> LinQPoly:
        for tgt, lg, poly in self.terms:
            if tgt == target and lg == lag:
                return poly
        return LinQPoly(())

    def pretty(self) -> str:
        parts = []
        for tgt, lag, poly in self.terms:
            parts.append(
                "(%s) * h[%s](n-%d)" % (poly.pretty(), _pretty_profile(tgt), lag)
                if lag
                else "(%s) * h[%s](n)" % (poly.pretty(), _pretty_profile(tgt))
            )
        rhs = "0"
        if self.inhom:
            rhs = "; ".join(
                "at n=%d: %s"
                % (deg, " + ".join("%d*q^%s" % (c, e) for e, c in qpoly))
                for deg, qpoly in self.inhom
            )
        return " + ".join(parts) + " = " + rhs


def _den_product(dens: Sequence[Fraction]) -> TruncatedSeries:
    """prod (1 - z q^d) over the shifts, an exact polynomial."""
    return _poch([(zf(1, d, 1), 1) for d in dens], [], Window(None))


def _equation_recurrence(profile: tuple, terms: Sequence[FunctionalTerm]):
    dens = sorted({t.den_shift for t in terms if t.den_shift is not None})
    r_poly = _den_product(dens)
    coeff: dict = {}
    for d, e, c in r_poly.items():
        key = (profile, d)
        coeff.setdefault(key, []).append((Fraction(0), e, c))
    const = sum(t.inhomogeneous for t in terms if t.target is None)
    for t in terms:
        if t.target is None:
            continue
        minus = list(dens)
        if t.den_shift is not None:
            minus.remove(t.den_shift)
        cleared = t.sign * _den_product(minus) * t.prefactor_series(Window(None))
        for d, e, c in cleared.items():
            key = (t.target, d)
            coeff.setdefault(key, []).append((t.shift, e - t.shift * d, -c))
    rec_terms = []
    for (tgt, lag), entries in sorted(coeff.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        poly = LinQPoly.from_entries(entries)
        if not poly.is_zero():
            rec_terms.append((tgt, lag, poly))
    inhom = tuple(
        (d, tuple((e, c) for _d, e, c in group))
        for d, group in itertools.groupby((const * r_poly).items(), key=lambda m: m[0])
    )
    return CoefficientRecurrence(profile, tuple(rec_terms), inhom)


def to_coefficient_recurrences(obj: Union[FunctionalSystem, EliminationResult]):
    """Convert functional equations to coefficient recurrences.

    Denominators ``1/(1 - z q^d)`` are cleared by multiplying the equation
    through by the product of its distinct denominator factors, so every
    relation has polynomial coefficients.  For a system the result maps
    each profile to its (generally coupled) relation; for a successful
    elimination result it is the single uncoupled relation.
    """
    if isinstance(obj, EliminationResult):
        if not obj.success:
            raise ValueError("elimination failed: %s" % obj.reason)
        terms = [
            FunctionalTerm(1, shift, obj.keep, monos, None)
            for monos, shift in obj.terms
        ]
        return _equation_recurrence(obj.keep, terms)
    return {
        p: _equation_recurrence(p, obj.equations[p]) for p in obj.profiles()
    }


# ---------------------------------------------------------------------------
# coefficient sequences (closed forms)
# ---------------------------------------------------------------------------


class _Rows:
    """A value given as a series, as :func:`check_closed_form` reads it:
    ``q_truncation``, ``q_scale`` and ``is_zero()`` for the term walk, its
    largest |c| (``magnitude``) for the slot rule, ``slots``, the slots its
    pack spans, for widening, ``pack(size)`` (None for a z-degree above 0)
    and ``series``."""

    __slots__ = ("series", "q_truncation", "q_scale")

    def __init__(self, series: TruncatedSeries):
        self.series, self.q_truncation, self.q_scale = series, series.q_truncation, series.q_scale

    def is_zero(self) -> bool:
        return self.series.is_zero()

    @property
    def magnitude(self) -> int:
        return _magnitude(self.series._rows)

    @property
    def slots(self) -> int:
        return len(self.series._rows[0]) if self.series._rows else 0

    def pack(self, size: int):
        return _pack_q(self.series, size)


class _Packed:
    """A pure q-series value exact below ``q^slots``, held as a balanced
    Kronecker pack, with the fields of a :class:`_Rows` value: ``pack(size)``
    gives it in ``slots`` slots of ``size >= self.size`` bytes, its digit
    bound is the one its own slots imply, and its series is decoded on
    first use."""

    __slots__ = ("pack", "size", "slots", "q_truncation", "magnitude", "_nonzero", "_series")
    q_scale = 1

    def __init__(self, pack: Callable, size: int, slots: int, nonzero: bool):
        self.pack, self.size, self.slots, self.q_truncation = pack, size, slots, slots
        self.magnitude, self._nonzero, self._series = (1 << 8 * size - 1) - 1, nonzero, None

    def is_zero(self) -> bool:
        return not self._nonzero

    @property
    def series(self) -> TruncatedSeries:
        if self._series is None:
            self._series = _from_pack(self.pack(self.size), self.size, self.slots)
        return self._series


@dataclass(frozen=True)
class CoefficientSequence:
    """A sequence ``n -> h(n)`` of q-series coefficients of ``z^n``.

    ``h(n) = 0`` for ``n < 0``; every sequence built here has ``h(0) = 1``.
    ``values(window)`` iterates ``h(0), h(1), ...`` exactly within the
    window and ``value(n, window)`` is its item ``n``.  The closed forms
    build each value from the factors kept for the one before, and their
    stream may end: it stops where no later value touches the window, so
    every value past its end is zero in the window (``value`` reads it as
    ``zero(Window(N))``).  A sequence given a per-degree ``value_fn(n,
    window)`` maps it over every ``n`` and never ends.

    :func:`check_closed_form` reads the same stream through ``_read``: the
    width-4 and width-6 forms hand over their values as packs
    (:class:`_Packed`), which ``values`` decodes; every other sequence
    hands over series (:class:`_Rows`), packed by the check itself.
    """

    profile: tuple
    label: str
    _value_fn: Optional[Callable] = field(default=None, repr=False, compare=False)
    _values_fn: Optional[Callable] = field(default=None, repr=False, compare=False)

    def _read(self, window: Window) -> Iterator[Union[_Rows, _Packed]]:
        if window.q_truncation is None:
            raise ValueError("closed-form evaluation needs a finite q-window")
        if self._values_fn is None:
            return (_Rows(self._value_fn(n, window)) for n in itertools.count())
        return self._values_fn(window)

    def values(self, window: Window) -> Iterator[TruncatedSeries]:
        return (h.series for h in self._read(window))

    def value(self, n: int, window: Window) -> TruncatedSeries:
        """Item ``n`` of ``values(window)``.  Each call starts the stream
        over from ``h(0)``: to read several values, read one stream."""
        values = self.values(window)  # refuses an unbounded window first
        if n < 0:
            return zero(Window(window.q_truncation, None, 1))
        return next(itertools.islice(values, n, None), zero(Window(window.q_truncation)))


def _running_values(step):
    """``_read(window)`` for a sequence whose value at ``n`` is the part
    ``sign(n) q^e(n) T(n)`` of the running term ``step`` describes."""
    def values(window: Window):
        w = Window(window.q_truncation)
        return (_Rows(_combine(w, [part])) for part in _running(step, w))
    return values


def closed_form_euler() -> CoefficientSequence:
    """``h(n) = q^n / (q;q)_n``: the coefficients of ``1/(zq;q)_inf``;
    ``E(n) = E(n-1) / (1 - q^n)``."""
    step = lambda n: ([], [(qf(n, 1), 1)], 0, n, 1) if n else _UNIT_STEP
    return CoefficientSequence((1,), "geometric-row-lengths", _values_fn=_running_values(step))


def closed_form_width4(profile: Sequence[int]) -> CoefficientSequence:
    """Coefficient sequences for the width-2 open chain with weights (1,2,1)
    (equivalently the width-4 symmetric cylinder).

    All three start from ``K(n) = (q^2;q^4)_ceil(n/2) (-q^4;q^4)_floor(n/2)
    / (q^4;q^4)_n``.  The denominator is the product of (1 - q^(2j)) (1 +
    q^(2j)) over j <= n; the numerator cancels the odd-j minus and even-j
    plus factors, leaving ``K(n) = 1/(-q^2;-q^2)_n``:

    * ``(+1,+1)``: ``(-1)^ceil(n/2) q^(n(n+1)) K(n)``
    * ``(+1,-1)``: ``(-1)^ceil(n/2) q^(n^2) K(n)``
    * ``(-1,+1)``: ``(-1)^floor(n/2) q^(n^2) K(n)``

    In ``x = -q^2``, ``K(n) = 1/(x;x)_n = K(n-1) / (1 - x^n)`` counts the
    partitions into parts at most n, so its coefficients are non-negative.
    The stream holds K(n) in x as a non-negative Kronecker pack (see
    ``series``), kept to the ``ceil((N - shift(n)) / 2)`` slots that reach
    the window and growing its slots under the guard of ``series``:
    ``1 / (1 - x^n)`` is the product of ``1 + x^s`` for s = n, 2n, 4n, ...,
    one shift-add each.  The value is that pack read at ``x = -q^2``,
    shifted and signed, and the stream stops at the first shift at or past
    the window.
    """
    p = _check_profile(profile)
    if p not in ((1, 1), (1, -1), (-1, 1)):
        raise ValueError(
            "closed forms cover the profiles (1,1), (1,-1) and (-1,1); "
            "the reversal (-1,-1) shares the (1,1) sequence"
        )
    shift_fn = (lambda n: n * (n + 1)) if p == (1, 1) else (lambda n: n * n)
    sign_off = 0 if p == (-1, 1) else 1

    def values(window: Window):
        n_trunc, k, size = window.q_truncation, 1, 1  # K(0) = 1
        for n in itertools.count():
            shift = shift_fn(n)
            if shift >= n_trunc:
                return
            slots = (n_trunc - shift + 1) // 2  # x^j lies at q^(shift + 2j)
            (k,), size = _times_binomials([(k, _doublings(n, slots) if n else ())], size, slots, 0)
            sign = -1 if (n + sign_off) // 2 % 2 else 1
            yield _Packed(partial(_signed_spread, k, size, slots, shift=shift, sign=sign), size, n_trunc, bool(k))

    return CoefficientSequence(p, "width4-closed-form", _values_fn=values)


_WIDTH6_DATA = {
    # profile: (exponent E(n, m), prefactor groups, sign exponent offset);
    # a group (k, terms) is q^(-k m) times the sum of c q^e over its terms
    (1, 1, 1): (
        lambda n, m: 3 * n * (n + 1) // 2 - 3 * m * (m + 1) - 1,
        lambda n: ((0, ((0, 1), (3 * n + 1, -1))), (6, ((3 * n, -1),))),
        1,
    ),
    (1, 1, -1): (
        lambda n, m: 3 * n * (n - 1) // 2 + 2 * n - 1 - 3 * m * (m + 1),
        lambda n: ((0, ((0, 1), (3 * n + 1, -1))), (6, ((3 * n, -1),))),
        1,
    ),
    (1, -1, 1): (
        lambda n, m: 3 * n * (n + 1) // 2 - 3 * m * (m + 1),
        lambda n: ((0, ((0, 1),)),),
        0,
    ),
    # the seven-term prefactor that sigma_prefactor_terms expands
    (-1, 1, 1): (
        lambda n, m: 3 * n * (n + 1) // 2 - 2 * n - 3 * m * (m + 1) - 1,
        lambda n: (
            (0, ((0, 1), (3 * n + 1, -1), (3 * n - 2, -1))),
            (6, ((3 * n, -1), (3 * n - 3, -1), (6 * n - 2, 1))),
            (12, ((6 * n - 3, 1),)),
        ),
        1,
    ),
}


def sigma_prefactor_terms(n: int, m: int) -> tuple:
    """The seven-term prefactor polynomial of the (-1,+1,+1) summand,
    as combined ``(exponent, coefficient)`` pairs (exponents may be
    negative; the full summand is still a power series): the groups that
    :func:`closed_form_width6` sums by, expanded at ``m``."""
    groups = _WIDTH6_DATA[(-1, 1, 1)][1](n)
    return tuple(sorted(_collect((e - k * m, c) for k, terms in groups for e, c in terms).items()))


def sigma_prefactor_factored(n: int, m: int) -> tuple:
    """``1 + q^(3n-12m-3) (1 + q^(1+6m)) (q^(3n) - q^(6m)(1 + q^3))``:
    the factored form of the same prefactor, expanded to pairs."""
    base = 3 * n - 12 * m - 3
    products = [(base + e1 + e2, c1 * c2) for e1, c1 in ((0, 1), (1 + 6 * m, 1))
                for e2, c2 in ((3 * n, 1), (6 * m, -1), (6 * m + 3, -1))]
    return tuple(sorted(_collect([(0, 1)] + products).items()))


def closed_form_width6(profile: Sequence[int]) -> CoefficientSequence:
    """Coefficient sequences for the width-3 open chain with weights
    (1,2,2,1) (equivalently the width-6 symmetric cylinder).

    Each value is an alternating sum over ``0 <= m <= n/2`` of
    ``q^(E(n,m)) * B(n,m) * (-q,-q^5;q^6)_m / ((q^6;q^6)_m (q^3;q^3)_(n-2m))``
    with a profile-specific exponent ``E`` and prefactor polynomial ``B``.
    Individual prefactor entries may dip below the shift; the assembled
    value is always a genuine power series (enforced).  From ``n - 1`` to
    ``n`` each kept base gains one binomial, and even ``n`` adds one base.

    The bases ``P(m) / (q^3;q^3)_(n-2m)``, with ``P(m) = (-q,-q^5;q^6)_m /
    (q^6;q^6)_m``, and the running ``P(m)`` are held as non-negative
    Kronecker packs (see ``series``), kept to the slots the window needs.
    A factor ``1 + q^a`` is one shift-add, and ``1 / (1 - q^e)`` is the
    product of ``1 + q^s`` for s = e, 2e, 4e, ... below the window.  The
    prefactor is a sum of groups ``q^(-k m) (sum of c q^e over its
    terms)`` (``_WIDTH6_DATA``), so ``h(n)`` is a sum over the groups: each
    group's ``G_k = sum over m of (-1)^(m + off) q^(E(n, m) - k m) base_m``
    is summed once, and ``c q^e G_k`` is added for each of its terms, one
    signed sum handed over as a pack cut to the window.  The guard's
    headroom is the bit length of the largest degree's weight, its number of
    bases times the sum of the prefactor's ``|c|``, so every ``G_k`` and
    every such sum is a balanced pack.
    """
    p = _check_profile(profile)
    if p not in _WIDTH6_DATA:
        raise ValueError(
            "closed forms cover the profiles (1,1,1), (1,1,-1), (1,-1,1) "
            "and (-1,1,1)"
        )
    e_fn, groups_fn, sign_off = _WIDTH6_DATA[p]

    def values(window: Window):
        n_trunc = window.q_truncation
        # every summand at degree n carries q^lows[n] or more, and lows grows
        # along each parity class from n = 2: no later degree reaches the window
        lows = []
        while len(lows) < 4 or min(lows[-2:]) < n_trunc:
            lows.append(width6_min_exponent(p, len(lows)))
        # a base serves every later degree: keep it below q^(N - floors[n])
        floors = list(itertools.accumulate(reversed(lows), min))[::-1]
        last = sum(floor < n_trunc for floor in floors) - 1
        weight = (last // 2 + 1) * sum(abs(c) for _k, terms in groups_fn(last) for _e, c in terms)
        size = _slot_size(weight, 1)  # the running P(0) is 1
        bases, top = [], 1
        for n in range(last + 1):
            slots = n_trunc - floors[n]
            work = [(b, _doublings(3 * (n - 2 * m), slots)) for m, b in enumerate(bases)]
            m = n // 2  # at even n, P(m) = P(m-1) (1 + q^(6m-5)) (1 + q^(6m-1)) / (1 - q^(6m))
            work.append((top, (6 * m - 5, 6 * m - 1, *_doublings(6 * m, slots)) if m and n % 2 == 0 else ()))
            packs, size = _times_binomials(work, size, slots, weight.bit_length())
            bases, top = packs[:m + 1], packs[-1]
            # each group (k, terms) as G = sum over j of (-1)^(j + off) q^(E(n, j) - k j) base_j,
            # held from its least exponent `low`, then c q^e G for each of its terms
            groups = []
            for k, terms in groups_fn(n):
                shifts = [e_fn(n, j) - k * j for j in range(m + 1)]
                groups.append((min(shifts), min(e for e, _c in terms), shifts, terms))
            least = min(low + first for low, first, _s, _t in groups)
            origin, width = min(0, least), min(n_trunc, slots + least)
            total = 0
            for low, first, shifts, terms in groups:
                g = _shift_sum([(b, e - low, (-1) ** (j + sign_off))
                                for j, (b, e) in enumerate(zip(bases, shifts)) if e + first < width], size)
                total += _shift_sum([(g, low + e - origin, c) for e, c in terms if low + e < width], size)
            total = _rebase(total, size, origin)
            nonzero = bool(total & (1 << 8 * size * width) - 1)
            yield _Packed(partial(_widen, total, size, slots=width), size, width, nonzero)

    return CoefficientSequence(p, "width6-closed-form", _values_fn=values)


def width6_min_exponent(profile: Sequence[int], n: int) -> int:
    """A lower bound for the q-valuation of the width-6 value at ``n``
    (the minimal summand exponent, minus the largest possible dip of the
    prefactor polynomial)."""
    p = _check_profile(profile)
    e_fn, _br, _off = _WIDTH6_DATA[p]
    return min(e_fn(n, m) for m in range(n // 2 + 1)) - 3


def closed_form_goellnitz() -> CoefficientSequence:
    """``h(n) = q^(n^2) (-q;q^2)_n / (q^2;q^2)_n``: the coefficient
    sequence of the (1,-1,1) profile with unit weights on the open
    width-3 chain; ``G(n) = G(n-1) (1 + q^(2n-1)) / (1 - q^(2n))``."""
    step = lambda n: ([(qf(2 * n - 1, 1, -1), 1)], [(qf(2 * n, 1), 1)], 0, n * n, 1) if n else _UNIT_STEP
    return CoefficientSequence((1, -1, 1), "odd-kernel-closed-form", _values_fn=_running_values(step))


# ---------------------------------------------------------------------------
# explicit uncoupled recurrences
# ---------------------------------------------------------------------------


def _relation_from_top_shifted(profile: tuple, coeff_fns, top: int) -> CoefficientRecurrence:
    """Build a relation from coefficients written against ``h(n + top)``.

    ``coeff_fns`` lists, for lags ``0..top``, the coefficient of
    ``h(n + top - lag)`` as ``((slope, intercept, coeff), ...)`` entries
    meaning ``sum c q^(slope*n + intercept)``; the whole relation equals
    zero.  Internally the degree variable is re-centered at the top index
    (``m = n + top``), giving coefficients in ``q^m``.
    """
    terms = []
    for lag, entries in enumerate(coeff_fns):
        shifted = [(Fraction(a), Fraction(b) - Fraction(a) * top, c) for a, b, c in entries]
        poly = LinQPoly.from_entries(shifted)
        if not poly.is_zero():
            terms.append((profile, lag, poly))
    return CoefficientRecurrence(profile, tuple(terms), (), top)


def width4_recurrence(profile: Sequence[int]) -> CoefficientRecurrence:
    """The uncoupled three-term recurrences of the width-4 family.

    Written against the top index (``h(n)`` below is the relation's
    highest coefficient):

    * ``(+1,+1)``: ``(1 - q^(4n)) h(n) = -q^(4n-2)(1-q^2) h(n-1) - q^(4n-2) h(n-2)``
    * ``(+1,-1)``: ``(1 - q^(4n)) h(n) = -q^(4n-3)(1-q^2) h(n-1) - q^(4n-4) h(n-2)``
    * ``(-1,+1)``: ``(1 - q^(4n)) h(n) = +q^(4n-3)(1-q^2) h(n-1) - q^(4n-4) h(n-2)``

    The sign of the middle coefficient separates the ``(-1,+1)`` case from
    the ``(+1,-1)`` case; flipping it breaks the closed form (it would
    instead annihilate ``(-1)^n h(n)``).
    """
    p = _check_profile(profile)
    if p == (1, 1):
        coeffs = (
            ((0, 0, 1), (4, 8, -1)),
            ((4, 6, 1), (4, 8, -1)),
            ((4, 6, 1),),
        )
    elif p == (1, -1):
        coeffs = (
            ((0, 0, 1), (4, 8, -1)),
            ((4, 5, 1), (4, 7, -1)),
            ((4, 4, 1),),
        )
    elif p == (-1, 1):
        coeffs = (
            ((0, 0, 1), (4, 8, -1)),
            ((4, 5, -1), (4, 7, 1)),
            ((4, 4, 1),),
        )
    else:
        raise ValueError("recurrences cover (1,1), (1,-1) and (-1,1)")
    return _relation_from_top_shifted(p, coeffs, top=2)


def width6_recurrence(profile: Sequence[int]) -> CoefficientRecurrence:
    """The uncoupled four-term recurrences of the width-6 family.

    Each is written as ``c3(n) h(n+3) = c2(n) h(n+2) + c1(n) h(n+1) +
    c0(n) h(n)`` and stored against the top index.  The relation for
    ``(1,1,1)`` has top coefficient ``(1 - q^(3n+9))(1 + q^(3n+5) -
    q^(3n+6))``; the ``(1,-1,1)`` and ``(-1,1,1)`` relations share the top
    coefficient ``1 - q^(3n+9)``.
    """
    p = _check_profile(profile)
    if p == (1, -1, 1):
        c3 = ((0, 0, 1), (3, 9, -1))
        c2 = ((6, 15, 1),)
        c1 = ((3, 6, -1), (6, 10, -1), (6, 14, -1))
        c0 = ((6, 9, 1),)
    elif p == (-1, 1, 1):
        c3 = ((0, 0, 1), (3, 9, -1))
        c2 = ((6, 13, 1),)
        c1 = ((3, 8, -1), (6, 10, -1), (6, 12, -1))
        c0 = ((6, 9, 1),)
    elif p == (1, 1, -1):
        c3 = ((0, 0, 1), (3, 5, 1), (3, 6, -1), (3, 9, -1), (6, 14, -1), (6, 15, 1))
        c2 = ((3, 6, -1), (3, 9, 1), (6, 17, 1), (9, 22, 1), (9, 23, -1))
        c1 = ((3, 7, -1), (6, 12, -1), (6, 14, -1), (6, 15, -1), (6, 16, 1),
              (9, 19, -1), (9, 21, 1))
        c0 = ((6, 9, 1), (9, 17, 1), (9, 18, -1))
    elif p == (1, 1, 1):
        c3 = ((0, 0, 1), (3, 5, 1), (3, 6, -1), (3, 9, -1), (6, 14, -1), (6, 15, 1))
        c2 = ((3, 7, -1), (3, 10, 1), (6, 18, 1), (9, 23, 1), (9, 24, -1))
        c1 = ((3, 9, -1), (6, 14, -1), (6, 16, -1), (6, 17, -1), (6, 18, 1),
              (9, 21, -1), (9, 23, 1))
        c0 = ((6, 12, 1), (9, 20, 1), (9, 21, -1))
    else:
        raise ValueError(
            "recurrences cover (1,1,1), (1,1,-1), (1,-1,1) and (-1,1,1)"
        )
    negate = lambda entries: tuple((a, b, -c) for a, b, c in entries)
    return _relation_from_top_shifted(
        p, (c3, negate(c2), negate(c1), negate(c0)), top=3
    )


# ---------------------------------------------------------------------------
# closed-form checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckReport:
    """Outcome of checking a coefficient sequence against a recurrence."""

    holds: bool
    n_max: int
    window: Window
    failures: tuple  # (degree, q-exponent, residual coefficient)
    vacuous: tuple  # degrees where every referenced value vanished in-window, or nothing is exact
    initial_ok: bool
    start_degree: int = 0  # first degree covered by the relation


def check_closed_form(
    sequence,
    recurrence: CoefficientRecurrence,
    n_max: int,
    window: Optional[Window] = None,
) -> CheckReport:
    """Verify that the sequence satisfies the recurrence for all degrees
    ``recurrence.min_degree <= n <= n_max``, exactly within the window.

    ``sequence`` is a :class:`CoefficientSequence` or a mapping from
    profiles to sequences (for coupled relations).  All values are
    evaluated in one shared window (default: ``q^(2(n_max+2)^2 + 40)``,
    generous for every family shipped here).  Each sequence is read once,
    in order, through the stream behind ``values(window)``, zero in the
    window past the end of its stream, keeping a sliding window of the last
    ``order() + 1`` values of each target and the kept profile's value at
    0, which must be the constant 1 (initial conditions are part of the
    check).  Mismatches are reported, never raised.  A degree whose
    residual is exact only below ``q^0`` or less compares nothing and is
    listed as vacuous.

    The check reads packs.  Each value enters the sliding window as the
    integer P(h) = sum of c X^j over its terms c q^(j / d): a Kronecker
    pack (see ``series``) on a grid 1/d fine enough for every value and
    every exponent of the relation, in slots that the slot rule sizes for
    the relation's weight W (the sum of its |c|) over the digit bound of
    every value so far.  The width-4 and width-6 forms hand their values
    over as packs, whose digit bound is the one their slots imply, and
    each is moved into the check's slots by strided byte copies; a value
    given as a series is packed once, its bound its largest |c|.  Rows are
    decoded only for :meth:`CoefficientRecurrence.evaluate` and for h(0).
    The pack leaves the window with its value.  A degree's residual is
    then one integer, R = sum of c P(h) X^(e d) over the relation's terms
    c q^e h(n - lag), less its inhomogeneous constants, whose slot i holds
    the residual's coefficient r_i.  The low L slots of R are zero exactly
    when r_i = 0 for i < L: a nonzero sum of r_i X^i over i < L is below
    X^L in absolute value, so it is no multiple of X^L.  L is d times the
    exactness bound of the relation's term walk, which
    :meth:`CoefficientRecurrence.evaluate` shares: the window, and each
    value's own window plus the integer part of its shift, a value zero in
    its window included (h(n) for n < 0 is exactly zero, with no window).
    The walk also raises for a negative exponent.  A value that needs
    wider slots, or a finer grid, has the kept packs widened without
    converting a coefficient again.  Where the test fails, or cannot run
    (a value with a z-degree above 0), :meth:`CoefficientRecurrence.evaluate`
    computes the residual: every failure reported comes from it.
    """
    if window is None:
        window = Window(2 * (n_max + 2) ** 2 + 40)
    single = isinstance(sequence, CoefficientSequence)
    targets = {recurrence.profile, *(tgt for tgt, _lag, _poly in recurrence.terms)}
    streams = {tgt: (sequence if single else sequence[tgt])._read(window) for tgt in targets}
    nothing = _Rows(zero(Window(None)))  # h(n) for n < 0, exactly zero
    order = recurrence.order()
    recent = {tgt: deque([nothing] * order, order + 1) for tgt in targets}
    value_fn = lambda tgt, m: recent[tgt][m - n - 1]  # h(m) for n - order <= m <= n
    grid = lcm(
        window.q_scale,
        *(x.denominator for _t, _l, poly in recurrence.terms for a, b, _c in poly.entries for x in (a, b)),
        *(Fraction(e).denominator for _d, qpoly in recurrence.inhom for e, _c in qpoly),
    )
    weight = sum(abs(c) for _t, _l, poly in recurrence.terms for _a, _b, c in poly.entries)
    weight += max((sum(abs(c) for _e, c in qpoly) for _d, qpoly in recurrence.inhom), default=0)
    # each kept value, packed as it enters in slots of size * (grid / q_scale)
    # bytes, and widened when a later value widens the slots or the grid
    size = 1
    packed = {tgt: deque([0] * order, order + 1) for tgt in targets}

    def vanishes(terms, inhom, bound) -> bool:
        """Whether the packed residual of the walked terms is zero below
        the bound; False where the packs cannot tell."""
        parts = [(packed[tgt][-1 - lag], int(e * grid), c) for tgt, lag, _h, e, c in terms]
        if any(pack is None for pack, _e, _c in parts):  # h has a z-degree above 0
            return False
        total = _shift_sum(parts + [(1, int(e * grid), -c) for e, c in inhom], size)
        return not total & ((1 << 8 * size * grid * bound) - 1)

    ended = _Rows(zero(Window(window.q_truncation)))  # every value past a stream's end
    failures, vacuous = [], []
    for n in range(min(recurrence.min_degree, 0), max(n_max, 0) + 1):
        arrivals = {tgt: next(values, ended) if n >= 0 else nothing for tgt, values in streams.items()}
        wider = max(size, *(_slot_size(weight, h.magnitude) for h in arrivals.values()))
        finer = lcm(grid, *(h.q_scale for h in arrivals.values()))
        if (wider, finer) != (size, grid):
            for tgt in targets:  # the oldest pack leaves with the next append
                packed[tgt] = deque([
                    p and _widen(p, size * (grid // h.q_scale), wider * (finer // h.q_scale), h.slots)
                    for h, p in zip(recent[tgt], packed[tgt])
                ], order + 1)
            size, grid = wider, finer
        for tgt, h in arrivals.items():
            recent[tgt].append(h)
            packed[tgt].append(h.pack(size * (grid // h.q_scale)))
        if n == 0:
            init = recent[recurrence.profile][-1].series
        if not recurrence.min_degree <= n <= n_max:
            continue
        terms, inhom, bound = recurrence._walk(n, value_fn, window)
        used_nonzero = any(not value_fn(tgt, n - lag).is_zero() for tgt, lag, _poly in recurrence.terms)
        if bound <= 0 or not used_nonzero and not any(deg == n for deg, _ in recurrence.inhom):
            vacuous.append(n)
        elif not vanishes(terms, inhom, bound):
            residual = recurrence.evaluate(n, lambda tgt, m: value_fn(tgt, m).series, window)
            if not residual.is_zero():
                diff = residual.first_difference(zero(residual.window))
                failures.append((n, diff[1], diff[2]))
        del terms  # its values leave with the sliding window, not a degree later
    initial_ok = init.agrees_with(one(init.window))
    return CheckReport(not failures and initial_ok, n_max, window, tuple(failures),
                       tuple(vacuous), initial_ok, recurrence.min_degree)
