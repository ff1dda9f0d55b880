"""Product sides: exponent multisets and their Euler-product expansions.

For a profile delta in {-1,+1}^h with weights a_0..a_(h-1) write
A_k = a_0 + ... + a_(k-1) (so A_h is the total weight).  The closed-chain
(cylindric) generating function at z = 1 is the reciprocal product

    prod_{e in W3} 1 / (q^e; q^(A_h))_inf,

where W3 collects one entry A_h plus one entry per index pair i < j with
delta_i != delta_j (1-based profile entries):

  * orientation "direct"    - descent pairs (delta_i > delta_j) contribute
                              A_j - A_i, ascent pairs contribute
                              A_h - (A_j - A_i);
  * orientation "reflected" - the two rules swapped.

Only "direct" reproduces the enumeration (the harness records which
convention matched); "reflected" is kept so that the discrepancy is
demonstrable.

Open chains (skew-shifted) with weights a_0..a_h use two multisets:

    W1 = {A_(h+1)} u {A_i : delta_i = -1} u {A_(h+1) - A_i : delta_i = +1}
         with modulus A_(h+1),
    W2 = {A_i + A_j            : delta_i = delta_j = -1}
       u {2A_(h+1) - A_i - A_j : delta_i = delta_j = +1}
       u {2A_(h+1) - (A_j-A_i) : delta_i < delta_j}
       u {A_j - A_i            : delta_i > delta_j}
         over pairs 1 <= i < j <= h, with modulus 2 A_(h+1),

and the generating function at z = 1 is
prod_{W1} 1/(q^e; q^(A_{h+1})) * prod_{W2} 1/(q^e; q^(2A_{h+1})).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from math import lcm
from typing import Optional, Sequence

from .lattice import _check_profile, _check_weights, full_profile, scp_weights
from .series import TruncatedSeries, Window, one, poch_product, qf

__all__ = [
    "prefix_sums",
    "w3_entries",
    "w1_entries",
    "w2_entries",
    "w3_multiset",
    "w1_w2_multisets",
    "ProductSpec",
    "cp_product_spec",
    "dspp_product_spec",
    "scp_product_spec",
    "cp_product",
    "dspp_product",
    "nonsymmetric_mirror_series",
    "is_balanced",
    "balance_census",
    "ORIENTATIONS",
]

ORIENTATIONS = ("direct", "reflected")

#: Conventions every report and CLI payload embeds, so a stored one stays
#: interpretable: the finite Pochhammer symbol starts at j = 0, and the
#: sign-discordant product entries are taken in direct chain order.
#: ``identities`` lists it among its exports.
CONVENTIONS = {
    "pochhammer": "standard: (a;q)_n = prod_{j=0}^{n-1} (1 - a q^j)",
    "w3_inequality": "direct: discordant-pair entries use in-order gaps",
}


def prefix_sums(weights: Sequence) -> tuple:
    """Partial sums A_1..A_n of the weights a_0..a_(n-1)."""
    out, acc = [], Fraction(0)
    for w in weights:
        acc += Fraction(w)
        out.append(acc)
    return tuple(out)


# ---------------------------------------------------------------------------
# entry rules, generic in the A-values (numbers or linear forms)
# ---------------------------------------------------------------------------


def w3_entries(delta: Sequence[int], A: Sequence, orientation: str = "direct") -> list:
    """Closed-chain exponents from A = (A_1, ..., A_h), A_h first.  The A_j - A_i
    depend on A only: ``balance_census`` computes them once per width and never
    calls the traced ``is_balanced`` or ``w3_multiset`` per profile (8,190 spans)."""
    d = _check_profile(delta)
    if orientation not in ORIENTATIONS:
        raise ValueError("orientation must be one of %s" % (ORIENTATIONS,))
    if len(A) != len(d):
        raise ValueError("need the h partial sums A_1..A_h")
    return [A[-1], *_w3_pairs(d, _pair_diffs(A), A[-1], orientation == "reflected")]


def _pair_diffs(A: Sequence) -> list:
    """[(i, j, A_j - A_i)] over 0-based index pairs i < j, in W3 order."""
    return [(i, j, A[j] - A[i]) for i in range(len(A)) for j in range(i + 1, len(A))]


def _w3_pairs(d: tuple, diffs: list, total, reflected: bool) -> list:
    """W3's pair entries: e on a descent (an ascent if reflected), else total - e."""
    return [e if (d[i] > d[j]) != reflected else total - e for i, j, e in diffs if d[i] != d[j]]


def w1_entries(delta: Sequence[int], A: Sequence) -> list:
    """Open-chain first multiset from A = (A_1, ..., A_(h+1))."""
    d = _check_profile(delta)
    h = len(d)
    if len(A) != h + 1:
        raise ValueError("need the h+1 partial sums A_1..A_(h+1)")
    total = A[h]
    entries = [total]
    for i in range(1, h + 1):
        entries.append(A[i - 1] if d[i - 1] == -1 else total - A[i - 1])
    return entries


def w2_entries(delta: Sequence[int], A: Sequence) -> list:
    """Open-chain second multiset from A = (A_1, ..., A_(h+1))."""
    d = _check_profile(delta)
    h = len(d)
    if len(A) != h + 1:
        raise ValueError("need the h+1 partial sums A_1..A_(h+1)")
    total = A[h]
    entries = []
    for i in range(1, h + 1):
        for j in range(i + 1, h + 1):
            di, dj = d[i - 1], d[j - 1]
            if di == -1 and dj == -1:
                entries.append(A[i - 1] + A[j - 1])
            elif di == 1 and dj == 1:
                entries.append(total + total - A[i - 1] - A[j - 1])
            elif di < dj:
                entries.append(total + total - (A[j - 1] - A[i - 1]))
            else:
                entries.append(A[j - 1] - A[i - 1])
    return entries


# ---------------------------------------------------------------------------
# numeric multisets and product specifications
# ---------------------------------------------------------------------------


def w3_multiset(
    delta: Sequence[int], weights: Optional[Sequence] = None, orientation: str = "direct"
) -> tuple:
    """(sorted exponents, modulus) for a closed chain."""
    d = _check_profile(delta)
    w = _check_weights(weights if weights is not None else (1,) * len(d), len(d))
    A = prefix_sums(w)
    return tuple(sorted(w3_entries(d, A, orientation))), A[-1]


def w1_w2_multisets(delta: Sequence[int], weights: Optional[Sequence] = None) -> tuple:
    """((W1, modulus), (W2, modulus)) for an open chain."""
    d = _check_profile(delta)
    w = _check_weights(
        weights if weights is not None else (1,) * (len(d) + 1), len(d) + 1
    )
    A = prefix_sums(w)
    return (
        (tuple(sorted(w1_entries(d, A))), A[-1]),
        (tuple(sorted(w2_entries(d, A))), 2 * A[-1]),
    )


@dataclass(frozen=True)
class ProductSpec:
    """A ratio of infinite q-Pochhammer products.

    ``num`` and ``den`` list (q_exponent, modulus) pairs; the spec denotes
    prod_num (q^e; q^M)_inf / prod_den (q^e; q^M)_inf.
    """

    num: tuple
    den: tuple

    @staticmethod
    def make(num: Sequence = (), den: Sequence = ()) -> "ProductSpec":
        def norm(pairs):
            out = []
            for e, m in pairs:
                e, m = Fraction(e), Fraction(m)
                if e <= 0:
                    raise ValueError(
                        "product exponents must be positive (got q^%s); a zero "
                        "exponent makes the factor divergent at the origin" % e
                    )
                if m <= 0:
                    raise ValueError("moduli must be positive")
                out.append((e, m))
            return tuple(sorted(out))

        return ProductSpec(norm(num), norm(den))

    def expand(self, window: Window) -> TruncatedSeries:
        factors = ([qf(e, m) for e, m in pairs] for pairs in (self.num, self.den))
        return poch_product(*factors, window)

    def to_json(self) -> dict:
        return {
            "schema": "cylq-product/1",
            "num": [[str(e), str(m)] for e, m in self.num],
            "den": [[str(e), str(m)] for e, m in self.den],
        }

    @staticmethod
    def from_json(payload: dict) -> "ProductSpec":
        if not isinstance(payload, dict) or payload.get("schema") != "cylq-product/1":
            raise ValueError("not a cylq-product/1 payload")
        return ProductSpec.make(
            [(Fraction(e), Fraction(m)) for e, m in payload["num"]],
            [(Fraction(e), Fraction(m)) for e, m in payload["den"]],
        )


def cp_product_spec(
    delta: Sequence[int], weights: Optional[Sequence] = None, orientation: str = "direct"
) -> ProductSpec:
    """Product side of a closed chain at z = 1."""
    entries, modulus = w3_multiset(delta, weights, orientation)
    return ProductSpec.make((), [(e, modulus) for e in entries])


def dspp_product_spec(
    delta: Sequence[int], weights: Optional[Sequence] = None
) -> ProductSpec:
    """Product side of an open chain at z = 1."""
    (w1, m1), (w2, m2) = w1_w2_multisets(delta, weights)
    return ProductSpec.make((), [(e, m1) for e in w1] + [(e, m2) for e in w2])


def scp_product_spec(half_delta: Sequence[int]) -> ProductSpec:
    """Product side of the symmetric objects over a half profile."""
    return dspp_product_spec(half_delta, scp_weights(len(tuple(half_delta))))


def cp_product(
    delta: Sequence[int],
    weights: Optional[Sequence],
    window: Window,
    orientation: str = "direct",
) -> TruncatedSeries:
    return cp_product_spec(delta, weights, orientation).expand(window)


def dspp_product(
    delta: Sequence[int], weights: Optional[Sequence], window: Window
) -> TruncatedSeries:
    return dspp_product_spec(delta, weights).expand(window)


def nonsymmetric_mirror_series(half_delta: Sequence[int], window: Window) -> TruncatedSeries:
    """Product form of (all closed chains) - (mirror-symmetric ones).

    The doubled profile's closed-chain product splits off the symmetric
    product times an even/odd theta-like ratio over the W2 exponents:
    difference = SCP * (prod_(l in W2) (-q^(l/2); q^(2h)) / (q^(l/2); q^(2h)) - 1).
    """
    d = _check_profile(half_delta)
    h = len(d)
    scp = scp_product_spec(d).expand(window)
    (_, _), (w2, _) = w1_w2_multisets(d, scp_weights(h))
    halves = [Fraction(e, 2) for e in w2]
    ratio = poch_product([qf(e, 2 * h, -1) for e in halves], [qf(e, 2 * h) for e in halves], window)
    return scp * (ratio - one(window))


def _balanced(d: tuple, diffs: list, total: int) -> bool:
    """``is_balanced`` for a checked profile, ``_pair_diffs`` and total of integer A."""
    pairs = sorted(_w3_pairs(d, diffs, total, False))
    return pairs == [total - e for e in reversed(pairs)]


def is_balanced(delta: Sequence[int], weights: Optional[Sequence] = None) -> bool:
    """True when the pair exponents are symmetric under e -> A_h - e.

    With standard weights every profile is balanced; general weights break
    the symmetry.  Scaling the weights does not change the answer, so they
    are scaled to integers by the lcm of their denominators.
    """
    d = _check_profile(delta)
    w = _check_weights(weights if weights is not None else (1,) * len(d), len(d))
    scale = lcm(*(x.denominator for x in w))
    A = tuple(accumulate(x.numerator * (scale // x.denominator) for x in w))
    return _balanced(d, _pair_diffs(A), A[-1])


def balance_census(max_width: int) -> dict:
    """{width: (#balanced, #profiles)} over all standard-weight profiles; the pair
    differences are computed once per width, with no traced call per profile."""
    if type(max_width) is not int or max_width < 1:
        raise ValueError("max_width must be an integer >= 1 (got %r)" % (max_width,))
    out = {}
    for h in range(1, max_width + 1):
        diffs = _pair_diffs(range(1, h + 1))
        out[h] = (sum(_balanced(d, diffs, h) for d in product((-1, 1), repeat=h)), 2 ** h)
    return out
