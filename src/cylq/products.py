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

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, zip_longest
from math import lcm
from typing import Optional, Sequence

from .lattice import _check_profile, _check_weights, scp_weights
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
    return tuple(accumulate(map(Fraction, weights)))


# ---------------------------------------------------------------------------
# entry rules, generic in the A-values (numbers or linear forms)
# ---------------------------------------------------------------------------


def w3_entries(delta: Sequence[int], A: Sequence, orientation: str = "direct") -> list:
    """Closed-chain exponents from A = (A_1, ..., A_h), A_h first.  The census
    lists none of them: it counts a block of profiles' pair exponents at once
    (:func:`_balanced_mask`), with no traced call per profile."""
    d = _check_profile(delta)
    if orientation not in ORIENTATIONS:
        raise ValueError("orientation must be one of %s" % (ORIENTATIONS,))
    if len(A) != len(d):
        raise ValueError("need the h partial sums A_1..A_h")
    total, reflected = A[-1], orientation == "reflected"
    # e = A_j - A_i on a descent (an ascent if reflected), else total - e
    diffs = ((i, j, A[j] - A[i]) for i, j in combinations(range(len(d)), 2) if d[i] != d[j])
    return [total, *(e if (d[i] > d[j]) != reflected else total - e for i, j, e in diffs)]


def w1_entries(delta: Sequence[int], A: Sequence) -> list:
    """Open-chain first multiset from A = (A_1, ..., A_(h+1))."""
    d = _check_profile(delta)
    if len(A) != len(d) + 1:
        raise ValueError("need the h+1 partial sums A_1..A_(h+1)")
    total = A[-1]
    return [total, *(a if x == -1 else total - a for x, a in zip(d, A))]


def w2_entries(delta: Sequence[int], A: Sequence) -> list:
    """Open-chain second multiset from A = (A_1, ..., A_(h+1))."""
    d = _check_profile(delta)
    if len(A) != len(d) + 1:
        raise ValueError("need the h+1 partial sums A_1..A_(h+1)")
    total, entries = A[-1], []
    for i, j in combinations(range(len(d)), 2):
        if d[i] == d[j]:
            entries.append(A[i] + A[j] if d[i] == -1 else total + total - A[i] - A[j])
        else:
            entries.append(total + total - (A[j] - A[i]) if d[i] < d[j] else A[j] - A[i])
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
    w = _check_weights(weights if weights is not None else (1,) * (len(d) + 1), len(d) + 1)
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


#: A census block: the 2^_BLOCK_BITS profiles that share their later entries.
_BLOCK_BITS = 12


def _balanced_mask(A: Sequence[int], k: int, high: int) -> int:
    """The balanced profiles over integer prefix sums A whose entry i is +1 where
    bit i of x + (high << k) is set, as the mask of their x.  Each pair i < j
    adds its descent mask to a bit-plane counter for A_j - A_i and its ascent
    mask to the one for A_h - (A_j - A_i); a profile is unbalanced where a plane
    of a counter differs from its mirror's (bit-slicing, Biham FSE 1997)."""
    full = (1 << (1 << k)) - 1
    masks = [full // ((1 << (2 << i)) - 1) * ((1 << (2 << i)) - (1 << (1 << i))) for i in range(k)]
    masks += [full * (high >> i & 1) for i in range(len(A) - k)]
    total, counters = A[-1], defaultdict(list)
    for (i, mi), (j, mj) in combinations(enumerate(masks), 2):
        for v, m in ((A[j] - A[i], mi & ~mj), (total - A[j] + A[i], mj & ~mi)):
            planes = counters[v]
            for p, plane in enumerate(planes):  # a ripple-carry add
                planes[p], m = plane ^ m, plane & m
            if m:
                planes.append(m)
    unbalanced = 0
    for v, planes in counters.items():
        for a, b in zip_longest(planes, counters.get(total - v, ()), fillvalue=0):
            unbalanced |= a ^ b
    return full & ~unbalanced


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
    return _balanced_mask(A, 0, sum(1 << i for i, x in enumerate(d) if x == 1)) == 1


def balance_census(max_width: int) -> dict:
    """{width: (#balanced, #profiles)} over all standard-weight profiles, each
    tested on its own pair exponents, a block of them per :func:`_balanced_mask`."""
    if type(max_width) is not int or max_width < 1:
        raise ValueError("max_width must be an integer >= 1 (got %r)" % (max_width,))
    out = {}
    for h in range(1, max_width + 1):
        k = min(h, _BLOCK_BITS)
        blocks = (_balanced_mask(range(1, h + 1), k, high) for high in range(1 << h - k))
        out[h] = (sum(mask.bit_count() for mask in blocks), 2 ** h)
    return out
