"""Exact truncated power-series arithmetic in two variables.

Every series in this package is an element of Z[[z, q^(1/d)]] known exactly
inside a rectangular window: every coefficient of z^k q^(m/d) with
m/d < q_truncation and k <= z_truncation is known exactly, and nothing is
claimed outside the window.  The integer d (``q_scale``) puts rational
q-exponents on a common grid; pure integer-exponent series use d = 1.

Conventions used throughout:

* ``q_truncation`` (written N) means "exact strictly below q^N".
  ``None`` means the series is an exact polynomial in q.
* ``z_truncation`` (written D) means "exact up to and including z^D".
  ``None`` means exact at every z-degree (e.g. a pure q-series).
* Pochhammer symbols are the standard ones:
  (a; q)_n = prod_{j=0}^{n-1} (1 - a q^j)  and
  (a; q)_inf = prod_{j>=0} (1 - a q^j).
  The reciprocal convention 1/(q;q)_n = 0 for n <= -1 is available through
  :func:`inv_poch_finite`.

Binary operations rescale both operands to the least common q-grid and
intersect the two windows; coefficients pushed beyond the window are
dropped, never reported.

The kernel is dense: a series stores one list of integers per z-degree,
indexed by the q-numerator on its grid.  Input is validated once, where it
enters (the constructor, :func:`make_series`, :func:`series_from_json`);
results of the kernel are built from rows it already trusts.  Products pack
each operand into one Python integer (Kronecker substitution) and multiply
those; Pochhammer symbols multiply and divide by their binomials in place.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, count
from math import gcd, lcm
from operator import add, mul, sub
from types import MappingProxyType
from typing import Iterable, Iterator, Optional, Union

__all__ = [
    "Window",
    "TruncatedSeries",
    "PochFactor",
    "qf",
    "zf",
    "make_series",
    "zero",
    "one",
    "monomial",
    "poch_finite",
    "inv_poch_finite",
    "poch_infinite",
    "poch_product",
    "gauss_binomial",
    "theta_sum",
    "series_to_json",
    "series_from_json",
]

QExp = Union[int, Fraction]


def _as_fraction(x: QExp) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an integer or Fraction, got {type(x).__name__}")


def _collect(pairs) -> dict:
    """``{key: total}`` of the ``(key, value)`` pairs, zero totals dropped,
    keys in the order they first came."""
    totals: dict = {}
    for key, c in pairs:
        totals[key] = totals.get(key, 0) + c
    return {key: c for key, c in totals.items() if c}


def _signed_sum(terms) -> str:
    """``a - 2*b + ...`` from ``(coefficient, monomial)`` pairs, ``0`` when
    there are none: a coefficient of magnitude 1 is left out before a
    monomial, and an empty monomial prints the number alone."""
    out = ""
    for c, body in terms:
        mag = abs(c)
        text = str(mag) if not body else body if mag == 1 else "%s*%s" % (mag, body)
        sign = (" - " if c < 0 else " + ") if out else ("-" if c < 0 else "")
        out += sign + text
    return out or "0"


def _monomial(zdeg, qexp, exp=str) -> str:
    """``z^k*q^e`` for the signed sums, with unit powers and zero degrees
    left out; ``exp`` prints the q-exponent."""
    atoms = ["z" if zdeg == 1 else "z^%d" % zdeg] if zdeg else []
    if qexp:
        atoms.append("q" if qexp == 1 else "q^%s" % exp(qexp))
    return "*".join(atoms)


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Window:
    """A truncation window for series arithmetic.

    ``q_truncation``: exact strictly below q^N (``None`` = exact polynomial).
    ``z_truncation``: exact for z-degrees <= D (``None`` = all z-degrees).
    ``q_scale``: exponent grid q^(1/d); coefficients live on that grid.
    """

    q_truncation: Optional[int]
    z_truncation: Optional[int] = None
    q_scale: int = 1

    def __post_init__(self) -> None:
        if self.q_truncation is not None:
            if not isinstance(self.q_truncation, int):
                raise ValueError("q_truncation must be an integer or None")
            if self.q_truncation <= 0:
                raise ValueError("q_truncation must be positive (got %r)" % (self.q_truncation,))
        if self.z_truncation is not None:
            if not isinstance(self.z_truncation, int) or self.z_truncation < 0:
                raise ValueError("z_truncation must be a nonnegative integer or None")
        if not isinstance(self.q_scale, int) or self.q_scale < 1:
            raise ValueError("q_scale must be a positive integer")


def _min_bound(a: Optional[int], b: Optional[int]) -> Optional[int]:
    """Intersection of two exactness bounds where None means unbounded."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


# ---------------------------------------------------------------------------
# dense rows: the kernel
# ---------------------------------------------------------------------------
# Row k of a list of rows holds the coefficients of z^k by q-numerator.
# ``qcap`` bounds the q-numerators and ``zcap`` the z-degrees (None: no
# bound).  The helpers mutate only rows their caller owns.

#: A factor with at most this many terms multiplies by shifted-row sums;
#: past it, packing both factors into integers is faster.
_SPARSE_TERMS = 8

#: Rows are dense, so where no window bounds a variable, input reaching
#: this exponent is refused rather than stored with everything below it.
_UNWINDOWED_LIMIT = 1 << 16


def _row(rows, k):
    """Row k, appending empty rows up to it."""
    while len(rows) <= k:
        rows.append([])
    return rows[k]


def _add_into(dst, off, src, qcap, c=1):
    """dst[off + i] += c * src[i] wherever off + i < qcap, extending dst."""
    end = off + len(src) if qcap is None else min(off + len(src), qcap)
    if end <= off:
        return
    dst.extend([0] * (end - len(dst)))
    if c == 1 or c == -1:
        dst[off:end] = map(add if c == 1 else sub, dst[off:end], src)
    else:
        dst[off:end] = map(add, dst[off:end], [c * x for x in src[:end - off]])


def _terms(rows):
    return sum(len(r) - r.count(0) for r in rows)


def _spread(rows, f):
    """The rows moved from grid 1/d to grid 1/(f*d); shared when f == 1."""
    if f == 1:
        return rows
    out = [[0] * ((len(r) - 1) * f + 1) if r else [] for r in rows]
    for wide, r in zip(out, rows):
        wide[::f] = r
    return out


def _mul_binomial(rows, i, e, c, qcap, zcap):
    """rows *= (1 - c z^i q^e), in place, downwards so that row k - i is
    still the old one when it is added into row k."""
    top = len(rows) - 1 + i if zcap is None else min(len(rows) - 1 + i, zcap)
    for k in range(top, i - 1, -1):
        if rows[k - i]:
            _add_into(_row(rows, k), e, rows[k - i], qcap, -c)


def _div_binomial(rows, i, e, c, qcap, zcap):
    """rows /= (1 - c z^i q^e), in place.

    A pure-q binomial (i = 0 < e, finite qcap) runs row[j] += c row[j - e]
    along each of the e residue classes mod e, or over each of the qcap / e
    blocks of e terms, whichever takes fewer Python-level steps: either
    one alone is several times slower, on small e (closed forms) or on
    large e (a product's last binomials).  A z-carrying binomial (finite
    zcap) adds c q^e row k - i into row k, upwards.
    """
    if i:
        _row(rows, zcap)
        for k in range(i, zcap + 1):
            _add_into(rows[k], e, rows[k - i], qcap, c)
        return
    step = add if c == 1 else (lambda acc, x: x + c * acc)
    for row in filter(None, rows):
        row.extend([0] * (qcap - len(row)))
        if e * e <= qcap:
            for r in range(e):
                row[r::e] = accumulate(row[r::e], step)
        else:
            for j in range(e, qcap, e):
                _add_into(row, j, row[j - e:j], qcap, c)


def _inverse_row(f, qcap):
    """1/f below qcap, for f[0] = +1 or -1: f[0] g[j] = -(f[1] g[j-1] + ... + f[j] g[0])."""
    a0, last, rev = f[0], len(f) - 1, f[::-1]
    g = [a0]
    for j in range(1, qcap):
        k = min(j, last)
        g.append(-a0 * sum(map(mul, rev[last - k:last], g[j - k:j])))
    return g


# Kronecker packs.  A pack in slots of ``size`` bytes is the integer sum of
# c_j X^j, X = 2^(8 size), over balanced digits |c_j| < X / 2; it is read
# back by adding X / 2 to every slot, so a negative digit's borrow from the
# slot above is repaid.  Sums, shifts and products of packs are packs while
# no digit leaves that range, which the slot rule ensures: slots of s bytes
# hold any signed sum of weight W (the sum of its |c|) over digits of
# magnitude at most M when 8 s >= bits(W) + bits(max(M, 1)) + 1, for then
# W M < X / 2.  A non-negative pack clear of its guard, the top H + 1 bits
# of each slot, is a balanced pack whose digits are below 2^(8 s - 1 - H),
# so up to 2^H of them add, with either sign, to a balanced pack.  Doubling
# such a pack H + 1 times leaves every slot below 2^(8 s): no slot carries
# yet, so one guard test per H + 1 shift-adds sees every slot that grew
# too far, and a pack that trips it is done again in slots of s + 1 +
# floor(s / 4) bytes.


@lru_cache(maxsize=16)
def _repeated(size, half, slots):
    return int.from_bytes(half.to_bytes(size, "little") * slots, "little")


def _offset(slots, size, half):
    """``half`` in each of ``slots`` slots of ``size`` bytes: cut by one
    shift from the one built for the next power of two, which is kept for
    the next call (at most 16 of them are)."""
    room = 1 << (slots - 1).bit_length()
    return _repeated(size, half, room) >> 8 * size * (room - slots)


def _slot_size(weight, magnitude):
    """The fewest bytes whose slots the slot rule lets hold any signed sum
    of weight ``weight`` over digits of magnitude at most ``magnitude``."""
    return (weight.bit_length() + max(magnitude, 1).bit_length() + 8) // 8


def _magnitude(rows):
    """The largest |c| over the rows, 0 if they are empty."""
    return max((max(max(r), -min(r)) for r in rows if r), default=0)


def _pack(rows, stride, size):
    """Coefficient j of row k in slot k * stride + j."""
    half = 1 << 8 * size - 1
    pad = half.to_bytes(size, "little")
    chunks = []
    for row in rows:
        chunks += [(x + half).to_bytes(size, "little") for x in row]
        chunks.append(pad * (stride - len(row)))
    return int.from_bytes(b"".join(chunks), "little") - _offset(len(rows) * stride, size, half)


#: Array typecodes of signed machine integers, by their size in bytes.
_WORDS = {array(code).itemsize: code for code in "qlihb"}


def _unpack(packed, size, length):
    """The low ``length`` slots of a pack as a row.

    Where every digit fits in a machine word of 1, 2, 4 or 8 bytes, the
    slots are moved to such words by :func:`_reslot` and read as one array:
    made unsigned by an offset, then signed again by flipping each word's
    top bit.  Wider digits are read one slot at a time.
    """
    word = min((w for w in _WORDS if w >= size), default=8)
    half, low = 1 << 8 * word - 1, 1 << 8 * min(size, word) - 1
    unsigned = (packed + _offset(length, size, low)) & (1 << 8 * size * length) - 1
    if size > word and unsigned & _offset(length, size, (1 << 8 * size) - (1 << 8 * word)):
        low = 1 << 8 * size - 1
        buf = ((packed + _offset(length, size, low)) & (1 << 8 * size * length) - 1).to_bytes(length * size, "little")
        return [int.from_bytes(buf[p:p + size], "little") - low for p in range(0, length * size, size)]
    words = _reslot(unsigned, size, word, length) + _offset(length, word, half - low)
    digits = array(_WORDS[word], (words ^ _offset(length, word, half)).to_bytes(length * word, "little"))
    if sys.byteorder == "big":
        digits.byteswap()
    return digits.tolist()


def _reslot(unsigned, old, new, length):
    """The ``length`` slots of an unsigned pack moved from ``old``-byte to
    ``new``-byte slots by strided byte copies, not converted one by one:
    zero-filled where wider, cut to their low bytes where narrower."""
    if old == new:
        return unsigned
    buf = unsigned.to_bytes(length * old, "little")
    wide = bytearray(length * new)
    for i in range(min(old, new)):
        wide[i::new] = buf[i::old]
    return int.from_bytes(wide, "little")


def _widen(packed, old, new, slots):
    """The low ``slots`` slots of a pack, moved from ``old``-byte to
    ``new``-byte slots, ``new >= old``, with their digits unchanged: made
    unsigned by an offset, moved by :func:`_reslot` and made signed again."""
    half = 1 << 8 * old - 1
    unsigned = (packed + _offset(slots, old, half)) & (1 << 8 * old * slots) - 1
    return _reslot(unsigned, old, new, slots) - _offset(slots, new, half)


def _signed_spread(packed, size, slots, new, shift, sign=1):
    """sign q^shift P(-q^2) in slots of ``new`` bytes, ``new >= size``, for
    P a non-negative pack of ``slots`` slots of ``size`` bytes, each below
    2^(8 size - 1): slot k of P, times sign (-1)^k, in slot shift + 2k.  One
    :func:`_reslot` spreads the slots; the odd ones and the even ones are
    then told apart by a mask, and one is subtracted from the other."""
    spread = _reslot(packed, size, 2 * new, slots)
    even = _offset((slots + 1) // 2, 4 * new, (1 << 8 * new) - 1)
    even, odd = spread & even, spread & even << 16 * new
    return (even - odd if sign > 0 else odd - even) << 8 * new * shift


def _pack_q(s, size):
    """The pure q-series s as a pack, coefficient j in slot j, or None if s
    has a z-degree above 0; the coefficients below its first nonzero one
    are not converted."""
    if len(s._rows) != 1:
        return None if s._rows else 0
    row = s._rows[0]
    lead = row.index(next(filter(None, row)))
    return _pack([row[lead:]], len(row) - lead, size) << 8 * size * lead


def _guard(slots, size, headroom):
    """The top ``headroom + 1`` bits of each of ``slots`` slots of ``size``
    bytes: a pack clear of them has every slot below 2^(8 size - 1 - H)."""
    return _offset(slots, size, ((1 << headroom + 1) - 1) << 8 * size - 1 - headroom)


def _wider(size):
    """The slot size, in bytes, to take after slots of ``size`` bytes reached
    their guard: a quarter more, and at least one byte more."""
    return size + 1 + size // 4


def _doublings(e, slots):
    """The shifts e, 2e, 4e, ... below ``slots``: below q^slots, 1 / (1 - q^e)
    is the product of (1 + q^s) over them."""
    shifts = []
    while e < slots:
        shifts.append(e)
        e *= 2
    return shifts


def _times_binomials(work, size, slots, headroom):
    """``(packs, size)``: each non-negative pack of ``work``, a list of
    ``(pack, shifts)``, cut to the low ``slots`` slots and then times (1 +
    q^s) for each of its shifts, ``P + (P << s bits)`` cut again, in slots
    of ``size`` bytes or, where a slot reaches the guard of :func:`_guard`,
    in slots of :func:`_wider` bytes, again as often as it takes, the degree
    done again from ``work``.

    With H the headroom, every slot is below 2^(8 size - 1 - H) before a
    run of H + 1 adds, so below 2^(8 size) after it, and none carries into
    the next: one guard test after each such run, and after a pack's last
    add, keeps the slots the true coefficients.  A test only after more
    adds would not: a slot that wrapped leaves a small digit behind.
    """
    run = headroom + 1

    def shift_adds():  # the products, or None as soon as a slot reaches the guard
        bits, guard, mask = 8 * size, _guard(slots, size, headroom), (1 << 8 * size * slots) - 1
        done = []
        for packed, shifts in work:
            packed &= mask
            for i in range(0, len(shifts), run):
                for s in shifts[i:i + run]:
                    packed = packed + (packed << bits * s) & mask
                if packed & guard:
                    return None
            done.append(packed)
        return done

    while (done := shift_adds()) is None:
        wider = _wider(size)
        work = [(_widen(packed, size, wider, slots), shifts) for packed, shifts in work]
        size = wider
    return done, size


def _shift_sum(parts, size):
    """The sum of c P X^e over the parts (P, e, c), for packs P in slots of
    ``size`` bytes and X = 2^(8 size); e may be negative where P is 0."""
    bits, total = 8 * size, 0
    for packed, e, c in parts:
        if not packed:
            continue
        packed <<= bits * e
        if c == 1:
            total += packed
        elif c == -1:
            total -= packed
        else:
            total += c * packed
    return total


def _rebase(packed, size, origin):
    """A pack whose slot j stands for q^(j + origin), origin <= 0, as the
    pack whose slot j stands for q^j.  As for :func:`_combine`, the slots
    below -origin stand for negative exponents and must be zero."""
    bits = 8 * size
    low = packed & (1 << bits * -origin) - 1
    if low:
        lead = ((low & -low).bit_length() - 1) // bits
        raise ValueError("negative q-exponent %s is outside the ring" % (lead + origin))
    return packed >> bits * -origin


def _from_pack(packed, size, width):
    """The pure q-series, exact below q^width, whose coefficient of q^j is
    slot j of a pack of balanced digits; the slots below the first nonzero
    one are not read."""
    bits = 8 * size
    lead = ((packed & -packed).bit_length() - 1) // bits if packed else max(width, 0)
    skip = min(lead, width)
    return _from_rows([[0] * skip + _unpack(packed >> bits * lead, size, width - skip)], width, None, 1)


def _kronecker(a, b, qcap, zcap):
    """a * b as one integer product (Kronecker substitution).

    The stride holds a whole row of the product, and the slot rule sizes a
    slot for its largest possible coefficient, a sum of at most
    min(len) * min(rows) products of two coefficients.
    """
    la, lb = max(map(len, a)), max(map(len, b))
    stride = la + lb - 1
    size = _slot_size(min(la, lb) * min(len(a), len(b)), _magnitude(a) * _magnitude(b))
    nrows = len(a) + len(b) - 1 if zcap is None else min(len(a) + len(b) - 1, zcap + 1)
    width = stride if qcap is None else min(stride, qcap)
    digits = _unpack(_pack(a, stride, size) * _pack(b, stride, size), size, (nrows - 1) * stride + width)
    return [digits[p:p + width] for p in range(0, nrows * stride, stride)]


def _mul_rows(a, b, qcap, zcap):
    """Rows of a * b inside (qcap, zcap)."""
    top = None if zcap is None else zcap + 1
    a, b = [r[:qcap] for r in a[:top]], [r[:qcap] for r in b[:top]]
    if _terms(b) < _terms(a):
        a, b = b, a
    if _terms(a) > _SPARSE_TERMS:
        return _kronecker(a, b, qcap, zcap)
    out = []
    for k, row in enumerate(a):
        reach = b if zcap is None else b[:zcap + 1 - k]
        for i, c in enumerate(row):
            if c:
                for j, brow in enumerate(reach, k):
                    _add_into(_row(out, j), i, brow, qcap, c)
    return out


def _from_rows(rows, q_truncation, z_truncation, q_scale):
    """The series of rows the kernel built, which become its own: cropped
    to the window, with trailing zeros and empty rows dropped, unvalidated."""
    del rows[len(rows) if z_truncation is None else z_truncation + 1:]
    for row in rows:
        del row[len(row) if q_truncation is None else q_truncation * q_scale:]
    s = object.__new__(TruncatedSeries)
    s._rows = _trim(rows)
    s.q_truncation, s.z_truncation, s.q_scale = q_truncation, z_truncation, q_scale
    return s


def _strip(row):
    """Drop the row's trailing zeros, in place; returns the row."""
    if not any(row):
        row.clear()
    while row and not row[-1]:
        row.pop()
    return row


def _trim(rows):
    """Drop trailing zeros of each row, then trailing empty rows."""
    for row in rows:
        _strip(row)
    while rows and not rows[-1]:
        rows.pop()
    return rows


# ---------------------------------------------------------------------------
# the series type
# ---------------------------------------------------------------------------


class TruncatedSeries:
    """Dense exact series: row k lists the coefficients of z^k.

    Entry m of row k is the coefficient of z^k q^(m / q_scale).  Rows end at
    their last nonzero coefficient and the row list at its last nonzero row;
    nothing outside the window is stored, since the constructor drops it.
    ``coeffs`` is a read-only view {(z_degree, q_numerator): coefficient} of
    the nonzero terms.  Instances are immutable: no method mutates ``self``.
    Where no window bounds a variable, the constructor refuses a term whose
    z-degree or q-numerator there reaches ``_UNWINDOWED_LIMIT`` (2^16),
    since every lower one would be stored too.
    """

    __slots__ = ("_rows", "q_truncation", "z_truncation", "q_scale")

    def __init__(
        self,
        coeffs: dict,
        q_truncation: Optional[int],
        z_truncation: Optional[int] = None,
        q_scale: int = 1,
    ) -> None:
        Window(q_truncation, z_truncation, q_scale)  # validate bounds
        qcap = None if q_truncation is None else q_truncation * q_scale
        rows = []
        for (zdeg, qnum), c in coeffs.items():
            if c == 0:
                continue
            if not isinstance(zdeg, int) or not isinstance(qnum, int):
                raise ValueError("series keys must be integer pairs (z_degree, q_numerator)")
            if zdeg < 0:
                raise ValueError("negative z-degree %d is outside the ring" % zdeg)
            if qnum < 0:
                raise ValueError("negative q-exponent %s is outside the ring" % Fraction(qnum, q_scale))
            if not isinstance(c, int):
                raise ValueError("coefficients must be integers")
            if (qcap is None and qnum >= _UNWINDOWED_LIMIT
                    or z_truncation is None and zdeg >= _UNWINDOWED_LIMIT):
                raise ValueError(
                    "term z^%d q^%s lies past the %d exponents stored without a window"
                    % (zdeg, Fraction(qnum, q_scale), _UNWINDOWED_LIMIT)
                )
            if qcap is not None and qnum >= qcap:
                continue
            if z_truncation is not None and zdeg > z_truncation:
                continue
            row = _row(rows, zdeg)
            if len(row) <= qnum:
                row.extend([0] * (qnum + 1 - len(row)))
            row[qnum] = c
        self._rows = _trim(rows)
        self.q_truncation = q_truncation
        self.z_truncation = z_truncation
        self.q_scale = q_scale

    # -- basic inspection ---------------------------------------------------

    @property
    def coeffs(self) -> MappingProxyType:
        return MappingProxyType({
            (z, qn): c for z, row in enumerate(self._rows) for qn, c in enumerate(row) if c
        })

    @property
    def window(self) -> Window:
        return Window(self.q_truncation, self.z_truncation, self.q_scale)

    def is_zero(self) -> bool:
        return not self._rows

    def coefficient(self, z_degree: int, q_exponent: QExp) -> int:
        """Exact coefficient of z^z_degree q^q_exponent.

        Raises ValueError when the requested exponent lies outside the
        window, because there the coefficient is unknown rather than zero.
        """
        e = _as_fraction(q_exponent)
        if self.q_truncation is not None and e >= self.q_truncation:
            raise ValueError(
                "coefficient of q^%s requested, but the series is only exact below q^%d"
                % (e, self.q_truncation)
            )
        if self.z_truncation is not None and z_degree > self.z_truncation:
            raise ValueError(
                "coefficient of z^%d requested, but the series is only exact up to z^%d"
                % (z_degree, self.z_truncation)
            )
        num = e * self.q_scale
        if num.denominator != 1 or not 0 <= z_degree < len(self._rows):
            return 0
        row = self._rows[z_degree]
        return row[int(num)] if 0 <= num < len(row) else 0

    def items(self) -> Iterator[tuple[int, Fraction, int]]:
        """Yield (z_degree, q_exponent, coefficient) sorted by (z, q)."""
        for zdeg, row in enumerate(self._rows):
            for qnum, c in enumerate(row):
                if c:
                    yield zdeg, Fraction(qnum, self.q_scale), c

    def support_size(self) -> int:
        return _terms(self._rows)

    def __repr__(self) -> str:
        ncap = "inf" if self.q_truncation is None else str(self.q_truncation)
        zcap = "inf" if self.z_truncation is None else str(self.z_truncation)
        return "TruncatedSeries(q<%s, z<=%s, scale=%d, %d terms)" % (
            ncap,
            zcap,
            self.q_scale,
            self.support_size(),
        )

    def pretty(self, max_terms: int = 24) -> str:
        """Human-readable expansion, lowest terms first."""
        terms = []
        for zdeg, qexp, c in self.items():
            if len(terms) >= max_terms:
                terms.append((1, "..."))
                break
            terms.append((c, _monomial(zdeg, qexp)))
        return _signed_sum(terms)

    # -- canonical form and comparison --------------------------------------

    def canonical(self) -> "TruncatedSeries":
        """Equivalent series with the smallest q_scale representing it."""
        g = self.q_scale
        for row in self._rows:
            for qnum, c in enumerate(row):
                if c and qnum % g:
                    g = gcd(g, qnum)
                    if g == 1:
                        return self
        if g <= 1 or self.q_scale == 1:
            return self
        return _from_rows(
            [r[::g] for r in self._rows], self.q_truncation, self.z_truncation, self.q_scale // g
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        a, b = self.canonical(), other.canonical()
        return (
            a.q_scale == b.q_scale
            and a.q_truncation == b.q_truncation
            and a.z_truncation == b.z_truncation
            and a._rows == b._rows
        )

    __hash__ = None  # mutable-list payload; identity hashing would mislead

    def first_difference(self, other: "TruncatedSeries"):
        """First disagreement inside the intersected window, or None.

        Returns (z_degree, q_exponent, self_coefficient, other_coefficient)
        for the smallest disagreeing exponent pair, ordering by q-exponent
        first and z-degree second.
        """
        diff = _combine(self.window, [(self, 0, 0, 1), (other, 0, 0, -1)])
        firsts = [(next(i for i, c in enumerate(row) if c), z)
                  for z, row in enumerate(diff._rows) if row]
        if not firsts:
            return None
        qnum, zdeg = min(firsts)
        e = Fraction(qnum, diff.q_scale)
        return zdeg, e, self.coefficient(zdeg, e), other.coefficient(zdeg, e)

    def agrees_with(self, other: "TruncatedSeries") -> bool:
        """True when the two series agree on the whole intersected window."""
        return self.first_difference(other) is None

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = _constant(other, self.window)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return _combine(self.window, [(self, 0, 0, 1), (other, 0, 0, 1)])

    __radd__ = __add__

    def __neg__(self):
        return _combine(self.window, [(self, 0, 0, -1)])

    def __sub__(self, other):
        if not isinstance(other, (int, TruncatedSeries)):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            return _combine(self.window, [(self, 0, 0, other)])
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        scale = lcm(self.q_scale, other.q_scale)
        ra, rb = (_spread(x._rows, scale // x.q_scale) for x in (self, other))
        ntr = _min_bound(self.q_truncation, other.q_truncation)
        dtr = _min_bound(self.z_truncation, other.z_truncation)
        qcap = None if ntr is None else ntr * scale
        return _from_rows(_mul_rows(ra, rb, qcap, dtr), ntr, dtr, scale)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self * other.invert(
            q_truncation=_min_bound(self.q_truncation, other.q_truncation),
            z_truncation=_min_bound(self.z_truncation, other.z_truncation),
        )

    def times_monomial(self, z_degree: int = 0, q_exponent: QExp = 0, coefficient: int = 1):
        """self * coefficient * z^z_degree q^q_exponent (exponents >= 0)."""
        e = _as_fraction(q_exponent)
        if z_degree < 0 or e < 0:
            raise ValueError("monomial exponents must be nonnegative")
        return _combine(self.window, [(self, z_degree, e, coefficient)])

    def invert(
        self,
        q_truncation: Optional[int] = None,
        z_truncation: Optional[int] = None,
    ) -> "TruncatedSeries":
        """Multiplicative inverse, computed by graded recursion.

        Requires constant term +1 or -1.  The inverse of a series with any
        z-dependence has unbounded support, so a finite window must be
        available in each variable that actually appears (either carried by
        the series or supplied here).
        """
        ntr = _min_bound(self.q_truncation, q_truncation)
        dtr = _min_bound(self.z_truncation, z_truncation)
        rows = self._rows
        a0 = rows[0][0] if rows and rows[0] else 0
        if a0 not in (1, -1):
            raise ValueError(
                "cannot invert: constant term is %d, need a unit (+1 or -1)" % a0
            )
        if ntr is None and any(len(r) > 1 for r in rows):
            raise ValueError(
                "cannot invert a series with q-dependence without a finite q_truncation"
            )
        if dtr is None and len(rows) > 1:
            raise ValueError(
                "cannot invert a series with z-dependence without a finite z_truncation"
            )
        qcap = (ntr or 1) * self.q_scale
        f = [r[:qcap] for r in rows[:(dtr or 0) + 1]]
        g0 = _inverse_row(f[0], qcap)
        inv = [g0]
        # f_0 g_k = -(f_1 g_(k-1) + ... + f_k g_0), z-degree by z-degree
        for k in range(1, (dtr or 0) + 1):
            acc = []
            for t in range(1, min(k, len(f) - 1) + 1):
                for r in _mul_rows([f[t]], [inv[k - t]], qcap, 0):
                    _add_into(acc, 0, r, None, -1)
            inv += _mul_rows([g0], [acc], qcap, 0) or [[]]
        return _from_rows(inv, ntr, dtr, self.q_scale)

    def substitute_z(self, q_shift: QExp, sign: int = 1) -> "TruncatedSeries":
        """Map z -> sign * z * q^q_shift with q_shift >= 0.

        Each term z^k q^m becomes sign^k z^k q^(m + k*q_shift); the window
        is unchanged (terms pushed past it are dropped, which preserves
        exactness because q_shift is nonnegative).
        """
        e = _as_fraction(q_shift)
        if e < 0:
            raise ValueError("substitute_z requires a nonnegative q-shift")
        if sign not in (1, -1):
            raise ValueError("substitute_z sign must be +1 or -1")
        window = Window(self.q_truncation, self.z_truncation, lcm(self.q_scale, e.denominator))
        rows = range(len(self._rows))
        return _combine(window, [(self.z_slice(k), k, k * e, sign ** k) for k in rows])

    def z_slice(self, z_degree: int) -> "TruncatedSeries":
        """The coefficient of z^z_degree as a pure q-series."""
        if self.z_truncation is not None and z_degree > self.z_truncation:
            raise ValueError(
                "z^%d slice requested beyond the exact z-window (%d)"
                % (z_degree, self.z_truncation)
            )
        rows = [list(self._rows[z_degree])] if 0 <= z_degree < len(self._rows) else []
        return _from_rows(rows, self.q_truncation, None, self.q_scale)

    def collapse_z(self) -> "TruncatedSeries":
        """Set z = 1, producing a pure q-series.

        Sound when the series is exact at every z-degree, or when every
        monomial of the underlying object satisfies z-degree <= q-exponent
        (then a z-window of at least q_truncation - 1 already sees every
        term below the q-window; the caller asserts that property by
        calling this method on such a series).
        """
        if self.z_truncation is not None:
            if self.q_truncation is None or self.z_truncation < self.q_truncation - 1:
                raise ValueError(
                    "collapse_z needs z_truncation >= q_truncation - 1 "
                    "(or an exact z-window) to be exact"
                )
        return _combine(Window(self.q_truncation, None, self.q_scale),
                        [(self.z_slice(k), 0, 0, 1) for k in range(len(self._rows))])


def _constant(c: int, window: Window) -> TruncatedSeries:
    return _from_rows([[c]], window.q_truncation, window.z_truncation, window.q_scale)


def _combine(window, parts):
    """The sum of c z^k q^e s over the parts (s, k, e, c), from any
    iterable: each part is added into one accumulator as it arrives, and
    the accumulator is re-spread when a part brings a finer q-grid.

    It is exact in the window and wherever every part is; a part shifted
    by q^e is exact below its own q-window plus e.  A shift may be negative
    when the sum has no term below q^0 in the window, which is checked.
    """
    scale, ntr, dtr = window.q_scale, window.q_truncation, window.z_truncation
    origin, acc = 0, []  # acc[z][i] holds q-numerator i + origin
    for s, k, e, c in parts:
        finer = lcm(scale, s.q_scale, e.denominator)
        if finer != scale:
            acc, origin, scale = _spread(acc, finer // scale), origin * (finer // scale), finer
        shift = int(e * scale)
        if shift < origin:
            for row in filter(None, acc):
                row[:0] = [0] * (origin - shift)
            origin = shift
        ntr = _min_bound(ntr, s.q_truncation and s.q_truncation + shift // scale)
        dtr = _min_bound(dtr, s.z_truncation)
        if dtr is None or k <= dtr:
            qcap = None if ntr is None else ntr * scale - origin
            for z, row in enumerate(_spread(s._rows, scale // s.q_scale), k):
                _add_into(_row(acc, z), shift - origin, row, qcap, c)
    del acc[len(acc) if dtr is None else dtr + 1:]
    for row in acc:
        if ntr is not None:
            del row[max(ntr * scale - origin, 0):]
        if any(row[:-origin]):
            lead = next(i for i, c in enumerate(row) if c) + origin
            raise ValueError("negative q-exponent %s is outside the ring" % Fraction(lead, scale))
        del row[:-origin]
    return _from_rows(acc, ntr, dtr, scale)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def make_series(
    terms: Iterable[tuple[int, QExp, int]],
    window: Window,
) -> TruncatedSeries:
    """Build a series from (z_degree, q_exponent, coefficient) triples."""
    terms = list(terms)
    scale = window.q_scale
    for _, e, _ in terms:
        scale = lcm(scale, _as_fraction(e).denominator)
    coeffs = _collect(((z, int(_as_fraction(e) * scale)), c) for z, e, c in terms)
    return TruncatedSeries(coeffs, window.q_truncation, window.z_truncation, scale)


def zero(window: Window) -> TruncatedSeries:
    return _from_rows([], window.q_truncation, window.z_truncation, window.q_scale)


def one(window: Window) -> TruncatedSeries:
    return _constant(1, window)


def monomial(
    z_degree: int, q_exponent: QExp, window: Window, coefficient: int = 1
) -> TruncatedSeries:
    return make_series([(z_degree, q_exponent, coefficient)], window)


# ---------------------------------------------------------------------------
# Pochhammer machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PochFactor:
    """One Pochhammer base: (sign * z^z_degree * q^q_exponent ; q^modulus).

    sign = +1 encodes the base  z^i q^b  (factors 1 - z^i q^(b+j*m)),
    sign = -1 encodes the base -z^i q^b  (factors 1 + z^i q^(b+j*m)).
    """

    z_degree: int
    q_exponent: Fraction
    sign: int = 1
    modulus: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "q_exponent", _as_fraction(self.q_exponent))
        object.__setattr__(self, "modulus", _as_fraction(self.modulus))
        if self.z_degree < 0:
            raise ValueError("PochFactor z_degree must be nonnegative")
        if self.q_exponent < 0:
            raise ValueError("PochFactor q_exponent must be nonnegative")
        if self.sign not in (1, -1):
            raise ValueError("PochFactor sign must be +1 or -1")
        if self.modulus <= 0:
            raise ValueError("PochFactor modulus must be positive")


def qf(q_exponent: QExp, modulus: QExp, sign: int = 1) -> PochFactor:
    """Pure-q factor base: (sign * q^q_exponent ; q^modulus)."""
    return PochFactor(0, _as_fraction(q_exponent), sign, _as_fraction(modulus))


def zf(z_degree: int, q_exponent: QExp, modulus: QExp, sign: int = 1) -> PochFactor:
    """z-carrying factor base: (sign * z^z_degree q^q_exponent ; q^modulus)."""
    return PochFactor(z_degree, _as_fraction(q_exponent), sign, _as_fraction(modulus))


def _poch(numerator, denominator, window, start=None):
    """``start`` (default 1) times prod (f; q^m)_n over the numerator pairs
    (f, n), divided by the same over the denominator pairs (n = None: n =
    inf), by binomials in place, exact in the window and where ``start`` is.

    Binomials at or past the q-window act as 1 there and are skipped; the
    caller has checked that the denominators are invertible in the window.
    """
    pairs = [(f, n, _mul_binomial) for f, n in numerator]
    pairs += [(f, n, _div_binomial) for f, n in denominator]
    start = _constant(1, window) if start is None else start
    ntr = _min_bound(window.q_truncation, start.q_truncation)
    dtr = _min_bound(window.z_truncation, start.z_truncation)
    scale = lcm(start.q_scale, window.q_scale,
                *(x.denominator for f, _, _ in pairs for x in (f.q_exponent, f.modulus)))
    qcap = None if ntr is None else ntr * scale
    rows = _spread(start._rows, scale // start.q_scale)
    rows = [r[:qcap] for r in rows[:None if dtr is None else dtr + 1]]
    for f, n, apply in pairs:
        first, step = int(f.q_exponent * scale), int(f.modulus * scale)
        if qcap is not None:
            below = max(0, -((first - qcap) // step))
            n = below if n is None else min(n, below)
        for j in range(n):
            apply(rows, f.z_degree, first + j * step, f.sign, qcap, dtr)
    return _from_rows(rows, ntr, dtr, scale)


#: The step to ``T(0) = 1`` at ``z^0 q^0`` with sign +1 (see :func:`_running`).
_UNIT_STEP = ([], [], 0, 0, 1)


def _running(step, window):
    """The parts ``(T(n), k(n), e(n), sign(n))`` of a running term, for
    :func:`_combine`, for n = 0, 1, ... while both shifts are in the window.

    ``T(-1) = 1``, and ``step(n)`` gives the numerator and denominator pairs
    (as for :func:`_poch`) taking ``T(n-1)`` to ``T(n)``, then the z-shift
    ``k(n)`` and the q-shift ``e(n)``, neither of which may decrease, and
    ``sign(n)``.  ``T(n)`` is exact in ``Window(N - e(n), D)``, so each part
    is exact in the window; the parts stop at the first shift outside it.
    """
    n_trunc, z_cap, term = window.q_truncation, window.z_truncation, None
    for n in count():
        numerator, denominator, k, e, sign = step(n)
        if n_trunc <= e or (z_cap is not None and z_cap < k):
            return
        term = _poch(numerator, denominator, Window(n_trunc - e, z_cap), term)
        yield term, k, e, sign


def poch_finite(factor: PochFactor, n: int, window: Window) -> TruncatedSeries:
    """(base; q^modulus)_n = prod_{j=0}^{n-1} (1 - sign z^i q^(b+j*m)).

    Negative n is rejected here; divisions by negative-index symbols follow
    the convention handled by :func:`inv_poch_finite`.
    """
    if n < 0:
        raise ValueError(
            "poch_finite needs n >= 0; for 1/(base;q)_n with n < 0 use inv_poch_finite"
        )
    return _poch([(factor, n)], [], window)


def inv_poch_finite(factor: PochFactor, n: int, window: Window) -> TruncatedSeries:
    """1 / (base; q^modulus)_n, with the convention that it is 0 for n < 0.

    For n >= 0 the factor must start with a unit: a base whose constant
    term is 1 (z_degree = 0, q_exponent = 0, sign = +1) would make the
    product vanish and is rejected.
    """
    if n < 0:
        return zero(window)
    if n == 0:
        return one(window)
    if factor.z_degree == 0 and factor.q_exponent == 0:
        if factor.sign == 1:
            raise ValueError("cannot invert a Pochhammer factor with vanishing constant term")
        raise ValueError("cannot invert: constant term is 2, need a unit (+1 or -1)")
    if window.q_truncation is None:
        raise ValueError("inverting a finite Pochhammer symbol needs a finite q_truncation")
    if factor.z_degree > 0 and window.z_truncation is None:
        raise ValueError("inverting a z-carrying Pochhammer symbol needs a finite z_truncation")
    return _poch([], [(factor, n)], window)


def poch_infinite(factor: PochFactor, window: Window) -> TruncatedSeries:
    """(base; q^modulus)_inf, truncated to the window.

    Only finitely many binomials act inside the window because the modulus
    is positive; a pure-q factor with q_exponent = 0 would contribute the
    divergent-at-origin binomial (1 - sign) infinitely often in spirit and
    is rejected.
    """
    return poch_product([factor], [], window)


def poch_product(
    numerator: Iterable[PochFactor],
    denominator: Iterable[PochFactor],
    window: Window,
) -> TruncatedSeries:
    """prod (num_i; ...)_inf / prod (den_j; ...)_inf inside the window."""
    numerator, denominator = list(numerator), list(denominator)
    for f in numerator + denominator:
        if f.z_degree == 0 and f.q_exponent <= 0:
            raise ValueError(
                "divergent-at-origin factor: infinite product needs q_exponent > 0 "
                "or a positive z_degree"
            )
        if window.q_truncation is None:
            raise ValueError("infinite products need a finite q_truncation")
        if f.z_degree > 0 and window.z_truncation is None:
            raise ValueError("a z-carrying infinite product needs a finite z_truncation")
    return _poch([(f, None) for f in numerator], [(f, None) for f in denominator], window)


def gauss_binomial(n: int, m: int, window: Window) -> TruncatedSeries:
    """The q-binomial coefficient [n choose m]_q inside the window.

    Zero when the pair is out of range (m < 0 or m > n); otherwise
    (q;q)_n / ((q;q)_m (q;q)_{n-m}).
    """
    if m < 0 or m > n:
        return zero(window)
    if window.q_truncation is None:
        # exact polynomial of degree m(n-m): compute in a window just past it
        wide = Window(m * (n - m) + 1, window.z_truncation, window.q_scale)
        res = gauss_binomial(n, m, wide)
        return _from_rows(res._rows, None, window.z_truncation, res.q_scale)
    base = qf(1, 1)
    return _poch([(base, n)], [(base, m), (base, n - m)], window)


def theta_sum(b1: QExp, b2: QExp, window: Window) -> TruncatedSeries:
    """sum_{n in Z} (-1)^n q^(b1*n(n+1)/2 + b2*n(n-1)/2), truncated.

    Both triangular directions eventually leave the window because
    b1 + b2 > 0 is required.
    """
    a1, a2 = _as_fraction(b1), _as_fraction(b2)
    if a1 + a2 <= 0:
        raise ValueError("theta_sum needs b1 + b2 > 0 for a convergent exponent")
    if window.q_truncation is None:
        raise ValueError("theta_sum needs a finite q_truncation")
    scale = lcm(window.q_scale, a1.denominator, a2.denominator, 2)
    ncap = Fraction(window.q_truncation)
    # the exponent is a convex quadratic in the summation index with leading
    # coefficient (b1+b2)/2 > 0, so |s| <= S below covers every in-window term
    lead = (a1 + a2) / 2
    slope = max(abs(a1), abs(a2))
    span = 2
    while lead * span * span - slope * span < ncap:
        span += 1
    terms = []
    for s in range(-span, span + 1):
        e = a1 * Fraction(s * (s + 1), 2) + a2 * Fraction(s * (s - 1), 2)
        if e < 0:
            raise ValueError(
                "theta_sum hit a negative exponent q^%s (index %d); the series "
                "leaves the power-series ring" % (e, s)
            )
        if e < ncap:
            terms.append(((0, int(e * scale)), -1 if s & 1 else 1))
    return TruncatedSeries(_collect(terms), window.q_truncation, window.z_truncation, scale)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_SERIES_SCHEMA = "cylq-series/1"


def series_to_json(s: TruncatedSeries) -> dict:
    """JSON-ready dict; terms are (z_degree, q_numerator, q_scale, coefficient)."""
    return {
        "schema": _SERIES_SCHEMA,
        "q_truncation": s.q_truncation,
        "z_truncation": s.z_truncation,
        "q_scale": s.q_scale,
        "terms": [
            [z, qn, s.q_scale, c] for z, row in enumerate(s._rows) for qn, c in enumerate(row) if c
        ],
    }


def series_from_json(payload: dict) -> TruncatedSeries:
    if not isinstance(payload, dict) or payload.get("schema") != _SERIES_SCHEMA:
        raise ValueError("not a %s payload" % _SERIES_SCHEMA)
    shared = payload["q_scale"]
    coeffs: dict = {}
    for z, qn, scale, c in payload["terms"]:
        if scale != shared:
            raise ValueError("terms must share the payload q_scale")
        coeffs[(z, qn)] = c
    return TruncatedSeries(
        coeffs, payload["q_truncation"], payload["z_truncation"], shared
    )
