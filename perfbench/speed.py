"""Machine-speed reference: fixed pure-Python kernels timed between operations.

On a shared host the processor's speed drifts by up to 1.5x over tens of
seconds to minutes (see README, "Noise").  Medians within one run cannot remove
a drift that lasts longer than the run, so the harness times this reference
next to every operation and scales the operation's time by
``NOMINAL_S / reference``.  The kernels use the interpreter the way cylq does
(small-int and big-int arithmetic, dicts keyed by exponent tuples,
``Fraction``, tuples and sets) and import nothing from cylq, so a change to
cylq cannot move the reference.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

#: Reference time, in seconds, on the 2-vCPU machine the benchmark was
#: calibrated on (Python 3.11.7, a quiet phase); a scaled time is the time the
#: operation would have taken there.
NOMINAL_S = 0.0155


def _ints() -> int:
    s = 0
    for i in range(120000):
        s += i * i % 7
    return s


def _poly() -> int:
    a = {(0, i): (i * 7919) % 1000003 - 500000 for i in range(190)}
    out: dict = {}
    for (x, i), u in a.items():
        for (y, j), v in a.items():
            key = (x + y, i + j)
            out[key] = out.get(key, 0) + u * v * 12345678901234567
    return len(out)


def _fractions() -> Fraction:
    s = Fraction(0)
    for i in range(1, 2500):
        s += Fraction(i % 13 + 1, i % 17 + 2) * Fraction(3, i % 5 + 1)
    return s


def _walk() -> int:
    seen, frontier = set(), [(0,) * 6]
    while frontier and len(seen) < 9000:
        p = frontier.pop()
        for i in range(6):
            q = p[:i] + (p[i] + 1,) + p[i + 1:]
            if sum(q) < 9 and q not in seen:
                seen.add(q)
                frontier.append(q)
    return len(sorted(seen))


KERNELS = (_ints, _poly, _fractions, _walk)


def sample() -> float:
    """Geometric mean of one timing of each kernel, in seconds."""
    logs = 0.0
    for kernel in KERNELS:
        start = time.perf_counter()
        kernel()
        logs += math.log(time.perf_counter() - start)
    return math.exp(logs / len(KERNELS))


def scaled(seconds: float, reference: float) -> float:
    """``seconds`` measured at ``reference`` speed, expressed at nominal speed."""
    return seconds * NOMINAL_S / reference
