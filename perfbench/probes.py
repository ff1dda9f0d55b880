"""Fixed-size series-kernel probes, timed before any wrapper is installed.

Each probe builds its inputs from the seed outside the timed region, times
one kernel call, and checks the result against an independent computation
(direct convolution at sampled exponents, Euler's pentagonal recurrence).
"""

from __future__ import annotations

import random
import time


def _dense(rng: random.Random, n: int, unit: bool):
    from cylq.series import Window, make_series

    terms = [(0, k, rng.choice((-1, 1)) * rng.randint(1, 50)) for k in range(n)]
    if unit:
        terms[0] = (0, 0, 1)
    return make_series(terms, Window(n)), [c for _, _, c in terms]


def _sampled(rng: random.Random, n: int) -> list:
    return sorted({0, 1, n - 1, *rng.sample(range(n), 8)})


def _mul_probe(rng: random.Random, n: int):
    a, ca = _dense(rng, n, False)
    b, cb = _dense(rng, n, False)
    ks = _sampled(rng, n)

    def check(prod) -> list:
        bad = [k for k in ks
               if prod.coefficient(0, k) != sum(ca[i] * cb[k - i] for i in range(k + 1))]
        return ["mul n=%d wrong at q^%s" % (n, bad)] if bad else []

    return lambda: a * b, check


def _invert_probe(rng: random.Random, n: int):
    a, ca = _dense(rng, n, True)
    ks = _sampled(rng, n)

    def check(inv) -> list:
        bad = [k for k in ks
               if sum(ca[i] * inv.coefficient(0, k - i) for i in range(k + 1)) != (k == 0)]
        return ["invert n=%d wrong at q^%s" % (n, bad)] if bad else []

    return a.invert, check


def _partition_numbers(n: int) -> list:
    """p(0..n-1) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * (n - 1)
    for m in range(1, n):
        total, j = 0, 1
        while True:
            g1, g2 = j * (3 * j - 1) // 2, j * (3 * j + 1) // 2
            if g1 > m:
                break
            sign = 1 if j % 2 else -1
            total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            j += 1
        p[m] = total
    return p


def _qpoch_inv_probe(rng: random.Random, n: int):
    from cylq import series

    window = series.Window(n)
    expected = _partition_numbers(n)

    def check(s) -> list:
        bad = [k for k in range(n) if s.coefficient(0, k) != expected[k]]
        return ["1/(q;q)_inf n=%d wrong at q^%s" % (n, bad[:5])] if bad else []

    return lambda: series.poch_product([], [series.qf(1, 1)], window), check


def _bivariate_probe(rng: random.Random, n: int, d: int):
    from cylq import series

    window = series.Window(n, d)
    factor = series.zf(1, 1, 1)

    def check(s) -> list:
        # [z^1] 1/(zq;q)_inf^2 = 2q/(1-q): coefficient 2 at every q^k, k >= 1.
        bad = [k for k in range(n) if s.coefficient(1, k) != (2 if k else 0)]
        if s.coefficient(0, 0) != 1 or any(s.coefficient(0, k) for k in range(1, n)):
            bad.append("z^0")
        return ["1/(zq;q)^2 wrong at %s" % bad[:5]] if bad else []

    return lambda: series.poch_product([], [factor, factor], window), check


def probes(seed: int) -> list:
    """``(metric name, build)`` pairs; ``build()`` returns ``(run, check)``."""
    rng = random.Random(seed)
    return [
        ("series.probe.mul_n800_s", lambda: _mul_probe(rng, 800)),
        ("series.probe.mul_n3200_s", lambda: _mul_probe(rng, 3200)),
        ("series.probe.invert_n800_s", lambda: _invert_probe(rng, 800)),
        ("series.probe.invert_n3200_s", lambda: _invert_probe(rng, 3200)),
        ("series.probe.qpoch_inv_n800_s", lambda: _qpoch_inv_probe(rng, 800)),
        ("series.probe.qpoch_inv_n3200_s", lambda: _qpoch_inv_probe(rng, 3200)),
        ("series.probe.bivariate_41x40_s", lambda: _bivariate_probe(rng, 41, 40)),
    ]


def run_probes(seed: int) -> tuple:
    """Time every probe once; returns ``(metrics, problems)``."""
    metrics, problems = {}, []
    for name, build in probes(seed):
        run, check = build()
        start = time.perf_counter()
        try:
            result = run()
            metrics[name] = time.perf_counter() - start
            problems += check(result)
        except Exception as err:  # a failed probe counts; it must not stop the run
            metrics.setdefault(name, time.perf_counter() - start)
            problems.append("%s: raised %s: %s" % (name, type(err).__name__, err))
    return metrics, problems
