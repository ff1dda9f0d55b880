"""Entry-point spans around cylq's public functions, and the per-layer
metrics derived from them.

The tracer wraps each entry point listed in ``ENTRY_POINTS`` in its defining
module and in every ``cylq`` module that imported it by name (``identities``
does ``from .lattice import genfun_by_enumeration``), or on its class for
methods.  Inner helpers such as ``is_above`` are not wrapped: they run
hundreds of thousands of times per pass.  Names are looked up in whichever
module defines them, so an entry point that moves between modules is still
traced.

Spans stay in memory as ``[name, start, end, parent, thread]`` plus the
layer, category and counts, and are written out when the run ends.  A span's
self time is its duration minus the part of it that its child spans cover.
Work handed to a ``ThreadPoolExecutor`` keeps the submitting span as parent.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

#: (layer, category, entry points).  ``Class.method`` names patch the class.
ENTRY_POINTS = (
    ("series", "construct", ("TruncatedSeries.__init__", "make_series", "zero", "one", "monomial")),
    ("series", "add", ("TruncatedSeries.__add__", "TruncatedSeries.__sub__",
                       "TruncatedSeries.__rsub__", "TruncatedSeries.__neg__")),
    ("series", "mul", ("TruncatedSeries.__mul__",)),
    ("series", "invert", ("TruncatedSeries.invert", "TruncatedSeries.__truediv__")),
    ("series", "poch", ("poch_finite", "inv_poch_finite", "poch_infinite", "poch_product",
                        "gauss_binomial", "theta_sum")),
    ("series", "compare", ("TruncatedSeries.first_difference", "TruncatedSeries.__eq__",
                           "TruncatedSeries.agrees_with")),
    ("series", "other", ("TruncatedSeries.times_monomial", "TruncatedSeries.substitute_z",
                         "TruncatedSeries.z_slice", "TruncatedSeries.collapse_z",
                         "TruncatedSeries.canonical", "series_to_json", "series_from_json")),
    ("lattice", "genfun", ("genfun_by_enumeration", "enumerate_objects")),
    ("lattice", "marked", ("marked_partition_series", "diamond_partition_series",
                           "signed_distinct_partition_series", "distinct_largest_part_table",
                           "hook_length_table", "schmidt_genfun", "signed_distinct_genfun",
                           "count_distinct_by_marked_sum", "count_partitions_by_hook")),
    ("products", "expand", ("ProductSpec.expand", "cp_product", "dspp_product",
                            "nonsymmetric_mirror_series")),
    ("products", "census", ("balance_census", "is_balanced")),
    ("products", "spec", ("cp_product_spec", "dspp_product_spec", "scp_product_spec",
                          "w3_multiset", "w1_w2_multisets")),
    ("recur", "build", ("build_system", "eliminate", "to_coefficient_recurrences",
                        "width4_recurrence", "width6_recurrence", "closed_form_euler",
                        "closed_form_goellnitz", "closed_form_width4", "closed_form_width6")),
    ("recur", "solve", ("solve_fixed_point",)),
    ("recur", "check", ("check_closed_form",)),
    ("identities", "verify", ("verify",)),
    ("identities", "compare", ("compare_series",)),
    ("identities", "sums", ("sum_euler", "sum_rogers_ramanujan", "sum_double_mod7",
                            "sum_alternating_mod4", "sum_signed_distinct_mod2", "sum_goellnitz",
                            "sum_mod12", "sum_schmidt_distinct_odd", "sum_schmidt_distinct_even")),
    ("fitkit", "fit", ("fit_report", "fit_weights")),
    ("fitkit", "discover", ("discover_equivalences",)),
    ("fitkit", "other", ("convert_profile",)),
    ("cli", "main", ("main",)),
)

LAYERS = ("series", "lattice", "products", "recur", "identities", "fitkit", "cli")

#: Enumerators whose coefficients are signed, so they do not count objects.
SIGNED_ENUMERATORS = ("signed_distinct_partition_series", "signed_distinct_genfun")

#: Products entry points that each handle one profile.
PROFILE_ENTRY_POINTS = ("cp_product", "dspp_product", "nonsymmetric_mirror_series",
                        "is_balanced", "cp_product_spec", "dspp_product_spec",
                        "scp_product_spec", "w3_multiset", "w1_w2_multisets")

#: Work counts recorded at the entry points (see ``Tracer._counts``).
COUNTERS = ("series.terms_out", "lattice.objects", "products.profiles",
            "recur.degrees_checked", "identities.comparisons")

# span record fields
NAME, LAYER, CAT, START, END, PARENT, THREAD, COUNTS = range(8)


def _covered(intervals: list, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list) -> list:
    """Each span's duration minus the union of its children's intervals."""
    children: dict = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    return [
        (s[END] - s[START]) - _covered(children.get(i, []), s[START], s[END])
        for i, s in enumerate(spans)
    ]


def _outermost(spans: list, i: int, same) -> bool:
    """True when no ancestor of span ``i`` satisfies ``same(ancestor)``."""
    parent = spans[i][PARENT]
    while parent is not None:
        if same(spans[parent]):
            return False
        parent = spans[parent][PARENT]
    return True


def layer_metrics(spans: list, pass_start: float, pass_end: float) -> dict:
    """Per-layer self times, calls and counts of one traced pass.

    ``*.calls`` counts spans not nested in a span of the same category, so a
    division that inverts and multiplies counts once, as an inversion.
    """
    selfs = self_times(spans)
    m: dict = dict.fromkeys(COUNTERS, 0)
    for layer in LAYERS:
        m[layer + ".self_s"] = 0.0
    for layer, cat, _ in ENTRY_POINTS:
        m["%s.%s.self_s" % (layer, cat)] = 0.0
        m["%s.%s.calls" % (layer, cat)] = 0
    for i, s in enumerate(spans):
        m[s[LAYER] + ".self_s"] += selfs[i]
        key = "%s.%s" % (s[LAYER], s[CAT])
        m[key + ".self_s"] += selfs[i]
        if _outermost(spans, i, lambda a: a[LAYER] == s[LAYER] and a[CAT] == s[CAT]):
            m[key + ".calls"] += 1
        for name, value in (s[COUNTS] or {}).items():
            m[name] += value
    roots = [(s[START], s[END]) for s in spans if s[PARENT] is None]
    m["trace.unattributed_s"] = (pass_end - pass_start) - _covered(roots, pass_start, pass_end)
    m["lattice.objects_per_s"] = _rate(m["lattice.objects"], m["lattice.self_s"])
    m["products.profiles_per_s"] = _rate(m["products.profiles"], m["products.self_s"])
    return m


def _rate(count: int, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


class Tracer:
    """Records spans at cylq entry points while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list = []  # (owner, attribute, original)

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str, cat: str) -> int:
        stack = self._stack()
        record = [name, layer, cat, 0.0, 0.0, stack[-1] if stack else None,
                  threading.get_ident(), None]
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        stack.append(index)
        record[START] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack().pop()

    def _counts(self, index: int, result) -> None:
        s = self.spans[index]
        layer, name = s[LAYER], s[NAME]
        counts = {}
        if layer == "series" and s[CAT] in ("mul", "invert"):
            # an operator may return NotImplemented for a foreign operand
            if hasattr(result, "support_size") and _outermost(
                self.spans, index, lambda a: a[LAYER] == "series" and a[CAT] == s[CAT]
            ):
                counts["series.terms_out"] = result.support_size()
        elif layer == "lattice" and name not in SIGNED_ENUMERATORS:
            if _outermost(self.spans, index, lambda a: a[LAYER] == "lattice"):
                if isinstance(result, list):
                    counts["lattice.objects"] = len(result)
                elif isinstance(result, dict):
                    counts["lattice.objects"] = sum(result.values())
                else:
                    counts["lattice.objects"] = sum(c for _, _, c in result.items())
        elif layer == "products":
            if _outermost(self.spans, index, lambda a: a[LAYER] == "products"):
                if name == "balance_census":
                    counts["products.profiles"] = sum(t for _, t in result.values())
                elif name in PROFILE_ENTRY_POINTS:
                    counts["products.profiles"] = 1
        elif name == "check_closed_form":
            span = result.n_max - result.start_degree + 1
            counts["recur.degrees_checked"] = span - len(result.vacuous)
        elif layer == "identities" and name == "verify":
            counts["identities.comparisons"] = len(result["comparisons"])
        s[COUNTS] = counts or None

    def _wrap(self, fn, name: str, layer: str, cat: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name, layer, cat)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            tracer._counts(index, result)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attribute: str, value) -> None:
        self._patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def install(self) -> None:
        """Wrap every entry point found in the loaded ``cylq`` modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "cylq" or n.startswith("cylq.")) and m is not None]
        for layer, cat, names in ENTRY_POINTS:
            for qualified in names:
                owner_name, _, attr = qualified.rpartition(".")
                for module in modules:
                    if owner_name:
                        cls = module.__dict__.get(owner_name)
                        if isinstance(cls, type) and cls.__module__ == module.__name__ \
                                and attr in cls.__dict__:
                            fn = cls.__dict__[attr]
                            self._patch(cls, attr, self._wrap(fn, attr, layer, cat))
                        continue
                    fn = module.__dict__.get(attr)
                    if callable(fn) and getattr(fn, "__module__", None) == module.__name__:
                        wrapped = self._wrap(fn, attr, layer, cat)
                        for other in modules:
                            if other.__dict__.get(attr) is fn:
                                self._patch(other, attr, wrapped)
        self._patch(ThreadPoolExecutor, "submit", self._propagating_submit())

    def _propagating_submit(self):
        tracer, submit = self, ThreadPoolExecutor.submit

        def traced_submit(pool, fn, /, *args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1:]

            def run(*a, **k):
                tracer._local.stack = list(parent)
                try:
                    return fn(*a, **k)
                finally:
                    tracer._local.stack = []

            return submit(pool, run, *args, **kwargs)

        return traced_submit

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def write(self, path: str) -> None:
        """One JSON array per span: name, start, end, parent, thread."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s[NAME], s[START], s[END], s[PARENT], s[THREAD]]) + "\n")
