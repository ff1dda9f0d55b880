"""cylq: exact q-series arithmetic for cylindric and shifted plane partitions.

The package verifies product formulas, coupled q-difference systems, and
closed-form sum sides for weighted generating functions of cylindric
partitions and their symmetric, skew, and distinct-part relatives - all in
exact integer arithmetic inside explicit truncation windows.

Layers (each ``from cylq import ...``-able):

- ``series``: truncated bivariate Laurent-free series over the integers,
  Pochhammer/theta/Gaussian-binomial builders, JSON round-trips.
- ``lattice``: the interlacing objects themselves - enumeration oracles
  and weighted generating functions computed straight from definitions.
- ``products``: exponent-multiset product formulas and the balance census.
- ``recur``: coupled functional-equation systems, graded fixed-point
  solving, elimination to uncoupled coefficient recurrences, closed forms.
- ``identities``: the registry of named verification cases and reports.
- ``fitkit``: inverse problems - fitting weights to target products,
  profile conversions, equivalence discovery.
- ``cli``: the ``cylq`` command-line front end over all of the above.

Layers load on first use: ``import cylq`` imports none of them.  A layer's
name (``cylq.recur``, ``from cylq import cli``) imports that module and the
layers it needs.  Any other public name imports the layers in the order
above until one lists the name in its ``__all__``, and is that layer's
object; ``__all__`` is those lists in order, plus ``__version__``.
"""

import sys

__version__ = "0.1.0"

_LAYERS = ("series", "lattice", "products", "recur", "identities", "fitkit")


def _load(name: str):
    module = "%s.%s" % (__name__, name)
    __import__(module)  # the import statement's path, which -X importtime reports
    return sys.modules[module]


def __getattr__(name: str):
    if name in _LAYERS or name == "cli":
        return _load(name)
    if name == "__all__":
        return [n for layer in _LAYERS for n in _load(layer).__all__] + ["__version__"]
    if not name.startswith("_"):  # no layer lists a private name
        for layer in map(_load, _LAYERS):
            if name in layer.__all__:
                return getattr(layer, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*globals(), *_LAYERS, "cli", *__getattr__("__all__")})
