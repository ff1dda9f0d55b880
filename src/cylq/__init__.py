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
"""

from . import series, lattice, products, recur, identities, fitkit
from .series import *  # noqa: F401,F403
from .lattice import *  # noqa: F401,F403
from .products import *  # noqa: F401,F403
from .recur import *  # noqa: F401,F403
from .identities import *  # noqa: F401,F403
from .fitkit import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *series.__all__, *lattice.__all__, *products.__all__,
    *recur.__all__, *identities.__all__, *fitkit.__all__, "__version__",
]
