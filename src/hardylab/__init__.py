"""Numerical laboratory for weighted composition operators on H^2.

Builds analytic self-maps of the disk and outer-function weights, pulls
boundary measure back through them, measures Carleson windows and dyadic
boxes, and estimates singular-value decay of the resulting operators.
The package re-exports exactly the ``__all__`` of each module.
"""

from . import carleson, grid, operators, outer, symbols, weights
from .grid import *  # noqa: F401,F403
from .outer import *  # noqa: F401,F403
from .symbols import *  # noqa: F401,F403
from .weights import *  # noqa: F401,F403
from .carleson import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403

__all__ = [name for module in (grid, outer, symbols, weights, carleson, operators)
           for name in module.__all__]

__version__ = "0.1.0"
