"""Solvers and certification tools for cable-coupled beam deflection models.

The package covers one linear and one nonlinear model of a hinged beam
whose restoring force includes the span-integral of the deflection, the
positivity/uniqueness criteria that make two-sided bracketing work, the
monotone iteration itself, an engineering front end in physical bridge
units, finite-difference reference solvers, and a command-line interface.

Each public name is declared once, in its module's `__all__`.  The package
re-exports those names: `melan.__all__` is `__version__` plus the `__all__`
of bridge, criteria, errors, kernel, linear, loads, monotone and oracle.
"""

from . import bridge, criteria, errors, kernel, linear, loads, monotone, oracle
from .bridge import *  # noqa: F401,F403
from .criteria import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .kernel import *  # noqa: F401,F403
from .linear import *  # noqa: F401,F403
from .loads import *  # noqa: F401,F403
from .monotone import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (bridge, criteria, errors, kernel, linear, loads, monotone, oracle)
    for name in module.__all__
]
