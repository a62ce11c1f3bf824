"""Boolean algebra of N-event synchronization.

Pairwise order constraints between events form an eight-element Boolean
algebra; systems of them form matrices whose transitive closure exposes
implied constraints, per-event boundedness, and deadlock.  This package
provides the algebra, the matrices, the closure, a brute-force oracle
for cross-checking, text and JSON serializations, and a command-line
front end.
"""

from . import algebra, closure, errors, format, matrix
from .algebra import *
from .closure import *
from .errors import *
from .format import *
from .matrix import *

__version__ = "0.1.0"

# The oracle is the slow reference, and of the commands only
# ``close --verify`` uses it, so it is imported on first access to one of
# its names (PEP 562) rather than with the package.  Every other public
# name is listed once, in its own module's ``__all__``.
__all__ = [
    "DEFAULT_ASSIGNMENT_CEILING",
    "PairSet",
    "atom_of",
    "minimal_network",
    "pairs_of",
    "satisfies",
]
_ORACLE_NAMES = frozenset(__all__)
__all__ += algebra.__all__
__all__ += closure.__all__
__all__ += errors.__all__
__all__ += format.__all__
__all__ += matrix.__all__


def __getattr__(name: str):
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    return getattr(oracle, name)
