"""Boolean algebra of N-event synchronization.

Pairwise order constraints between events form an eight-element Boolean
algebra; systems of them form matrices whose transitive closure exposes
implied constraints, per-event boundedness, and deadlock.  This package
provides the algebra, the matrices, the closure, a brute-force oracle
for cross-checking, text and JSON serializations, and a command-line
front end.
"""

from . import algebra, closure, errors, format, matrix, oracle
from .algebra import *
from .closure import *
from .errors import *
from .format import *
from .matrix import *
from .oracle import *

__version__ = "0.1.0"

__all__ = algebra.__all__ + closure.__all__ + errors.__all__ + format.__all__ + matrix.__all__ + oracle.__all__
