"""Boolean algebra of N-event synchronization.

Pairwise order constraints between events form an eight-element Boolean
algebra; systems of them form matrices whose transitive closure exposes
implied constraints, per-event boundedness, and deadlock.  This package
provides the algebra, the matrices, the closure, a brute-force oracle
for cross-checking, text and JSON serializations, and a command-line
front end.
"""

from .algebra import ALL_RELS, ATOMS, CANONICAL_SYMBOLS, Bound, Rel
from .closure import (
    ClosureReport,
    ImpliedChange,
    boundedness,
    close,
    equivalent,
)
from .errors import (
    GuardError,
    InterchangeError,
    ParseError,
    SyncAlgebraError,
    ValidationError,
)
from .format import (
    Constraint,
    NeqMode,
    SyncSpec,
    interchange_to_matrix,
    matrix_to_interchange,
    matrix_to_spec,
    parse_spec,
    report_to_interchange,
    spec_to_matrix,
    spec_to_text,
    substitute_neq,
    to_dot,
)
from .matrix import (
    ENUMERATION_MAX_EVENTS,
    LISTING_MAX_EVENTS,
    RelGrid,
    SyncMatrix,
    atom_matrices,
    default_labels,
    enumerate_matrices,
    matrix_count,
)

__version__ = "0.1.0"

# The oracle is the slow reference, and of the commands only
# ``close --verify`` uses it, so it is imported on first access to one of
# its names (PEP 562) rather than with the package.
_ORACLE_NAMES = frozenset(
    ("DEFAULT_ASSIGNMENT_CEILING", "PairSet", "atom_of", "minimal_network", "pairs_of", "satisfies")
)


def __getattr__(name: str):
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    return getattr(oracle, name)


__all__ = [
    "ALL_RELS",
    "ATOMS",
    "CANONICAL_SYMBOLS",
    "DEFAULT_ASSIGNMENT_CEILING",
    "ENUMERATION_MAX_EVENTS",
    "LISTING_MAX_EVENTS",
    "Bound",
    "ClosureReport",
    "Constraint",
    "GuardError",
    "ImpliedChange",
    "InterchangeError",
    "NeqMode",
    "PairSet",
    "ParseError",
    "Rel",
    "RelGrid",
    "SyncAlgebraError",
    "SyncMatrix",
    "SyncSpec",
    "ValidationError",
    "atom_matrices",
    "atom_of",
    "boundedness",
    "close",
    "default_labels",
    "enumerate_matrices",
    "equivalent",
    "interchange_to_matrix",
    "matrix_count",
    "matrix_to_interchange",
    "matrix_to_spec",
    "minimal_network",
    "pairs_of",
    "parse_spec",
    "report_to_interchange",
    "satisfies",
    "spec_to_matrix",
    "spec_to_text",
    "substitute_neq",
    "to_dot",
]
