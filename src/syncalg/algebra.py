"""The eight-element algebra of pairwise event-time relations.

When two events are assigned occurrence times, exactly one of three atomic
outcomes holds: the first is earlier, the two are simultaneous, or the
first is later.  A synchronization constraint between two events is any
subset of those three atoms, so the constraints form the Boolean algebra
of subsets of a three-element set: 2**3 = 8 relations in all, from the
empty relation (never satisfiable) up to the full one (no constraint).

``Rel`` stores the atom subset in three flag bits, which turns every
Boolean law into a bitwise identity and keeps the operators cheap.  On
top of the Boolean structure sit three operations particular to ordering:

* ``converse`` answers how the second event relates to the first;
* ``compose`` answers what may hold between x and z given relations
  x-to-y and y-to-z, the engine of transitive closure;
* the boundary classification splits the algebra into the relations that
  admit simultaneity (EQ flag set) and those that exclude it, two halves
  that converse maps onto themselves and complement exchanges.

Textual symbols are fixed here once and reused by every serializer:
``never < = > <= >= != any``.
"""

from __future__ import annotations

import enum
from collections import namedtuple

from .errors import ValidationError

__all__ = ["ALL_RELS", "ATOMS", "CANONICAL_SYMBOLS", "Bound", "Rel"]


class Rel(enum.IntFlag):
    """A relation between two event times: a subset of {LT, EQ, GT}."""

    NEVER = 0
    LT = 1
    EQ = 2
    GT = 4
    LE = 3
    NE = 5
    GE = 6
    ANY = 7

    @property
    def symbol(self) -> str:
        """Canonical textual form, stable across all output formats."""
        return CANONICAL_SYMBOLS[self]

    @classmethod
    def from_symbol(cls, text: str) -> "Rel":
        try:
            return _REL_OF_SYMBOL[text]
        except (KeyError, TypeError):
            raise ValidationError(f"unknown relation symbol {text!r}") from None

    def complement(self) -> "Rel":
        """Atoms not in this relation (Boolean complement within the algebra)."""
        return ALL_RELS[self.value ^ 7]

    __invert__ = complement

    def converse(self) -> "Rel":
        """The same relation read from the second event's side (swap LT and GT)."""
        return ALL_RELS[_CONVERSE[self]]

    def compose(self, other: "Rel") -> "Rel":
        """Relations possible between x and z when x self y and y other z.

        Atom-level transmission, extended by union over the atoms of both
        operands.  Composing with NEVER yields NEVER: an unsatisfiable
        link admits no time for the middle event at all.
        """
        return ALL_RELS[_COMPOSE[self.value][other.value]]

    def contains(self, other: "Rel") -> bool:
        """True when every atom of ``other`` is an atom of ``self``."""
        return (self.value & other.value) == other.value

    def atoms(self) -> tuple["Rel", ...]:
        """The atomic relations whose union is this relation."""
        return tuple(a for a in ATOMS if self.value & a.value)

    @property
    def includes_boundary(self) -> bool:
        """True when simultaneity is allowed (EQ atom present)."""
        return bool(self.value & 2)

    @property
    def excludes_boundary(self) -> bool:
        return not self.includes_boundary


ATOMS = (Rel.LT, Rel.EQ, Rel.GT)
ALL_RELS = tuple(Rel(code) for code in range(8))

# The converse map on int relation codes, indexed by the code (or the
# relation itself): LT and GT swap bits once here, so neither Rel.converse
# nor the closure kernel calls the flag constructor.
_CONVERSE = tuple((v & 2) | ((v & 1) << 2) | ((v & 4) >> 2) for v in range(8))

# Indexed by the relation code, like ALL_RELS.
CANONICAL_SYMBOLS = ("never", "<", "=", "<=", ">", "!=", ">=", "any")
_REL_OF_SYMBOL = dict(zip(CANONICAL_SYMBOLS, ALL_RELS))

# Transmission of atomic relations through a shared middle event.  The
# composite table below is forced from these nine cases by distributing
# over union.
_ATOM_COMPOSE = {
    (1, 1): 1,  # x < y < z  ->  x < z
    (1, 2): 1,
    (1, 4): 7,  # opposite strict orders say nothing about x and z
    (2, 1): 1,
    (2, 2): 2,
    (2, 4): 4,
    (4, 1): 7,
    (4, 2): 4,
    (4, 4): 4,
}


def _compose_value(a: int, b: int) -> int:
    out = 0
    for x in (1, 2, 4):
        if a & x:
            for y in (1, 2, 4):
                if b & y:
                    out |= _ATOM_COMPOSE[(x, y)]
    return out


# Int codes, read by Rel.compose and by closure._THROUGH_BYTES.
_COMPOSE = tuple(tuple(_compose_value(a, b) for b in range(8)) for a in range(8))


_BOUND_PHRASES = {
    Rel.ANY: "unbounded",
    Rel.NE: "unbounded (simultaneity excluded)",
    Rel.GE: "bounded below (closed)",
    Rel.GT: "bounded below (open)",
    Rel.LE: "bounded above (closed)",
    Rel.LT: "bounded above (open)",
    Rel.EQ: "bounded above and below (closed)",
    Rel.NEVER: "bounded above and below (open)",
}


class Bound(namedtuple("Bound", "value")):
    """Boundedness of one event's allowed occurrence times.

    The carrier is the same eight-element algebra: ``value`` is the
    intersection of every relation the event holds against its peers,
    read as the region its time may occupy relative to them.  A missing
    LT atom means the time can never lie below every peer, so the region
    is bounded from below; a missing GT atom bounds it from above; the
    EQ atom tells whether the boundary itself is attainable.
    """

    __slots__ = ()

    @property
    def bounded_below(self) -> bool:
        return not self.value & Rel.LT

    @property
    def bounded_above(self) -> bool:
        return not self.value & Rel.GT

    @property
    def boundary_included(self) -> bool:
        return bool(self.value & Rel.EQ)

    @property
    def is_empty(self) -> bool:
        return self.value == Rel.NEVER

    @property
    def symbol(self) -> str:
        return self.value.symbol

    def describe(self) -> str:
        """Human-readable reading of the allowed region."""
        return _BOUND_PHRASES[self.value]
