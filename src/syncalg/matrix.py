"""Synchronization matrices over n named events.

A system of pairwise constraints on n events is stored as an n-by-n grid
of relations with two structural invariants baked in: an event never
constrains itself (the diagonal is the full relation) and the cell for
(j, i) is always the converse of the cell for (i, j).  The cells above
the diagonal therefore carry all the information; with p = (n*n - n) / 2
of them and eight relations each there are exactly 8**p distinct
matrices on a fixed label list.

The grid type is deliberately dumb: tuples of tuples of :class:`Rel`.
Element-wise complement leaves the invariants (it destroys the diagonal),
so it returns a raw grid rather than a matrix.

The constructor checks the invariants row by row, not cell by cell: the
grid is copied once into a ``bytes`` string of relation codes, each of
which must be below 8, and row i must have the full relation at i and,
mapped through a converse translation table, equal column i.  A failed
check is searched cell by cell only within what failed (the grid for a
bad cell, one row for a converse pair) to name the first fault.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from operator import and_, or_

from .algebra import _CONVERSE, ALL_RELS, ATOMS, Rel
from .errors import GuardError, ValidationError

RelGrid = tuple[tuple[Rel, ...], ...]

# The eight relation codes, and the converse map as a bytes.translate
# table (which must have 256 entries; _check_grid rejects any grid with
# a code from 8 up before the table is read).
_CODES = bytes(range(8))
_CONVERSE_BYTES = bytes(_CONVERSE) + bytes(range(8, 256))

# Full enumeration above four events would mean 8**10 and more matrices.
ENUMERATION_MAX_EVENTS = 4

# The count and the atom list grow with n too: at 32 events the count
# has 448 digits and the atoms are 1488 grids of 1024 cells each.
LISTING_MAX_EVENTS = 32


def default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"e{k + 1}" for k in range(n))


class SyncMatrix:
    """Pairwise relation grid plus the event names indexing it.

    Labels and rows may be given as any sequences: the constructor stores
    them as tuples and is the one place the invariants are checked.  A
    matrix is immutable and compares and hashes by value; pickling and
    copying go back through the constructor.
    """

    __slots__ = ("labels", "cells")
    __match_args__ = ("labels", "cells")
    labels: tuple[str, ...]
    cells: RelGrid

    def __init__(self, labels: Iterable[str], cells: Iterable[Iterable[Rel]]):
        try:
            labels = tuple(labels)
        except TypeError:
            raise ValidationError("event labels must be a sequence of strings") from None
        n = len(labels)
        if n < 1:
            raise ValidationError("a matrix needs at least one event")
        if not all(isinstance(name, str) for name in labels):
            raise ValidationError("event labels must be a sequence of strings")
        if len(set(labels)) != n:
            raise ValidationError("event labels must be distinct")
        try:
            cells = tuple(map(tuple, cells))
        except TypeError:
            raise ValidationError(f"cell grid must be {n}x{n}") from None
        if len(cells) != n or any(len(row) != n for row in cells):
            raise ValidationError(f"cell grid must be {n}x{n}")
        _check_grid(cells)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "cells", cells)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.labels, self.cells) == (other.labels, other.cells)

    def __hash__(self):
        return hash((self.labels, self.cells))

    def __repr__(self):
        return f"SyncMatrix(labels={self.labels!r}, cells={self.cells!r})"

    def __reduce__(self):
        return self.__class__, (self.labels, self.cells)

    @property
    def n(self) -> int:
        return len(self.labels)

    @classmethod
    def unconstrained(cls, labels: Iterable[str]) -> "SyncMatrix":
        labels = tuple(labels)
        n = len(labels)
        return cls(labels, [[Rel.ANY] * n for _ in range(n)])

    @classmethod
    def from_entries(
        cls,
        labels: Iterable[str],
        entries: Iterable[tuple[int, int, Rel]],
    ) -> "SyncMatrix":
        """Build from directed (i, j, rel) declarations.

        Repeated declarations for a pair conjoin, so contradictory inputs
        are representable: they simply intersect down to NEVER.
        """
        labels = tuple(labels)
        n = len(labels)
        grid = [[Rel.ANY.value] * n for _ in range(n)]
        for i, j, rel in entries:
            if not (0 <= i < n and 0 <= j < n):
                raise ValidationError(f"event index ({i},{j}) out of range for {n} events")
            if i == j:
                raise ValidationError(f"event {labels[i]!r} cannot constrain itself")
            if not isinstance(rel, Rel) or rel not in ALL_RELS:
                raise ValidationError(f"entry relation {rel!r} is not a relation")
            code = int(rel)
            grid[i][j] &= code
            grid[j][i] &= _CONVERSE[code]
        return cls(labels, [tuple(map(ALL_RELS.__getitem__, row)) for row in grid])

    def index_of(self, name: str) -> int:
        try:
            return self.labels.index(name)
        except ValueError:
            raise ValidationError(f"unknown event {name!r}") from None

    def cell(self, i: int, j: int) -> Rel:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValidationError(f"cell ({i},{j}) out of range for {self.n} events")
        return self.cells[i][j]

    def union(self, other: "SyncMatrix") -> "SyncMatrix":
        """Cell-wise union; the invariants survive because converse distributes."""
        return self._cellwise(or_, other)

    def intersect(self, other: "SyncMatrix") -> "SyncMatrix":
        return self._cellwise(and_, other)

    def _cellwise(self, op, other: "SyncMatrix") -> "SyncMatrix":
        if self.labels != other.labels:
            raise ValidationError("matrix operands must share the same event labels")
        return SyncMatrix(self.labels, [map(op, ra, rb) for ra, rb in zip(self.cells, other.cells)])

    __or__ = union
    __and__ = intersect

    def converse(self) -> "SyncMatrix":
        """Cell-wise converse, which by converse antisymmetry is the transpose."""
        return SyncMatrix(self.labels, zip(*self.cells))

    def complement_cells(self) -> RelGrid:
        """Cell-wise complement, as a raw grid: the diagonal becomes NEVER."""
        return tuple(tuple(c.complement() for c in row) for row in self.cells)

    def swap_events(self, i: int, j: int) -> "SyncMatrix":
        """Exchange two events: labels, rows, and columns move together."""
        n = self.n
        if not (0 <= i < n and 0 <= j < n):
            raise ValidationError(f"event pair ({i},{j}) out of range for {n} events")
        order = list(range(n))
        order[i], order[j] = order[j], order[i]
        return self._reordered(order)

    def _reordered(self, order: list[int]) -> "SyncMatrix":
        """Event order[k] of this matrix becomes event k of the result."""

        def pick(seq):
            return tuple(map(seq.__getitem__, order))

        return SyncMatrix(pick(self.labels), [pick(row) for row in pick(self.cells)])


def _check_grid(cells: RelGrid) -> None:
    """Check a square grid's invariants; raises on the first fault.

    Faults are reported in scan order: any non-relation cell first, then
    row by row the diagonal cell followed by that row's converse pairs.
    """
    n = len(cells)
    try:
        typed = all(set(map(type, row)) == {Rel} for row in cells)
        codes = b"".join(map(bytes, cells)) if typed else b"\xff"
    except ValueError:  # a Rel code from 256 up
        codes = b"\xff"
    if codes.translate(None, _CODES):  # deleting the eight codes leaves something
        bad = next(c for row in cells for c in row if type(c) is not Rel or c not in ALL_RELS)
        raise ValidationError(f"cell {bad!r} is not a relation")
    for i in range(n):
        row = codes[i * n : i * n + n]
        if row[i] != Rel.ANY:
            raise ValidationError("diagonal cells must be the full relation")
        if row.translate(_CONVERSE_BYTES) != codes[i::n]:
            # A mismatch left of the diagonal would have failed at row j < i.
            j = next(j for j in range(i + 1, n) if codes[j * n + i] != _CONVERSE[row[j]])
            raise ValidationError(f"cells ({i},{j}) and ({j},{i}) are not converses")


def matrix_count(n: int) -> int:
    """Number of distinct matrices on n events: 8 ** ((n*n - n) / 2)."""
    if n < 1:
        raise ValidationError("a matrix needs at least one event")
    if n > LISTING_MAX_EVENTS:
        raise GuardError(f"counting is limited to {LISTING_MAX_EVENTS} events")
    return 8 ** ((n * n - n) // 2)


def atom_matrices(n: int) -> list[SyncMatrix]:
    """The 3 * (n*n - n) / 2 atoms of the matrix lattice.

    Each atom pins one above-diagonal pair to one atomic relation and
    leaves every other pair empty.  Every matrix is the union of the
    atoms it dominates, so these generate the lattice.
    """
    if n < 2:
        raise ValidationError("atoms need at least two events")
    if n > LISTING_MAX_EVENTS:
        raise GuardError(f"atom listing is limited to {LISTING_MAX_EVENTS} events")
    labels = default_labels(n)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for atom in ATOMS:
                grid = [
                    [Rel.ANY if a == b else Rel.NEVER for b in range(n)]
                    for a in range(n)
                ]
                grid[i][j] = atom
                grid[j][i] = atom.converse()
                out.append(SyncMatrix(labels, grid))
    return out


def enumerate_matrices(n: int) -> Iterator[SyncMatrix]:
    """Yield every matrix on n events, in a fixed row-major cell order.

    Guarded to small n: the count grows as 8 ** ((n*n - n) / 2), which is
    already 8**10 at five events.
    """
    if not (2 <= n <= ENUMERATION_MAX_EVENTS):
        raise ValidationError(
            f"full enumeration is limited to 2..{ENUMERATION_MAX_EVENTS} events"
        )
    return _enumerate(n)


def _enumerate(n: int) -> Iterator[SyncMatrix]:
    labels = default_labels(n)
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for combo in itertools.product(ALL_RELS, repeat=len(slots)):
        grid = [[Rel.ANY] * n for _ in range(n)]
        for (i, j), rel in zip(slots, combo):
            grid[i][j] = rel
            grid[j][i] = rel.converse()
        yield SyncMatrix(labels, grid)
