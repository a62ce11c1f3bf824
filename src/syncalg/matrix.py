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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .algebra import ALL_RELS, ATOMS, Bound, Rel
from .errors import GuardError, ValidationError

RelGrid = tuple[tuple[Rel, ...], ...]

# Full enumeration above four events would mean 8**10 and more matrices.
ENUMERATION_MAX_EVENTS = 4

# The count and the atom list grow with n too: at 32 events the count
# has 448 digits and the atoms are 1488 grids of 1024 cells each.
LISTING_MAX_EVENTS = 32


def default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"e{k + 1}" for k in range(n))


@dataclass(frozen=True)
class SyncMatrix:
    """Pairwise relation grid plus the event names indexing it."""

    labels: tuple[str, ...]
    cells: RelGrid

    def __post_init__(self):
        labels = tuple(self.labels)
        cells = tuple(tuple(row) for row in self.cells)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "cells", cells)
        n = len(labels)
        if n < 1:
            raise ValidationError("a matrix needs at least one event")
        if len(set(labels)) != n:
            raise ValidationError("event labels must be distinct")
        if len(cells) != n or any(len(row) != n for row in cells):
            raise ValidationError(f"cell grid must be {n}x{n}")
        for row in cells:
            for cell in row:
                if not isinstance(cell, Rel):
                    raise ValidationError(f"cell {cell!r} is not a relation")
        for i in range(n):
            if cells[i][i] != Rel.ANY:
                raise ValidationError("diagonal cells must be the full relation")
            for j in range(i + 1, n):
                if cells[j][i] != cells[i][j].converse():
                    raise ValidationError(
                        f"cells ({i},{j}) and ({j},{i}) are not converses"
                    )

    @property
    def n(self) -> int:
        return len(self.labels)

    @classmethod
    def unconstrained(cls, labels: Iterable[str]) -> "SyncMatrix":
        labels = tuple(labels)
        n = len(labels)
        return cls(labels, tuple(tuple(Rel.ANY for _ in range(n)) for _ in range(n)))

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
        if len(set(labels)) != n or n < 1:
            raise ValidationError("event labels must be distinct and nonempty")
        grid = [[Rel.ANY] * n for _ in range(n)]
        for i, j, rel in entries:
            if not (0 <= i < n and 0 <= j < n):
                raise ValidationError(f"event index ({i},{j}) out of range for {n} events")
            if i == j:
                raise ValidationError(f"event {labels[i]!r} cannot constrain itself")
            if not isinstance(rel, Rel):
                raise ValidationError(f"entry relation {rel!r} is not a relation")
            grid[i][j] &= rel
            grid[j][i] &= rel.converse()
        return cls(labels, tuple(tuple(row) for row in grid))

    def index_of(self, name: str) -> int:
        try:
            return self.labels.index(name)
        except ValueError:
            raise ValidationError(f"unknown event {name!r}") from None

    def cell(self, i: int, j: int) -> Rel:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValidationError(f"cell ({i},{j}) out of range for {self.n} events")
        return self.cells[i][j]

    def _check_peer(self, other: "SyncMatrix") -> None:
        if self.labels != other.labels:
            raise ValidationError("matrix operands must share the same event labels")

    def union(self, other: "SyncMatrix") -> "SyncMatrix":
        """Cell-wise union; the invariants survive because converse distributes."""
        self._check_peer(other)
        return SyncMatrix(
            self.labels,
            tuple(
                tuple(a | b for a, b in zip(ra, rb))
                for ra, rb in zip(self.cells, other.cells)
            ),
        )

    def intersect(self, other: "SyncMatrix") -> "SyncMatrix":
        self._check_peer(other)
        return SyncMatrix(
            self.labels,
            tuple(
                tuple(a & b for a, b in zip(ra, rb))
                for ra, rb in zip(self.cells, other.cells)
            ),
        )

    __or__ = union
    __and__ = intersect

    def converse(self) -> "SyncMatrix":
        """Cell-wise converse; by antisymmetry this equals the transpose."""
        return SyncMatrix(
            self.labels,
            tuple(tuple(c.converse() for c in row) for row in self.cells),
        )

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
        return SyncMatrix(
            tuple(self.labels[a] for a in order),
            tuple(tuple(self.cells[a][b] for b in order) for a in order),
        )


@dataclass(frozen=True)
class BoundVector:
    """Per-event boundedness, aligned with a matrix's label order."""

    bounds: tuple[Bound, ...]

    def __len__(self) -> int:
        return len(self.bounds)

    def __iter__(self):
        return iter(self.bounds)

    def __getitem__(self, k: int) -> Bound:
        return self.bounds[k]


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
                out.append(SyncMatrix(labels, tuple(tuple(row) for row in grid)))
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
        yield SyncMatrix(labels, tuple(tuple(row) for row in grid))
