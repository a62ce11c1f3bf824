"""Synchronization matrices over n named events.

A system of pairwise constraints on n events is stored as an n-by-n grid
of relations with two structural invariants baked in: an event never
constrains itself (the diagonal is the full relation) and the cell for
(j, i) is always the converse of the cell for (i, j).  The cells above
the diagonal therefore carry all the information; with p = (n*n - n) / 2
of them and eight relations each there are exactly 8**p distinct
matrices on a fixed label list.

A matrix stores its grid as one ``bytes`` of n*n relation codes (0-7,
the values of :class:`Rel`), row by row; builders, operators, closure and
writers work on those codes, and the ``cells`` grid of ``Rel`` (tuples of
tuples) is built on first read.  Builders conjoin each declaration at
(i, j) only, then meet the grid with its transpose read through the
converse; reordering events gathers the columns in the new order twice.
Element-wise complement destroys the diagonal: it returns a raw grid.

Every matrix, from the constructor or an internal builder, has its codes
checked row by row: each must be below 8, and row i must have the full
relation at i and, mapped through a converse translation table, equal
column i.  Only what failed is searched cell by cell to name the fault.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from operator import and_, itemgetter, or_

from .algebra import _CONVERSE, ALL_RELS, ATOMS, Rel
from .errors import GuardError, ValidationError

__all__ = [
    "ENUMERATION_MAX_EVENTS",
    "LISTING_MAX_EVENTS",
    "RelGrid",
    "SyncMatrix",
    "atom_matrices",
    "default_labels",
    "enumerate_matrices",
    "matrix_count",
]

RelGrid = tuple[tuple[Rel, ...], ...]

# The eight relation codes, and the converse map as a bytes.translate
# table (which must have 256 entries; a grid with a code from 8 up is
# rejected before the table is read).
_CODES = bytes(range(8))
_CONVERSE_BYTES = bytes(_CONVERSE) + bytes(range(8, 256))

# Full enumeration above four events would mean 8**10 and more matrices.
ENUMERATION_MAX_EVENTS = 4

# The count and the atom list grow with n too: at 32 events the count
# has 448 digits and the atoms are 1488 grids of 1024 cells each.
LISTING_MAX_EVENTS = 32


def default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"e{k + 1}" for k in range(n))


def _gather(seq, keys) -> tuple:
    """``tuple(seq[k] for k in keys)`` in one C-level call."""
    if len(keys) < 2:  # itemgetter takes a key and returns a bare item for one
        return tuple(seq[k] for k in keys)
    return itemgetter(*keys)(seq)


def _columns(codes: bytes, n: int, order: Iterable[int]) -> bytes:
    """Columns ``order`` of a row-major n-by-n code grid, each as one row."""
    return b"".join([codes[k::n] for k in order])


class SyncMatrix:
    """Pairwise relation grid plus the event names indexing it.

    Labels may be any sequence of strings but a bare ``str``, and rows
    any sequences: the constructor stores the labels as a tuple and the
    cells as relation codes, and checks the invariants.  A matrix is
    immutable and compares and hashes by value; pickling and copying go
    back through the constructor.
    """

    __slots__ = ("labels", "_codes", "_cells")
    __match_args__ = ("labels", "cells")
    labels: tuple[str, ...]

    def __new__(cls, labels: Iterable[str], cells: Iterable[Iterable[Rel]]):
        labels = _checked_labels(labels)
        n = len(labels)
        try:
            cells = tuple(map(tuple, cells))
        except TypeError:
            raise ValidationError(f"cell grid must be {n}x{n}") from None
        if len(cells) != n or any(len(row) != n for row in cells):
            raise ValidationError(f"cell grid must be {n}x{n}")
        for c in itertools.chain.from_iterable(cells):
            if type(c) is not Rel or not 0 <= c < 8:  # IntFlag keeps unknown bits: Rel(8) is a Rel
                raise ValidationError(f"cell {c!r} is not a relation")
        return cls._from_codes(labels, b"".join(map(bytes, cells)))

    @classmethod
    def _from_codes(cls, labels: Iterable[str], codes: bytes) -> "SyncMatrix":
        """Build from n*n row-major relation codes, with the constructor's checks."""
        labels = _checked_labels(labels)
        _check_codes(codes, len(labels))
        self = object.__new__(cls)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_codes", bytes(codes))
        object.__setattr__(self, "_cells", None)
        return self

    @property
    def cells(self) -> RelGrid:
        """The grid as tuples of ``Rel``, built on first read."""
        if self._cells is None:
            object.__setattr__(self, "_cells", tuple(_gather(ALL_RELS, row) for row in self._code_rows()))
        return self._cells

    def _code_rows(self) -> list[bytes]:
        n, codes = len(self.labels), self._codes
        return [codes[k : k + n] for k in range(0, n * n, n)]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.labels, self._codes) == (other.labels, other._codes)

    def __hash__(self):
        return hash((self.labels, self._codes))

    def __repr__(self):
        return f"SyncMatrix(labels={self.labels!r}, cells={self.cells!r})"

    def __reduce__(self):
        return self.__class__, (self.labels, self.cells)

    @property
    def n(self) -> int:
        return len(self.labels)

    @classmethod
    def unconstrained(cls, labels: Iterable[str]) -> "SyncMatrix":
        return cls.from_entries(labels, ())

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
        labels = _checked_labels(labels)
        n = len(labels)
        grid = bytearray(b"\x07") * (n * n)  # Rel.ANY
        try:
            entries = iter(entries)
        except TypeError:
            raise ValidationError(f"malformed entry list {entries!r}") from None
        for entry in entries:
            try:
                i, j, rel = entry
            except (TypeError, ValueError):
                raise ValidationError(f"malformed entry {entry!r}") from None
            _check_pair("event index", i, j, n)
            if i == j:
                raise ValidationError(f"event {labels[i]!r} cannot constrain itself")
            if not isinstance(rel, Rel) or rel not in ALL_RELS:
                raise ValidationError(f"entry relation {rel!r} is not a relation")
            grid[i * n + j] &= rel.value
        return cls._from_declared(labels, grid)

    @classmethod
    def _from_declared(cls, labels: tuple[str, ...], grid: bytearray) -> "SyncMatrix":
        """Build from codes declared at (i, j) only, meeting them with their converse at (j, i)."""
        n, size = len(labels), len(grid)
        mirror = _columns(grid, n, range(n)).translate(_CONVERSE_BYTES)
        met = int.from_bytes(grid, "little") & int.from_bytes(mirror, "little")
        return cls._from_codes(labels, met.to_bytes(size, "little"))

    def index_of(self, name: str) -> int:
        try:
            return self.labels.index(name)
        except ValueError:
            raise ValidationError(f"unknown event {name!r}") from None

    def cell(self, i: int, j: int) -> Rel:
        n = self.n
        _check_pair("cell", i, j, n)
        return ALL_RELS[self._codes[i * n + j]]

    def union(self, other: "SyncMatrix") -> "SyncMatrix":
        """Cell-wise union; the invariants survive because converse distributes."""
        return self._cellwise(or_, other)

    def intersect(self, other: "SyncMatrix") -> "SyncMatrix":
        return self._cellwise(and_, other)

    def _cellwise(self, op, other: "SyncMatrix") -> "SyncMatrix":
        if not isinstance(other, SyncMatrix):
            raise TypeError(f"matrix operand must be a SyncMatrix, not {type(other).__name__}")
        if self.labels != other.labels:
            raise ValidationError("matrix operands must share the same event labels")
        # One bitwise op on the grids read as ints is the op on every cell.
        size = len(self._codes)
        a, b = (int.from_bytes(m._codes, "little") for m in (self, other))
        return SyncMatrix._from_codes(self.labels, op(a, b).to_bytes(size, "little"))

    __or__ = union
    __and__ = intersect

    def converse(self) -> "SyncMatrix":
        """Cell-wise converse, which by converse antisymmetry is the transpose."""
        return SyncMatrix._from_codes(self.labels, _columns(self._codes, self.n, range(self.n)))

    def complement_cells(self) -> RelGrid:
        """Cell-wise complement, as a raw grid: the diagonal becomes NEVER."""
        return tuple(tuple(map(Rel.complement, row)) for row in self.cells)

    def swap_events(self, i: int, j: int) -> "SyncMatrix":
        """Exchange two events: labels, rows, and columns move together."""
        _check_pair("event pair", i, j, self.n)
        order = list(range(self.n))
        order[i], order[j] = j, i
        return self._reordered(order)

    def _reordered(self, order: list[int]) -> "SyncMatrix":
        """Event order[k] becomes event k; a column gather transposes, so two move both."""
        n = self.n
        codes = _columns(_columns(self._codes, n, order), n, order)
        return SyncMatrix._from_codes(_gather(self.labels, order), codes)


def _checked_labels(labels: Iterable[str]) -> tuple[str, ...]:
    """The labels as a tuple of distinct strings, at least one; a bare ``str`` is not a label list."""
    if isinstance(labels, str):
        raise ValidationError("event labels must be a sequence of strings")
    try:
        labels = tuple(labels)
    except TypeError:
        raise ValidationError("event labels must be a sequence of strings") from None
    if not all(isinstance(name, str) for name in labels):
        raise ValidationError("event labels must be a sequence of strings")
    if not labels:
        raise ValidationError("a matrix needs at least one event")
    if len(set(labels)) != len(labels):
        raise ValidationError("event labels must be distinct")
    return labels


def _check_pair(what: str, i, j, n: int) -> None:
    """Raise unless i and j are integer event indices below n."""
    if not (isinstance(i, int) and isinstance(j, int)):
        raise ValidationError(f"{what} ({i!r},{j!r}) must be integers")
    if not (0 <= i < n and 0 <= j < n):
        raise ValidationError(f"{what} ({i},{j}) out of range for {n} events")


def _check_codes(codes: bytes, n: int) -> None:
    """Check a row-major code grid's invariants; raises on the first fault.

    Faults are reported in scan order: any code that is not a relation
    first, then row by row the diagonal cell followed by that row's
    converse pairs.
    """
    if len(codes) != n * n:
        raise ValidationError(f"cell grid must be {n}x{n}")
    if bad := codes.translate(None, _CODES):  # the codes from 8 up, in grid order
        raise ValidationError(f"cell {Rel(bad[0])!r} is not a relation")
    for i in range(n):
        row = codes[i * n : i * n + n]
        if row[i] != Rel.ANY:
            raise ValidationError("diagonal cells must be the full relation")
        if row.translate(_CONVERSE_BYTES) != codes[i::n]:
            # A mismatch left of the diagonal would have failed at row j < i.
            j = next(j for j in range(i + 1, n) if codes[j * n + i] != _CONVERSE[row[j]])
            raise ValidationError(f"cells ({i},{j}) and ({j},{i}) are not converses")


def _check_count(n) -> None:
    if not isinstance(n, int):
        raise ValidationError(f"event count {n!r} is not an integer")


def matrix_count(n: int) -> int:
    """Number of distinct matrices on n events: 8 ** ((n*n - n) / 2)."""
    _check_count(n)
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
    _check_count(n)
    if n < 2:
        raise ValidationError("atoms need at least two events")
    if n > LISTING_MAX_EVENTS:
        raise GuardError(f"atom listing is limited to {LISTING_MAX_EVENTS} events")
    labels = default_labels(n)
    empty = bytes(0 if k % n > k // n else 7 for k in range(n * n))  # NEVER above the diagonal, ANY below
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for atom in ATOMS:
                grid = bytearray(empty)
                grid[i * n + j] = atom
                out.append(SyncMatrix._from_declared(labels, grid))
    return out


def enumerate_matrices(n: int) -> Iterator[SyncMatrix]:
    """Yield every matrix on n events, in a fixed row-major cell order.

    Guarded to small n: the count grows as 8 ** ((n*n - n) / 2), which is
    already 8**10 at five events.
    """
    _check_count(n)
    if not (2 <= n <= ENUMERATION_MAX_EVENTS):
        raise ValidationError(
            f"full enumeration is limited to 2..{ENUMERATION_MAX_EVENTS} events"
        )
    return _enumerate(n)


def _enumerate(n: int) -> Iterator[SyncMatrix]:
    labels = default_labels(n)
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for combo in itertools.product(ALL_RELS, repeat=len(slots)):
        yield SyncMatrix.from_entries(labels, [(i, j, rel) for (i, j), rel in zip(slots, combo)])
