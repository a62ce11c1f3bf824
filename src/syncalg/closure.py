"""Transitive closure of a synchronization matrix.

Declared constraints imply constraints nobody wrote down: a > b and
b > c force a > c.  Closure conjoins every cell with everything the
other events transmit to it, over and over, until the grid stops
changing.  The result exposes three things the raw declarations hide:

* the implied synchronizations (cells that shrank);
* each event's boundedness, read off the closed rows;
* deadlock, an empty cell, meaning no assignment of times can satisfy
  the declarations at all.

The fixpoint does not depend on the sweep order, and the pass count is
small: each of the (n*n - n) / 2 independent cells can only shrink, a
shrink removes at least one of three atoms, and a full pass with no
change ends the loop, so 3 * (n*n - n) / 2 + 1 passes bound the worst
case, comfortably under 3 * n**2 + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .algebra import Bound, Rel
from .errors import ValidationError
from .matrix import BoundVector, SyncMatrix


class ImpliedChange(NamedTuple):
    """One cell the closure shrank: (i, j) with its before and after."""

    i: int
    j: int
    before: Rel
    after: Rel


@dataclass(frozen=True)
class ClosureReport:
    """Everything the closure of one matrix reveals.

    ``deadlock_pairs`` and ``implied`` list above-diagonal positions
    only, since the mirror cells carry the same information.
    ``iterations`` counts full sweeps including the final one that
    verified the fixpoint.
    """

    closed: SyncMatrix
    bounds: BoundVector
    deadlocked: bool
    deadlock_pairs: tuple[tuple[int, int], ...]
    implied: tuple[ImpliedChange, ...]
    iterations: int


def _propagate(cells: list[list[Rel]], pair_order: Sequence[tuple[int, int]] | None = None) -> int:
    """Run the fixpoint in place; returns the number of full passes."""
    n = len(cells)
    if pair_order is None:
        pair_order = [(i, j) for i in range(n) for j in range(i + 1, n)]
    passes = 0
    changed = True
    while changed:
        changed = False
        passes += 1
        for i, j in pair_order:
            through = Rel.ANY
            for k in range(n):
                if k != i and k != j:
                    through &= cells[i][k].compose(cells[k][j])
            narrowed = cells[i][j] & through
            if narrowed != cells[i][j]:
                cells[i][j] = narrowed
                cells[j][i] = narrowed.converse()
                changed = True
    return passes


def close(matrix: SyncMatrix) -> ClosureReport:
    """Close the matrix and report implications, bounds, and deadlock."""
    cells = [list(row) for row in matrix.cells]
    n = len(cells)
    iterations = _propagate(cells)
    closed = SyncMatrix(matrix.labels, tuple(tuple(row) for row in cells))
    implied = tuple(
        ImpliedChange(i, j, matrix.cells[i][j], closed.cells[i][j])
        for i in range(n)
        for j in range(i + 1, n)
        if closed.cells[i][j] != matrix.cells[i][j]
    )
    deadlock_pairs = tuple(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if closed.cells[i][j] == Rel.NEVER
    )
    return ClosureReport(
        closed=closed,
        bounds=boundedness(closed),
        deadlocked=bool(deadlock_pairs),
        deadlock_pairs=deadlock_pairs,
        implied=implied,
        iterations=iterations,
    )


def boundedness(matrix: SyncMatrix) -> BoundVector:
    """Each event's bound: the intersection of its row off the diagonal.

    Meaningful on a closed matrix, where every implied constraint has
    already landed in the cells; on a raw matrix it reflects only the
    declarations.  For a single event the empty intersection is the full
    relation: unbounded.
    """
    out = []
    for i in range(matrix.n):
        acc = Rel.ANY
        for j in range(matrix.n):
            if j != i:
                acc &= matrix.cells[i][j]
        out.append(Bound(acc))
    return BoundVector(tuple(out))


def equivalent(p: SyncMatrix, q: SyncMatrix) -> bool:
    """True when the two systems imply the same synchronizations.

    The matrices must mention the same events; their order may differ,
    and q is realigned to p's order by event swaps before comparing the
    closures.
    """
    if sorted(p.labels) != sorted(q.labels):
        raise ValidationError("matrices constrain different event sets")
    aligned = q
    for i, name in enumerate(p.labels):
        j = aligned.labels.index(name)
        if j != i:
            aligned = aligned.swap_events(i, j)
    return close(p).closed == close(aligned).closed
