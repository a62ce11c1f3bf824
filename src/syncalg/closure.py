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

This is path consistency (Mackworth 1977), and its inner loop runs
n**3 times a pass, so ``_propagate`` narrows a grid of plain ints (the
relation codes 0-7) in place, and ``close`` reads the implied cells and
deadlock pairs off that grid and builds the closed matrix from it once.
Composition and converse become lookups in two tables built from
the ``Rel`` operators at import: ``_THROUGH[a][b]`` is
``compose(a, converse(b))``, so the pair (i, j) meets row i against row
j cell by cell, and ``_CONVERSE`` mirrors a narrowed cell.  The scan
starts from the cell itself and stops once the intersection reaches
``never``, below which nothing can narrow.  It keeps the middle events
k == i and k == j: there one side is the diagonal ``any``, and
composing ``any`` with a relation other than ``never`` gives ``any``,
which narrows nothing; with ``never`` the cell is already empty.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from functools import reduce
from operator import and_

from .algebra import _CONVERSE, ALL_RELS, Bound
from .errors import ValidationError
from .matrix import SyncMatrix

__all__ = ["ClosureReport", "ImpliedChange", "boundedness", "close", "equivalent"]


# Plain-int tables for the kernel: _CONVERSE[r] (from algebra) is r's
# converse, and _THROUGH[a][b] is what x-to-z may be when x-to-y is a and
# z-to-y is b.
_THROUGH = tuple(
    tuple(int(a.compose(b.converse())) for b in ALL_RELS) for a in ALL_RELS
)


class ImpliedChange(namedtuple("ImpliedChange", "i j before after")):
    """One cell the closure shrank: (i, j) with its before and after ``Rel``."""

    __slots__ = ()


class ClosureReport(
    namedtuple(
        "ClosureReport",
        "closed bounds deadlocked deadlock_pairs implied iterations",
    )
):
    """Everything the closure of one matrix reveals.

    ``closed`` is the closed ``SyncMatrix`` and ``bounds`` a tuple of
    ``Bound``, one per event.  ``deadlock_pairs`` (index pairs) and
    ``implied`` (``ImpliedChange`` records) list above-diagonal positions
    only, since the mirror cells carry the same information.
    ``iterations`` counts full sweeps including the final one that
    verified the fixpoint.
    """

    __slots__ = ()


def _propagate(grid: list[list[int]], pair_order: Sequence[tuple[int, int]]) -> int:
    """Narrow the grid of relation codes in place; returns the number of full passes."""
    through_of, converse_of = _THROUGH, _CONVERSE  # locals: read n**3 times per pass
    passes = 0
    changed = True
    while changed:
        changed = False
        passes += 1
        for i, j in pair_order:
            cell = grid[i][j]
            through = cell
            for a, b in zip(grid[i], grid[j]):
                through &= through_of[a][b]
                if not through:
                    break
            if through != cell:
                grid[i][j] = through
                grid[j][i] = converse_of[through]
                changed = True
    return passes


def close(matrix: SyncMatrix) -> ClosureReport:
    """Close the matrix and report implications, bounds, and deadlock."""
    declared = [bytes(row) for row in matrix.cells]
    grid = [list(row) for row in declared]
    n = len(grid)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    iterations = _propagate(grid, pairs)
    closed = SyncMatrix(matrix.labels, [map(ALL_RELS.__getitem__, row) for row in grid])
    implied = tuple(
        ImpliedChange(i, j, ALL_RELS[declared[i][j]], ALL_RELS[grid[i][j]])
        for i, j in pairs
        if grid[i][j] != declared[i][j]
    )
    deadlock_pairs = tuple((i, j) for i, j in pairs if not grid[i][j])
    return ClosureReport(
        closed=closed,
        bounds=boundedness(closed),
        deadlocked=bool(deadlock_pairs),
        deadlock_pairs=deadlock_pairs,
        implied=implied,
        iterations=iterations,
    )


def boundedness(matrix: SyncMatrix) -> tuple[Bound, ...]:
    """Each event's bound: the intersection of its row off the diagonal.

    Meaningful on a closed matrix, where every implied constraint has
    already landed in the cells; on a raw matrix it reflects only the
    declarations.  For a single event the empty intersection is the full
    relation: unbounded.
    """
    # The diagonal cell is ANY, so folding it in changes nothing.
    return tuple(Bound(ALL_RELS[reduce(and_, bytes(row))]) for row in matrix.cells)


def equivalent(p: SyncMatrix, q: SyncMatrix) -> bool:
    """True when the two systems imply the same synchronizations.

    The matrices must mention the same events; their order may differ,
    and q is realigned to p's order by one permutation before comparing
    the closures.
    """
    if sorted(p.labels) != sorted(q.labels):
        raise ValidationError("matrices constrain different event sets")
    aligned = q._reordered([q.index_of(name) for name in p.labels])
    return close(p).closed == close(aligned).closed
