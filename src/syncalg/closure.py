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
n**3 times a pass, so ``_propagate`` works on a private grid of plain
ints (the relation codes 0-7) and writes ``Rel`` cells back once at the
end.  Composition and converse become lookups in two tables built from
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

from .algebra import _CONVERSE, ALL_RELS, Bound, Rel
from .errors import ValidationError
from .matrix import SyncMatrix


# Plain-int tables for the kernel: _CONVERSE[r] (from algebra) is r's
# converse, and _THROUGH[a][b] is what x-to-z may be when x-to-y is a and
# z-to-y is b.
_THROUGH = tuple(
    tuple(a.compose(b.converse()).value for b in ALL_RELS) for a in ALL_RELS
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


def _propagate(cells: list[list[Rel]], pair_order: Sequence[tuple[int, int]] | None = None) -> int:
    """Run the fixpoint in place; returns the number of full passes."""
    n = len(cells)
    if pair_order is None:
        pair_order = [(i, j) for i in range(n) for j in range(i + 1, n)]
    grid = [[cell.value for cell in row] for row in cells]
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
    for row, codes in zip(cells, grid):
        row[:] = [ALL_RELS[code] for code in codes]
    return passes


def close(matrix: SyncMatrix) -> ClosureReport:
    """Close the matrix and report implications, bounds, and deadlock."""
    cells = [list(row) for row in matrix.cells]
    n = len(cells)
    iterations = _propagate(cells)
    closed = SyncMatrix(matrix.labels, cells)
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


def boundedness(matrix: SyncMatrix) -> tuple[Bound, ...]:
    """Each event's bound: the intersection of its row off the diagonal.

    Meaningful on a closed matrix, where every implied constraint has
    already landed in the cells; on a raw matrix it reflects only the
    declarations.  For a single event the empty intersection is the full
    relation: unbounded.
    """
    out = []
    for row in matrix.cells:
        # The diagonal cell is ANY, so folding it in changes nothing.
        acc = Rel.ANY.value
        for cell in row:
            acc &= cell.value
        out.append(Bound(ALL_RELS[acc]))
    return tuple(out)


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
