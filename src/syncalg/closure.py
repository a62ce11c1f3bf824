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

This is path consistency (Mackworth 1977): a pass meets each pair
(i, j) through every middle event k.  ``_propagate`` narrows a grid of
relation codes (0-7) in place and fixes its own order, pairs i < j row
by row, since reports print the pass count.  ``close`` reads the
implied cells and deadlock pairs off it and builds the closed matrix
once.  The kernel packs each row into an int, one byte per cell, so
one ``bytes.translate`` through ``_THROUGH_BYTES`` (``compose(a,
converse(b))`` at byte a * 8 + b) meets row i against row j for every
k at once, and three masked compares intersect the results.  The
k == i and k == j bytes meet the diagonal ``any``, which narrows
nothing.  Two exact skips replace scans: a pair at ``never`` cannot
narrow, and a pair whose row i or j holds a ``never`` becomes
``never``, since composing with ``never`` gives ``never``.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from operator import and_

from .algebra import _COMPOSE, _CONVERSE, ALL_RELS, Bound
from .errors import ValidationError
from .matrix import SyncMatrix

__all__ = ["ClosureReport", "ImpliedChange", "boundedness", "close", "equivalent"]


# The kernel's bytes.translate table: byte a * 8 + b maps to what x-to-z may
# be when x-to-y is a and z-to-y is b, compose(a, converse(b)) on int codes.
# Bytes 64-255 never occur in a scan.
_THROUGH_BYTES = bytes(_COMPOSE[code >> 3][_CONVERSE[code & 7]] for code in range(64)).ljust(256, b"\0")
# A named tuple without its Python-level __new__ frame, as _make builds it.
_tuple_new = tuple.__new__


ImpliedChange = namedtuple("ImpliedChange", "i j before after")
ImpliedChange.__doc__ = """One cell the closure shrank: (i, j) with its before and after ``Rel``."""

ClosureReport = namedtuple("ClosureReport", "closed bounds deadlocked deadlock_pairs implied iterations")
ClosureReport.__doc__ = """Everything the closure of one matrix reveals.

``closed`` is the closed ``SyncMatrix`` and ``bounds`` a tuple of
``Bound``, one per event.  ``deadlock_pairs`` (index pairs) and
``implied`` (``ImpliedChange`` records) list above-diagonal positions
only, since the mirror cells carry the same information.
``iterations`` counts full sweeps including the final one that
verified the fixpoint.
"""


def _propagate(grid: list[list[int]]) -> int:
    """Narrow the grid of relation codes in place; returns the number of full passes."""
    n = len(grid)
    # Row i packed with cell k in byte k, so byte k of low[i] << 3 | low[j] is a * 8 + b.
    low = [int.from_bytes(bytes(row), "little") for row in grid]
    lt = int.from_bytes(b"\x01" * n, "little")  # each byte's LT, EQ and GT bits
    eq, gt = lt << 1, lt << 2
    dead = {i for i, row in enumerate(grid) if not all(row)}  # rows holding a never
    table, converse_of = _THROUGH_BYTES, _CONVERSE
    passes = 0
    changed = True
    while changed:
        changed = False
        passes += 1
        for i, row_i in enumerate(grid):
            high = low[i] << 3  # j > i, so row i alone is ever the shifted operand
            for j in range(i + 1, n):
                cell = row_i[j]
                if not cell:
                    continue
                if i in dead or j in dead:
                    through = 0
                else:
                    met = (high | low[j]).to_bytes(n, "little").translate(table)
                    met = int.from_bytes(met, "little")  # byte k: _THROUGH_BYTES[grid[i][k] * 8 + grid[j][k]]
                    through = cell & ((met & lt == lt) | (met & eq == eq) << 1 | (met & gt == gt) << 2)
                    if through == cell:
                        continue
                row_j = grid[j]
                back = converse_of[through]
                if through:
                    flip = (cell ^ through) << 8 * j
                    low[i] ^= flip
                    high ^= flip << 3
                    low[j] ^= (row_j[i] ^ back) << 8 * i
                else:  # no scan reads a dead row again, so its packed ints may go stale
                    dead.update((i, j))
                row_i[j] = through
                row_j[i] = back
                changed = True
    return passes


def close(matrix: SyncMatrix) -> ClosureReport:
    """Close the matrix and report implications, bounds, and deadlock."""
    declared = matrix._code_rows()
    grid = [list(row) for row in declared]
    n = len(grid)
    iterations = _propagate(grid)
    closed = SyncMatrix._from_codes(matrix.labels, b"".join(map(bytes, grid)))
    implied = tuple(
        _tuple_new(ImpliedChange, (i, j, ALL_RELS[before[j]], ALL_RELS[after[j]]))
        for i, (before, after) in enumerate(zip(declared, grid))
        for j in range(i + 1, n)
        if after[j] != before[j]
    )
    deadlock_pairs = tuple((i, j) for i, row in enumerate(grid) for j in range(i + 1, n) if not row[j])
    bounds = boundedness(closed)
    return _tuple_new(ClosureReport, (closed, bounds, bool(deadlock_pairs), deadlock_pairs, implied, iterations))


def boundedness(matrix: SyncMatrix) -> tuple[Bound, ...]:
    """Each event's bound: the intersection of its row off the diagonal.

    Meaningful on a closed matrix, where every implied constraint has
    already landed in the cells; on a raw matrix it reflects only the
    declarations.  For a single event the empty intersection is the full
    relation: unbounded.
    """
    # The diagonal cell is ANY, so folding it in changes nothing.
    return tuple(_tuple_new(Bound, (ALL_RELS[reduce(and_, row)],)) for row in matrix._code_rows())


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
