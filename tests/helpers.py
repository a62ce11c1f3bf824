"""Shared builders for the test suite."""

import random

from syncalg.algebra import ALL_RELS, Rel
from syncalg.matrix import SyncMatrix, default_labels


def random_matrix(rng: random.Random, n: int, allowed=ALL_RELS) -> SyncMatrix:
    """A valid matrix with each above-diagonal cell drawn from ``allowed``."""
    grid = [[Rel.ANY] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            cell = rng.choice(allowed)
            grid[i][j] = cell
            grid[j][i] = cell.converse()
    return SyncMatrix(default_labels(n), tuple(tuple(row) for row in grid))


def reference_propagate(cells, pair_order=None):
    """The closure sweep on Rel operators, kept to check the int kernel."""
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
