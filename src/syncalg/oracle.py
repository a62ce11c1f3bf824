"""Brute-force ground truth for the relation algebra and for closure.

Everything here trades speed for obviousness.  A relation becomes a
literal set of ordered integer pairs over a small finite domain, the
algebra's operators become set operations, and a constraint system is
checked by enumerating every assignment of times to events.  None of it
shares code with the fast paths in :mod:`syncalg.algebra` and
:mod:`syncalg.closure`, which is the point: agreement between the two is
evidence, not tautology.

Domain sizes matter.  Two points suffice for the Boolean operators and
converse to be faithful; composition needs three so that strict chains
like x < y < z fit; and deciding an n-event system needs n + 1 so that
any consistent mix of strict orders and ties fits inside the domain.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Sequence

from .algebra import Rel
from .errors import GuardError, ValidationError
from .matrix import RelGrid, SyncMatrix

__all__ = ["DEFAULT_ASSIGNMENT_CEILING", "PairSet", "atom_of", "minimal_network", "pairs_of", "satisfies"]

DEFAULT_ASSIGNMENT_CEILING = 10_000_000


def atom_of(x: int, y: int) -> Rel:
    """The atomic relation realized by the concrete times x and y."""
    if x < y:
        return Rel.LT
    if x == y:
        return Rel.EQ
    return Rel.GT


class PairSet(namedtuple("PairSet", "domain_size pairs")):
    """A relation extensionally: the ordered pairs it admits over 0..d-1."""

    __slots__ = ()

    def __new__(cls, domain_size: int, pairs: frozenset[tuple[int, int]]):
        if domain_size < 2:
            raise ValidationError("pair-set domain needs at least two points")
        for x, y in pairs:
            if not (0 <= x < domain_size and 0 <= y < domain_size):
                raise ValidationError(f"pair {(x, y)} outside domain 0..{domain_size - 1}")
        return super().__new__(cls, domain_size, pairs)

    def _check_peer(self, other: "PairSet") -> None:
        if self.domain_size != other.domain_size:
            raise ValidationError("pair-set operands live over different domains")

    def union(self, other: "PairSet") -> "PairSet":
        self._check_peer(other)
        return PairSet(self.domain_size, self.pairs | other.pairs)

    def intersect(self, other: "PairSet") -> "PairSet":
        self._check_peer(other)
        return PairSet(self.domain_size, self.pairs & other.pairs)

    def complement(self) -> "PairSet":
        d = self.domain_size
        universe = {(x, y) for x in range(d) for y in range(d)}
        return PairSet(d, frozenset(universe - self.pairs))

    def converse(self) -> "PairSet":
        return PairSet(self.domain_size, frozenset((y, x) for x, y in self.pairs))

    def compose(self, other: "PairSet") -> "PairSet":
        """Relational join: (x, z) admitted when some y links x to z."""
        self._check_peer(other)
        by_left: dict[int, list[int]] = {}
        for y, z in other.pairs:
            by_left.setdefault(y, []).append(z)
        joined = {
            (x, z)
            for x, y in self.pairs
            for z in by_left.get(y, ())
        }
        return PairSet(self.domain_size, frozenset(joined))

    def atom_profile(self) -> Rel:
        """Union of the atomic relations realized by the admitted pairs."""
        out = Rel.NEVER
        for x, y in self.pairs:
            out |= atom_of(x, y)
        return out


def pairs_of(rel: Rel, domain_size: int) -> PairSet:
    """The extension of ``rel`` over the domain 0..domain_size-1."""
    d = domain_size
    admitted = {
        (x, y)
        for x in range(d)
        for y in range(d)
        if rel.contains(atom_of(x, y))
    }
    return PairSet(d, frozenset(admitted))


def satisfies(matrix: SyncMatrix, times: Sequence[int]) -> bool:
    """True when the concrete times meet every cell of the matrix."""
    if len(times) != matrix.n:
        raise ValidationError(
            f"assignment has {len(times)} times for {matrix.n} events"
        )
    for i in range(matrix.n):
        for j in range(i + 1, matrix.n):
            if not matrix.cells[i][j].contains(atom_of(times[i], times[j])):
                return False
    return True


def minimal_network(
    matrix: SyncMatrix,
    domain_size: int | None = None,
    ceiling: int = DEFAULT_ASSIGNMENT_CEILING,
) -> tuple[RelGrid, bool]:
    """Exact per-pair relations by exhausting every time assignment.

    For each pair (i, j) the result cell is the union of the atomic
    relations realized at (i, j) across all satisfying assignments, which
    is NEVER everywhere off the diagonal exactly when the system is
    unsatisfiable.  The second element reports satisfiability.

    The domain defaults to n + 1 points and may be set larger; fewer than
    n + 1 points could miss assignments where all events differ plus a
    tie pattern, so smaller domains are rejected.  The search walks
    domain_size ** n assignments and refuses to start past ``ceiling``.
    """
    n = matrix.n
    d = (n + 1) if domain_size is None else domain_size
    if d < n + 1:
        raise ValidationError(f"domain of {d} points cannot decide {n} events; need {n + 1}")
    total = d ** n
    if total > ceiling:
        raise GuardError(
            f"{total} assignments exceed the ceiling of {ceiling}"
        )

    above = [
        (i, j, matrix.cells[i][j].value)
        for i in range(n)
        for j in range(i + 1, n)
    ]
    realized = [[0] * n for _ in range(n)]
    found_any = False
    for times in itertools.product(range(d), repeat=n):
        atoms = []
        ok = True
        for i, j, allowed in above:
            a, b = times[i], times[j]
            atom = 1 if a < b else (2 if a == b else 4)
            if not atom & allowed:
                ok = False
                break
            atoms.append(atom)
        if not ok:
            continue
        found_any = True
        for (i, j, _allowed), atom in zip(above, atoms):
            realized[i][j] |= atom
    for i, j, _allowed in above:
        v = realized[i][j]
        realized[j][i] = (v & 2) | ((v & 1) << 2) | ((v & 4) >> 2)
    if found_any:
        for i in range(n):
            realized[i][i] = 2
    grid = tuple(tuple(Rel(v) for v in row) for row in realized)
    return grid, found_any
