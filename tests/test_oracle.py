"""Tests of the brute-force pair-set oracle itself.

The oracle is the referee for the fast algebra, so its own behavior gets
checked directly: extensional faithfulness of every operator over small
domains, and exact answers on tiny hand-checkable systems.
"""

import pytest

from syncalg.algebra import ALL_RELS, Rel
from syncalg.errors import GuardError, ValidationError
from syncalg.matrix import SyncMatrix
from syncalg.oracle import PairSet, atom_of, minimal_network, pairs_of, satisfies


def test_atom_of():
    assert atom_of(0, 1) == Rel.LT
    assert atom_of(2, 2) == Rel.EQ
    assert atom_of(3, 1) == Rel.GT


@pytest.mark.parametrize("d", [2, 3, 4])
def test_pairs_of_is_faithful(d):
    for rel in ALL_RELS:
        assert pairs_of(rel, d).atom_profile() == rel


def test_pairs_of_extension_counts():
    ext = pairs_of(Rel.LT, 3)
    assert ext.pairs == {(0, 1), (0, 2), (1, 2)}
    assert len(pairs_of(Rel.ANY, 3).pairs) == 9
    assert pairs_of(Rel.NEVER, 5).pairs == frozenset()


@pytest.mark.parametrize("d", [2, 3])
def test_boolean_operators_are_extensional(d):
    for a in ALL_RELS:
        ea = pairs_of(a, d)
        assert ea.complement() == pairs_of(a.complement(), d)
        assert ea.converse() == pairs_of(a.converse(), d)
        for b in ALL_RELS:
            eb = pairs_of(b, d)
            assert ea.union(eb) == pairs_of(a | b, d)
            assert ea.intersect(eb) == pairs_of(a & b, d)


def test_composition_faithful_at_profile_level():
    # Extensions are not preserved by composition (x < y < z needs room),
    # but the realized atoms are, once the domain holds three values.
    for d in (3, 5):
        for a in ALL_RELS:
            for b in ALL_RELS:
                joined = pairs_of(a, d).compose(pairs_of(b, d))
                assert joined.atom_profile() == a.compose(b), (d, a, b)


def test_domain_too_small_rejected():
    with pytest.raises(ValidationError):
        PairSet(1, frozenset())
    with pytest.raises(ValidationError):
        pairs_of(Rel.ANY, 0)


def test_pairs_outside_domain_rejected():
    with pytest.raises(ValidationError):
        PairSet(2, frozenset({(0, 2)}))


def test_mixed_domain_operands_rejected():
    with pytest.raises(ValidationError):
        pairs_of(Rel.LT, 2).union(pairs_of(Rel.LT, 3))


def test_satisfies():
    m = SyncMatrix.from_entries(("a", "b", "c"), [(0, 1, Rel.LT), (1, 2, Rel.LE)])
    assert satisfies(m, (0, 1, 1))
    assert satisfies(m, (0, 1, 2))
    assert not satisfies(m, (1, 1, 2))
    assert not satisfies(m, (0, 2, 1))
    with pytest.raises(ValidationError):
        satisfies(m, (0, 1))


def test_minimal_network_on_a_strict_chain():
    m = SyncMatrix.from_entries(("a", "b", "c"), [(0, 1, Rel.GT), (1, 2, Rel.GT)])
    grid, sat = minimal_network(m)
    assert sat
    assert grid[0][2] == Rel.GT
    assert grid[2][0] == Rel.LT
    assert grid[0][1] == Rel.GT


def test_minimal_network_tie_then_slack():
    m = SyncMatrix.from_entries(("a", "b", "c"), [(0, 1, Rel.EQ), (1, 2, Rel.LE)])
    grid, sat = minimal_network(m)
    assert sat
    assert grid[0][2] == Rel.LE


def test_minimal_network_unsatisfiable_cycle():
    m = SyncMatrix.from_entries(
        ("a", "b", "c"),
        [(0, 1, Rel.GT), (1, 2, Rel.GT), (2, 0, Rel.GT)],
    )
    grid, sat = minimal_network(m)
    assert not sat
    for i in range(3):
        for j in range(3):
            if i != j:
                assert grid[i][j] == Rel.NEVER


def test_minimal_network_respects_larger_domains():
    m = SyncMatrix.from_entries(("a", "b"), [(0, 1, Rel.LT)])
    for d in (3, 4, 6):
        grid, sat = minimal_network(m, domain_size=d)
        assert sat and grid[0][1] == Rel.LT


def test_minimal_network_domain_floor():
    m = SyncMatrix.unconstrained(("a", "b", "c"))
    with pytest.raises(ValidationError):
        minimal_network(m, domain_size=3)


def test_minimal_network_ceiling_guard():
    m = SyncMatrix.unconstrained(tuple(f"e{k}" for k in range(9)))
    with pytest.raises(GuardError):
        minimal_network(m)
    # A tighter ceiling trips even on small systems.
    small = SyncMatrix.unconstrained(("a", "b"))
    with pytest.raises(GuardError):
        minimal_network(small, ceiling=8)
