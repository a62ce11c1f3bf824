"""Tests for transitive closure, boundedness, deadlock, and equivalence."""

import random

import pytest

from syncalg.algebra import Rel
from syncalg.closure import _propagate, boundedness, close, equivalent
from syncalg.errors import ValidationError
from syncalg.format import NeqMode, substitute_neq
from syncalg.matrix import SyncMatrix
from syncalg.oracle import minimal_network

from helpers import random_matrix


def chain(*rels):
    labels = tuple(f"e{k + 1}" for k in range(len(rels) + 1))
    entries = [(k, k + 1, rel) for k, rel in enumerate(rels)]
    return SyncMatrix.from_entries(labels, entries)


def test_strict_chain_implies_the_shortcut():
    report = close(chain(Rel.GT, Rel.GT))
    assert report.closed.cells[0][2] == Rel.GT
    assert not report.deadlocked
    assert [(c.i, c.j, c.after) for c in report.implied] == [(0, 2, Rel.GT)]
    assert report.implied[0].before == Rel.ANY


def test_unconstrained_matrix_is_a_fixed_point():
    m = SyncMatrix.unconstrained(("a", "b", "c", "d"))
    report = close(m)
    assert report.closed == m
    assert report.implied == ()
    assert not report.deadlocked
    assert report.iterations == 1


def test_three_cycle_deadlocks_and_infects_everything():
    m = SyncMatrix.from_entries(
        ("a", "b", "c"),
        [(0, 1, Rel.GT), (1, 2, Rel.GT), (2, 0, Rel.GT)],
    )
    report = close(m)
    assert report.deadlocked
    assert report.deadlock_pairs == ((0, 1), (0, 2), (1, 2))
    for i in range(3):
        for j in range(3):
            if i != j:
                assert report.closed.cells[i][j] == Rel.NEVER


def test_equality_chain_transmits_slack():
    report = close(chain(Rel.EQ, Rel.LE))
    assert report.closed.cells[0][2] == Rel.LE


def test_exclusion_transmits_nothing_under_keep():
    report = close(chain(Rel.NE, Rel.NE))
    assert report.closed.cells[0][2] == Rel.ANY
    assert not report.deadlocked


def test_closure_is_idempotent_on_samples():
    rng = random.Random(3)
    for _ in range(60):
        m = random_matrix(rng, 4)
        closed = close(m).closed
        again = close(closed)
        assert again.closed == closed
        assert again.implied == ()


def test_iteration_count_and_bound():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randrange(2, 6)
        m = random_matrix(rng, n)
        report = close(m)
        assert 1 <= report.iterations <= 3 * n * n + 1


def test_fixpoint_is_sweep_order_independent():
    rng = random.Random(9)
    for _ in range(40):
        m = random_matrix(rng, 4)
        reference = [list(row) for row in m.cells]
        _propagate(reference)
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        rng.shuffle(pairs)
        shuffled = [list(row) for row in m.cells]
        _propagate(shuffled, pairs)
        assert shuffled == reference


def test_deadlock_agrees_with_exhaustive_search():
    rng = random.Random(13)
    for _ in range(50):
        m = random_matrix(rng, 4)
        report = close(m)
        _grid, sat = minimal_network(m)
        assert report.deadlocked == (not sat)


def test_boundedness_two_event_case():
    m = SyncMatrix.from_entries(("e1", "e2"), [(0, 1, Rel.GT)])
    bounds = boundedness(m)
    assert bounds[0].value == Rel.GT
    assert bounds[1].value == Rel.LT
    assert bounds[0].bounded_below and not bounds[0].bounded_above
    assert bounds[1].bounded_above and not bounds[1].bounded_below


def test_boundedness_is_the_row_intersection():
    m = SyncMatrix.from_entries(("a", "b", "c"), [(0, 1, Rel.EQ), (0, 2, Rel.LE)])
    bounds = boundedness(m)
    assert bounds[0].value == Rel.EQ


def test_boundedness_unconstrained_and_single():
    assert all(
        b.value == Rel.ANY for b in boundedness(SyncMatrix.unconstrained(("a", "b")))
    )
    assert boundedness(SyncMatrix(("solo",), ((Rel.ANY,),)))[0].value == Rel.ANY


def test_middle_of_a_chain_is_bounded_both_ways():
    report = close(chain(Rel.GT, Rel.GT))
    middle = report.bounds[1]
    assert middle.value == Rel.NEVER
    assert middle.bounded_below and middle.bounded_above
    assert not middle.boundary_included


def test_substitute_neq():
    entries = [(0, 1, Rel.NE), (1, 2, Rel.LE), (2, 0, Rel.NE)]
    assert substitute_neq(entries, NeqMode.KEEP) == entries
    assert substitute_neq(entries, NeqMode.AS_LT) == [
        (0, 1, Rel.LT),
        (1, 2, Rel.LE),
        (2, 0, Rel.LT),
    ]
    assert substitute_neq(entries, NeqMode.AS_GT)[0] == (0, 1, Rel.GT)
    # Composite cells that merely contain both strict atoms are not rewritten.
    assert substitute_neq([(0, 1, Rel.ANY)], NeqMode.AS_LT) == [(0, 1, Rel.ANY)]


def test_exclusion_cycle_depends_on_declaration_direction():
    labels = ("a", "b", "c")
    declared = [(0, 1, Rel.NE), (1, 2, Rel.NE), (2, 0, Rel.NE)]
    keep = SyncMatrix.from_entries(labels, substitute_neq(declared, NeqMode.KEEP))
    assert not close(keep).deadlocked
    as_lt = SyncMatrix.from_entries(labels, substitute_neq(declared, NeqMode.AS_LT))
    assert close(as_lt).deadlocked
    as_gt = SyncMatrix.from_entries(labels, substitute_neq(declared, NeqMode.AS_GT))
    assert close(as_gt).deadlocked


def test_equivalent_ignores_redundant_constraints():
    p = SyncMatrix.from_entries(("a", "b", "c"), [(0, 1, Rel.GT), (1, 2, Rel.GT)])
    q = SyncMatrix.from_entries(
        ("a", "b", "c"),
        [(0, 1, Rel.GT), (1, 2, Rel.GT), (0, 2, Rel.GT)],
    )
    assert equivalent(p, q)


def test_equivalent_handles_reordered_labels():
    p = SyncMatrix.from_entries(("a", "b", "c"), [(0, 1, Rel.LT), (1, 2, Rel.LT)])
    q = SyncMatrix.from_entries(("c", "a", "b"), [(1, 2, Rel.LT), (2, 0, Rel.LT)])
    assert equivalent(p, q)


def test_equivalent_detects_difference():
    p = SyncMatrix.from_entries(("a", "b"), [(0, 1, Rel.LT)])
    q = SyncMatrix.from_entries(("a", "b"), [(0, 1, Rel.LE)])
    assert not equivalent(p, q)


def test_equivalent_requires_same_event_set():
    p = SyncMatrix.unconstrained(("a", "b"))
    q = SyncMatrix.unconstrained(("a", "c"))
    with pytest.raises(ValidationError):
        equivalent(p, q)


def test_closure_commutes_with_eventswap_spot_check():
    rng = random.Random(17)
    for _ in range(30):
        m = random_matrix(rng, 4)
        i, j = rng.randrange(4), rng.randrange(4)
        assert close(m.swap_events(i, j)).closed == close(m).closed.swap_events(i, j)
