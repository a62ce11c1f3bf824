"""Unit tests for synchronization matrices."""

import random

import pytest

from syncalg.algebra import ALL_RELS, Rel
from syncalg.errors import GuardError, ValidationError
from syncalg.matrix import (
    ENUMERATION_MAX_EVENTS,
    LISTING_MAX_EVENTS,
    SyncMatrix,
    atom_matrices,
    default_labels,
    enumerate_matrices,
    matrix_count,
)

from helpers import random_matrix


def test_unconstrained_matrix():
    m = SyncMatrix.unconstrained(("a", "b", "c"))
    assert m.n == 3
    assert all(cell == Rel.ANY for row in m.cells for cell in row)


def test_from_entries_basic():
    m = SyncMatrix.from_entries(("a", "b"), [(0, 1, Rel.LT)])
    assert m.cells[0][1] == Rel.LT
    assert m.cells[1][0] == Rel.GT
    assert m.cells[0][0] == Rel.ANY


def test_from_entries_conjoins_repeats():
    m = SyncMatrix.from_entries(("a", "b"), [(0, 1, Rel.LE), (0, 1, Rel.GE)])
    assert m.cells[0][1] == Rel.EQ
    # Declaring both directions conjoins through the converse.
    m = SyncMatrix.from_entries(("a", "b"), [(0, 1, Rel.LT), (1, 0, Rel.LT)])
    assert m.cells[0][1] == Rel.NEVER


def test_from_entries_rejects_bad_input():
    with pytest.raises(ValidationError):
        SyncMatrix.from_entries(("a", "a"), [])
    with pytest.raises(ValidationError):
        SyncMatrix.from_entries(("a", "b"), [(0, 2, Rel.LT)])
    with pytest.raises(ValidationError):
        SyncMatrix.from_entries(("a", "b"), [(1, 1, Rel.LT)])
    with pytest.raises(ValidationError):
        SyncMatrix.from_entries(("a", "b"), [(0, 1, "<")])


def test_constructor_enforces_unit_diagonal():
    with pytest.raises(ValidationError):
        SyncMatrix(("a", "b"), ((Rel.EQ, Rel.LT), (Rel.GT, Rel.ANY)))


def test_constructor_enforces_converse_antisymmetry():
    with pytest.raises(ValidationError):
        SyncMatrix(("a", "b"), ((Rel.ANY, Rel.LT), (Rel.LT, Rel.ANY)))


def test_constructor_enforces_shape_and_labels():
    with pytest.raises(ValidationError):
        SyncMatrix((), ())
    with pytest.raises(ValidationError):
        SyncMatrix(("a", "b"), ((Rel.ANY,),))
    with pytest.raises(ValidationError):
        SyncMatrix(("a",), ((Rel.ANY, Rel.ANY),))


def test_single_event_matrix_is_legal():
    m = SyncMatrix(("solo",), ((Rel.ANY,),))
    assert m.n == 1


def test_index_of():
    m = SyncMatrix.unconstrained(("x", "y"))
    assert m.index_of("y") == 1
    with pytest.raises(ValidationError):
        m.index_of("z")


def test_cell_accessor_checks_range():
    m = SyncMatrix.unconstrained(("x", "y"))
    assert m.cell(0, 1) == Rel.ANY
    with pytest.raises(ValidationError):
        m.cell(0, 2)


def test_union_and_intersection_are_cellwise():
    a = SyncMatrix.from_entries(("a", "b"), [(0, 1, Rel.LT)])
    b = SyncMatrix.from_entries(("a", "b"), [(0, 1, Rel.EQ)])
    assert (a | b).cells[0][1] == Rel.LE
    assert (a & b).cells[0][1] == Rel.NEVER
    assert (a.union(b)).cells[1][0] == Rel.GE


def test_elementwise_ops_require_matching_labels():
    a = SyncMatrix.unconstrained(("a", "b"))
    b = SyncMatrix.unconstrained(("b", "a"))
    with pytest.raises(ValidationError):
        a.union(b)


def test_converse_is_transpose():
    rng = random.Random(7)
    for _ in range(20):
        m = random_matrix(rng, 4)
        c = m.converse()
        for i in range(4):
            for j in range(4):
                assert c.cells[i][j] == m.cells[j][i]


def test_complement_cells_breaks_the_diagonal():
    m = SyncMatrix.unconstrained(("a", "b"))
    grid = m.complement_cells()
    assert grid[0][0] == Rel.NEVER
    assert grid[0][1] == Rel.NEVER
    with pytest.raises(ValidationError):
        SyncMatrix(m.labels, grid)


def test_swap_events():
    m = SyncMatrix.from_entries(("a", "b"), [(0, 1, Rel.LT)])
    s = m.swap_events(0, 1)
    assert s.labels == ("b", "a")
    assert s.cells[0][1] == Rel.GT
    assert s.cells[1][0] == Rel.LT


def test_swap_events_is_an_involution():
    rng = random.Random(11)
    for _ in range(25):
        m = random_matrix(rng, 5)
        i, j = rng.randrange(5), rng.randrange(5)
        assert m.swap_events(i, j).swap_events(i, j) == m


def test_swap_events_range_check():
    m = SyncMatrix.unconstrained(("a", "b"))
    with pytest.raises(ValidationError):
        m.swap_events(0, 2)


def test_matrix_count():
    assert matrix_count(1) == 1
    assert matrix_count(2) == 8
    assert matrix_count(3) == 512
    assert matrix_count(4) == 8 ** 6
    with pytest.raises(ValidationError):
        matrix_count(0)


def test_listing_guard():
    p = (LISTING_MAX_EVENTS**2 - LISTING_MAX_EVENTS) // 2
    assert matrix_count(LISTING_MAX_EVENTS) == 8**p
    with pytest.raises(GuardError):
        matrix_count(LISTING_MAX_EVENTS + 1)
    with pytest.raises(GuardError):
        atom_matrices(LISTING_MAX_EVENTS + 1)


def test_enumerate_two_events_covers_all_eight():
    mats = list(enumerate_matrices(2))
    assert len(mats) == 8
    assert len(set(mats)) == 8
    assert {m.cells[0][1] for m in mats} == set(ALL_RELS)


def test_enumerate_guard():
    with pytest.raises(ValidationError):
        enumerate_matrices(1)
    with pytest.raises(ValidationError):
        enumerate_matrices(ENUMERATION_MAX_EVENTS + 1)


def test_atom_matrices_shape():
    atoms = atom_matrices(3)
    assert len(atoms) == 9
    for a in atoms:
        constrained = [
            (i, j)
            for i in range(3)
            for j in range(i + 1, 3)
            if a.cells[i][j] != Rel.NEVER
        ]
        assert len(constrained) == 1
        i, j = constrained[0]
        assert a.cells[i][j] in (Rel.LT, Rel.EQ, Rel.GT)
    with pytest.raises(ValidationError):
        atom_matrices(1)


def test_every_matrix_is_the_union_of_its_atoms():
    labels = default_labels(3)
    zero_off_diagonal = SyncMatrix(
        labels,
        tuple(
            tuple(Rel.ANY if i == j else Rel.NEVER for j in range(3))
            for i in range(3)
        ),
    )
    atoms = atom_matrices(3)
    rng = random.Random(23)
    for _ in range(40):
        m = random_matrix(rng, 3)
        rebuilt = zero_off_diagonal
        for a in atoms:
            dominated = all(
                m.cells[i][j].contains(a.cells[i][j])
                for i in range(3)
                for j in range(3)
                if i != j
            )
            if dominated:
                rebuilt = rebuilt | a
        assert rebuilt == m


def test_default_labels():
    assert default_labels(3) == ("e1", "e2", "e3")
