"""Unit tests for synchronization matrices."""

import pickle
import random
import re
from operator import and_, or_

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
    # Plain ints and out-of-range flag values are not relations either.
    for rel in (3, Rel(8), Rel(9)):
        with pytest.raises(
            ValidationError, match=re.escape(f"entry relation {rel!r} is not a relation")
        ):
            SyncMatrix.from_entries(("a", "b"), [(0, 1, rel)])
    # An entry that does not unpack into (i, j, rel) is named, not a raw exception.
    for entry in ((0, 1), (0, 1, Rel.LT, 0), None):
        with pytest.raises(ValidationError, match=re.escape(f"malformed entry {entry!r}")):
            SyncMatrix.from_entries(("a", "b"), [(0, 1, Rel.LT), entry])
    # An entry list that is not iterable is named too.
    for entries in (None, 5, 2.5, object()):
        with pytest.raises(ValidationError, match=re.escape(f"malformed entry list {entries!r}")):
            SyncMatrix.from_entries(("a", "b"), entries)
    # The whole label rule is checked before the entries.
    with pytest.raises(ValidationError, match=r"^event labels must be a sequence of strings$"):
        SyncMatrix.from_entries(("a", 5), [(0, 0, Rel.LT)])
    with pytest.raises(ValidationError, match=r"^event labels must be distinct$"):
        SyncMatrix.from_entries(("a", "a"), 5)


@pytest.mark.parametrize("labels", [None, 3, "ab"])
def test_from_entries_rejects_labels_that_are_not_a_sequence(labels):
    with pytest.raises(ValidationError, match=r"^event labels must be a sequence of strings$"):
        SyncMatrix.from_entries(labels, [])


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
    for operate in (lambda: a | 3, lambda: a & None, lambda: a.union(3)):
        with pytest.raises(TypeError):
            operate()


def test_converse_is_transpose():
    rng = random.Random(7)
    for _ in range(20):
        m = random_matrix(rng, 4)
        c = m.converse()
        for i in range(4):
            for j in range(4):
                assert c.cells[i][j] == m.cells[j][i]
                assert c.cells[i][j] == m.cells[i][j].converse()


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


@pytest.mark.parametrize(
    "labels,cells",
    [
        (("a", ["b"]), ((Rel.ANY, Rel.ANY), (Rel.ANY, Rel.ANY))),
        ((1, 2), ((Rel.ANY, Rel.ANY), (Rel.ANY, Rel.ANY))),
        (None, ((Rel.ANY,),)),
        (("a",), None),
        (("a", "b"), ((Rel.ANY, Rel.ANY), 5)),
        (("a", "b"), ((Rel.ANY, Rel(8)), (Rel(8), Rel.ANY))),
        ("ab", ((Rel.ANY, Rel.ANY), (Rel.ANY, Rel.ANY))),
    ],
)
def test_constructor_rejects_malformed_labels_and_grids(labels, cells):
    with pytest.raises(ValidationError):
        SyncMatrix(labels, cells)


@pytest.mark.parametrize("code", [8, 255, 256, 300])
def test_out_of_range_flag_values_are_not_relations(code):
    # IntFlag keeps unknown bits, so Rel(code) is a Rel but none of the eight.
    bad = Rel(code)
    with pytest.raises(ValidationError, match=re.escape(f"cell {bad!r} is not a relation")):
        SyncMatrix(("a", "b"), ((Rel.ANY, bad), (bad, Rel.ANY)))
    with pytest.raises(ValidationError, match=re.escape(f"cell {bad!r} is not a relation")):
        SyncMatrix(("a",), ((bad,),))


def _reference_check(cells):
    """The constructor's checks cell by cell, in their historical order."""
    for row in cells:
        for cell in row:
            if not isinstance(cell, Rel):
                raise ValidationError(f"cell {cell!r} is not a relation")
    n = len(cells)
    for i in range(n):
        if cells[i][i] != Rel.ANY:
            raise ValidationError("diagonal cells must be the full relation")
        for j in range(i + 1, n):
            if cells[j][i] != cells[i][j].converse():
                raise ValidationError(f"cells ({i},{j}) and ({j},{i}) are not converses")


def _faulty_grid(rng, n):
    grid = [list(row) for row in random_matrix(rng, n).cells]
    for _ in range(rng.randrange(3)):
        i, j = rng.randrange(n), rng.randrange(n)
        kind = rng.randrange(3)
        if kind == 0:
            grid[i][j] = rng.choice([7, True, None, "<"])
        elif kind == 1:
            grid[i][i] = rng.choice(ALL_RELS[:7])
        elif n > 1:
            # A converse fault anywhere, most of them far from (0, 1).
            if i == j:
                j = (i + 1) % n
            grid[i][j] = rng.choice([r for r in ALL_RELS if r != grid[i][j]])
    return grid


def test_constructor_agrees_with_the_cellwise_reference():
    rng = random.Random(31)
    outcomes = set()
    for _ in range(1500):
        n = rng.randrange(1, 13)
        grid = _faulty_grid(rng, n)
        try:
            _reference_check(grid)
            expected = None
        except ValidationError as exc:
            expected = str(exc)
        try:
            m = SyncMatrix(default_labels(n), grid)
            got = None
        except ValidationError as exc:
            got = str(exc)
        assert got == expected, (n, grid)
        if got is None:
            assert m.cells == tuple(map(tuple, grid))
        outcomes.add(expected.split(" ")[0] if expected else None)
    # Every kind of verdict was drawn: valid, bad cell, diagonal, converse.
    assert outcomes == {None, "cell", "diagonal", "cells"}


def test_constructor_reports_the_diagonal_between_converse_rows():
    # Row 1's diagonal is scanned after row 0's converse pairs and before
    # row 1's, so each fault below is the one reported.
    grid = [[Rel.ANY] * 3 for _ in range(3)]
    grid[1][1] = Rel.EQ
    grid[1][2] = Rel.LT
    with pytest.raises(ValidationError, match="diagonal"):
        SyncMatrix(default_labels(3), grid)
    grid[0][2] = Rel.LT
    with pytest.raises(ValidationError, match=r"\(0,2\)"):
        SyncMatrix(default_labels(3), grid)


def test_constructor_reports_a_bad_cell_before_an_earlier_diagonal():
    # Cells are typed over the whole grid before any row's diagonal.
    grid = [[Rel.ANY] * 3 for _ in range(3)]
    grid[0][0] = Rel.EQ
    grid[2][1] = Rel(8)
    with pytest.raises(ValidationError, match=re.escape(f"cell {Rel(8)!r} is not a relation")):
        SyncMatrix(default_labels(3), grid)


def test_from_entries_agrees_with_rel_level_conjunction():
    rng = random.Random(37)
    for _ in range(300):
        n = rng.randrange(2, 9)
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        entries = [
            (*rng.choice(pairs), rng.choice(ALL_RELS))
            for _ in range(rng.randrange(3 * n))
        ]
        entries += entries[: rng.randrange(len(entries) + 1)]  # repeats
        expected = [[Rel.ANY] * n for _ in range(n)]
        for i, j, rel in entries:
            expected[i][j] &= rel
            expected[j][i] &= rel.converse()
        m = SyncMatrix.from_entries(default_labels(n), entries)
        assert m.cells == tuple(map(tuple, expected))
        assert all(type(cell) is Rel for row in m.cells for cell in row)


def test_one_event_matrix_swaps_with_itself():
    m = SyncMatrix(("solo",), ((Rel.ANY,),))
    assert m.swap_events(0, 0) == m


@pytest.mark.parametrize(
    "build",
    [
        lambda: SyncMatrix.from_entries(("a", "b"), [(0.0, 1, Rel.LT)]),
        lambda: SyncMatrix.from_entries(("a", "b"), [(0, 1.0, Rel.LT)]),
        lambda: SyncMatrix.from_entries(("a", "b"), [("0", 1, Rel.LT)]),
        lambda: SyncMatrix.from_entries(("a", "b"), [(None, 1, Rel.LT)]),
        lambda: SyncMatrix.unconstrained(("a", "b")).swap_events(0.0, 1),
        lambda: SyncMatrix.unconstrained(("a", "b")).swap_events(0, "1"),
        lambda: SyncMatrix.unconstrained(("a", "b")).cell(0.5, 1),
        lambda: SyncMatrix.unconstrained(("a", "b")).cell(0, 1.0),
    ],
)
def test_non_integer_event_indices_are_rejected(build):
    with pytest.raises(ValidationError, match="must be integers"):
        build()


def test_boolean_event_indices_are_integers():
    m = SyncMatrix.from_entries(("a", "b"), [(False, True, Rel.LT)])
    assert m == SyncMatrix.from_entries(("a", "b"), [(0, 1, Rel.LT)])
    assert m.cell(True, False) == Rel.GT
    assert m.swap_events(False, True) == m.swap_events(0, 1)


@pytest.mark.parametrize("count", [2.5, 2.0, "3", None])
def test_event_counts_must_be_integers(count):
    for listing in (matrix_count, atom_matrices, enumerate_matrices):
        with pytest.raises(ValidationError, match="is not an integer"):
            listing(count)


# Test-local references on Rel grids for the code-grid storage.


def _rel_grid_from_entries(n, entries):
    grid = [[Rel.ANY] * n for _ in range(n)]
    for i, j, rel in entries:
        grid[i][j] &= rel
        grid[j][i] &= rel.converse()
    return grid


def _rel_grid_reordered(cells, order):
    return [[cells[a][b] for b in order] for a in order]


def _rel_grid_cellwise(op, p, q):
    return [[op(a, b) for a, b in zip(rp, rq)] for rp, rq in zip(p, q)]


def _as_tuples(grid):
    return tuple(map(tuple, grid))


def test_code_grid_operations_agree_with_rel_grid_references():
    rng = random.Random(41)
    for case in range(480):
        n = 1 + case % 12
        labels = default_labels(n)
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        # Draws favour never and repeat pairs, so conjunction collapses cells too.
        entries = [
            (*rng.choice(pairs), rng.choice(ALL_RELS + (Rel.NEVER,) * 2))
            for _ in range(rng.randrange(2 * n * n + 1) if pairs else 0)
        ]
        entries += entries[: rng.randrange(len(entries) + 1)]
        m = SyncMatrix.from_entries(labels, entries)
        assert m.cells == _as_tuples(_rel_grid_from_entries(n, entries))
        other = random_matrix(rng, n)

        i, j = rng.randrange(n), rng.randrange(n)
        order = list(range(n))
        order[i], order[j] = order[j], order[i]
        swapped = m.swap_events(i, j)
        assert swapped.labels == tuple(labels[k] for k in order)
        assert swapped.cells == _as_tuples(_rel_grid_reordered(m.cells, order))
        shuffled = rng.sample(range(n), n)
        reordered = m._reordered(shuffled)
        assert reordered.labels == tuple(labels[k] for k in shuffled)
        assert reordered.cells == _as_tuples(_rel_grid_reordered(m.cells, shuffled))

        assert (m | other).cells == _as_tuples(_rel_grid_cellwise(or_, m.cells, other.cells))
        assert (m & other).cells == _as_tuples(_rel_grid_cellwise(and_, m.cells, other.cells))
        assert m.converse().cells == _as_tuples(zip(*m.cells))
        assert m.complement_cells() == tuple(tuple(~c for c in row) for row in m.cells)
        for result in (m, swapped, reordered, m | other, m & other, m.converse()):
            assert all(type(c) is Rel for row in result.cells for c in row)
            assert [result.cell(a, b) for a in range(n) for b in range(n)] == [
                c for row in result.cells for c in row
            ]


def test_matrices_are_values_of_their_labels_and_cells():
    rng = random.Random(43)
    for n in range(1, 13):
        m = random_matrix(rng, n).swap_events(0, n - 1)
        again = SyncMatrix(m.labels, m.cells)
        assert again == m and hash(again) == hash(m)
        assert pickle.loads(pickle.dumps(m)) == m
        assert all(type(c) is Rel for row in m.cells for c in row)
        assert m.cells is m.cells  # built once


@pytest.mark.parametrize(
    "codes,message",
    [
        (b"\x07\x01\x04", "cell grid must be 2x2"),
        (b"\x07\x01\x04\x07\x00", "cell grid must be 2x2"),
        (b"\x07\x09\x04\x07", "is not a relation"),
        (b"\x02\x01\x04\x07", "diagonal cells must be the full relation"),
        (b"\x07\x01\x01\x07", r"cells \(0,1\) and \(1,0\) are not converses"),
    ],
)
def test_internal_builder_makes_the_constructor_checks(codes, message):
    with pytest.raises(ValidationError, match=message):
        SyncMatrix._from_codes(("a", "b"), codes)
    with pytest.raises(ValidationError, match="distinct"):
        SyncMatrix._from_codes(("a", "a"), b"\x07\x07\x07\x07")
