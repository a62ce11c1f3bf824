"""Tests for transitive closure, boundedness, deadlock, and equivalence."""

import functools
import operator
import random

import pytest

from syncalg.algebra import ALL_RELS, Bound, Rel
from syncalg.cli import main
from syncalg.closure import ClosureReport, ImpliedChange, _propagate, boundedness, close, equivalent
from syncalg.errors import ValidationError
from syncalg.format import NeqMode, parse_spec, spec_to_matrix
from syncalg.matrix import SyncMatrix, default_labels
from syncalg.oracle import minimal_network

from helpers import planted_matrix, random_matrix, reference_propagate, substitute_neq


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
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        kernel = [list(bytes(row)) for row in m.cells]
        _propagate(kernel)
        rng.shuffle(pairs)
        shuffled = [list(row) for row in m.cells]
        reference_propagate(shuffled, pairs)
        assert kernel == shuffled


def assert_kernel_matches_reference(m, pair_order=None):
    """The kernel reaches the cells the reference sweep reaches in ``pair_order``;
    the pass counts agree in the kernel's own order, the canonical one."""
    expected = [list(row) for row in m.cells]
    expected_passes = reference_propagate(expected, pair_order)
    got = [list(bytes(row)) for row in m.cells]
    passes = _propagate(got)
    assert got == expected
    assert all(type(code) is int for row in got for code in row)
    if pair_order is None:
        assert passes == expected_passes


def assert_report_matches_reference(m):
    """close(m) against a report assembled on Rel cells from reference_propagate."""
    cells = [list(row) for row in m.cells]
    iterations = reference_propagate(cells)
    pairs = [(i, j) for i in range(m.n) for j in range(i + 1, m.n)]
    report = close(m)
    assert [tuple(c) for c in report.implied] == [
        (i, j, m.cells[i][j], cells[i][j]) for i, j in pairs if cells[i][j] != m.cells[i][j]
    ]
    assert all(type(c.before) is type(c.after) is Rel for c in report.implied)
    assert report.deadlock_pairs == tuple((i, j) for i, j in pairs if cells[i][j] == Rel.NEVER)
    assert report.deadlocked == bool(report.deadlock_pairs)
    rows = [functools.reduce(operator.and_, row, Rel.ANY) for row in cells]
    assert [bound.value for bound in report.bounds] == rows
    assert report.iterations == iterations


def test_int_kernel_matches_the_rel_sweep_on_random_matrices():
    rng = random.Random(21)
    sparse = ALL_RELS + (Rel.ANY,) * 24
    for trial in range(320):
        n = rng.randrange(2, 13)
        m = random_matrix(rng, n, ALL_RELS if trial % 2 else sparse)
        pairs = None
        if trial % 5 == 0:
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            rng.shuffle(pairs)
        assert_kernel_matches_reference(m, pairs)
        assert_report_matches_reference(m)


def test_int_kernel_matches_the_rel_sweep_on_planted_systems():
    rng = random.Random(23)
    for _ in range(3):
        m = planted_matrix(rng, 40, rng.uniform(0.1, 0.3))
        assert_kernel_matches_reference(m)
        assert not close(m).deadlocked


def test_int_kernel_on_one_and_two_events():
    assert_kernel_matches_reference(SyncMatrix.unconstrained(("a",)), [])
    for rel in ALL_RELS:
        m = SyncMatrix.from_entries(("a", "b"), [(0, 1, rel)])
        assert_kernel_matches_reference(m)
        assert_kernel_matches_reference(m, [(1, 0)])


def test_int_kernel_matches_the_rel_sweep_on_reversed_and_repeated_pairs():
    # The reference sweeps a reversed pair (j, i) as row j against row i and
    # a repeated pair again later in the same pass; it still reaches the
    # kernel's cells.
    rng = random.Random(29)
    for trial in range(120):
        n = rng.randrange(2, 10)
        m = random_matrix(rng, n, ALL_RELS if trial % 2 else ALL_RELS + (Rel.ANY,) * 24)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        flipped = [(j, i) if rng.random() < 0.5 else (i, j) for i, j in pairs]
        repeated = pairs + rng.choices(flipped, k=len(pairs))
        rng.shuffle(repeated)
        for order in (flipped, flipped[::-1], repeated):
            assert_kernel_matches_reference(m, order)


@pytest.mark.parametrize(
    ("n", "extra", "declared_never"),
    [
        # A declared never: two rows are dead before the first scan.
        (40, [(3, 17, Rel.NEVER)], True),
        # A strict cycle 5 < 17 < 29 < 38 < 5: never appears mid-sweep.
        (40, [(5, 17, Rel.LT), (17, 29, Rel.LT), (29, 38, Rel.LT), (5, 38, Rel.GT)], False),
        # Rows of 60 bytes, wider than several machine words.
        (60, [], False),
    ],
)
def test_int_kernel_matches_the_rel_sweep_on_planted_extremes(n, extra, declared_never):
    m = planted_matrix(random.Random(31 + n), n, 0.2, extra)
    assert any(Rel.NEVER in row for row in m.cells) == declared_never
    assert_kernel_matches_reference(m)
    assert close(m).deadlocked == bool(extra)


def test_close_builds_exact_record_types():
    rng = random.Random(47)
    cycle = [(0, 5, Rel.LT), (5, 9, Rel.LT), (0, 9, Rel.GT)]
    for m, deadlocked in ((planted_matrix(rng, 12, 0.3), False), (planted_matrix(rng, 12, 0.3, cycle), True)):
        report = close(m)
        assert type(report) is ClosureReport
        assert report == ClosureReport(
            closed=report.closed,
            bounds=report.bounds,
            deadlocked=deadlocked,
            deadlock_pairs=report.deadlock_pairs,
            implied=report.implied,
            iterations=report.iterations,
        )
        assert type(report.closed) is SyncMatrix and type(report.iterations) is int
        assert report.implied and all(type(c) is ImpliedChange for c in report.implied)
        assert [type(bound) for bound in report.bounds] == [Bound] * 12
        assert all(type(pair) is tuple and len(pair) == 2 for pair in report.deadlock_pairs)
        assert bool(report.deadlock_pairs) == deadlocked
    assert [type(bound) for bound in boundedness(m)] == [Bound] * 12


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

    labels = ("a", "b", "c", "d", "e", "f")
    entries = [(0, 1, Rel.LT), (1, 2, Rel.LE), (2, 3, Rel.NE), (3, 4, Rel.LT), (4, 5, Rel.EQ)]
    p = SyncMatrix.from_entries(labels, entries)
    flipped = [(5 - i, 5 - j, rel) for i, j, rel in entries]
    assert equivalent(p, SyncMatrix.from_entries(labels[::-1], flipped))
    flipped[0] = (5, 4, Rel.LE)
    assert not equivalent(p, SyncMatrix.from_entries(labels[::-1], flipped))


def test_equivalent_detects_difference():
    p = SyncMatrix.from_entries(("a", "b"), [(0, 1, Rel.LT)])
    q = SyncMatrix.from_entries(("a", "b"), [(0, 1, Rel.LE)])
    assert not equivalent(p, q)


def test_equivalent_on_one_event():
    solo = SyncMatrix.unconstrained(("a",))
    assert equivalent(solo, SyncMatrix(["a"], [[Rel.ANY]]))
    with pytest.raises(ValidationError):
        equivalent(solo, SyncMatrix.unconstrained(("b",)))


def test_equivalent_requires_same_event_set():
    p = SyncMatrix.unconstrained(("a", "b"))
    q = SyncMatrix.unconstrained(("a", "c"))
    with pytest.raises(ValidationError):
        equivalent(p, q)


# Under != path consistency can stay looser than the exact network: in P
# one of y, z lies strictly between x and w, so every schedule has x < w,
# yet closure leaves (x, w) at <=.  Q states x < w outright.
FORBIDDEN_P = "events x y z w\nx <= y\nx <= z\ny <= w\nz <= w\ny != z\n"
FORBIDDEN_Q = FORBIDDEN_P + "x < w\n"


def test_forbidden_subgraph_admits_the_same_schedules_as_its_strict_form():
    p, q = (spec_to_matrix(parse_spec(text)) for text in (FORBIDDEN_P, FORBIDDEN_Q))
    exact, satisfiable = minimal_network(p)
    assert (exact, satisfiable) == minimal_network(q)
    assert satisfiable and exact[0][3] == Rel.LT
    assert close(p).closed.cells[0][3] == Rel.LE
    assert close(q).closed.cells[0][3] == Rel.LT


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="equivalent compares PC closures, which != can leave loose")
def test_equivalent_is_exact_on_a_forbidden_subgraph(tmp_path, capsys):
    p, q = (spec_to_matrix(parse_spec(text)) for text in (FORBIDDEN_P, FORBIDDEN_Q))
    (tmp_path / "p.sync").write_text(FORBIDDEN_P)
    (tmp_path / "q.sync").write_text(FORBIDDEN_Q)
    assert equivalent(p, q)
    assert main(["equiv", str(tmp_path / "p.sync"), str(tmp_path / "q.sync")]) == 0
    assert capsys.readouterr().out == "equivalent\n"


def test_closure_commutes_with_eventswap_spot_check():
    rng = random.Random(17)
    for _ in range(30):
        m = random_matrix(rng, 4)
        i, j = rng.randrange(4), rng.randrange(4)
        assert close(m.swap_events(i, j)).closed == close(m).closed.swap_events(i, j)
