"""Acceptance suite: eleven criteria, one verdict line each.

Every test prints ``ACnn PASS/FAIL: <label>`` (visible with ``pytest -s``;
on failure the same text reaches the assert message).  Tolerances are
pinned here: exhaustive laws must finish under 1 s each, the exhaustive
three-event closure sweep under 30 s, and every equality check allows
zero mismatches.  Random checks use fixed seeds.
"""

import json
import random
import time

from syncalg.algebra import ALL_RELS, Rel
from syncalg.closure import boundedness, close
from syncalg.cli import main
from syncalg.errors import ParseError
from syncalg.format import (
    NeqMode,
    interchange_to_matrix,
    matrix_to_interchange,
    matrix_to_spec,
    parse_spec,
    spec_to_matrix,
)
from syncalg.matrix import SyncMatrix, enumerate_matrices, matrix_count
from syncalg.oracle import minimal_network, pairs_of

from helpers import random_matrix

CONVEX = (Rel.LT, Rel.EQ, Rel.GT, Rel.LE, Rel.GE, Rel.ANY)


def _verdict(num, label, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"AC{num:02d} {status}: {label}")
    assert not problems, f"AC{num:02d} {label} :: " + "; ".join(problems[:5])


def test_ac01_boolean_algebra_laws():
    problems = []
    started = time.perf_counter()
    for a in ALL_RELS:
        if (a | a.complement()) != Rel.ANY or (a & a.complement()) != Rel.NEVER:
            problems.append(f"complement laws fail for {a.symbol}")
        if a.complement().complement() != a:
            problems.append(f"double complement fails for {a.symbol}")
        if (a | Rel.NEVER) != a or (a & Rel.ANY) != a:
            problems.append(f"identity laws fail for {a.symbol}")
        for b in ALL_RELS:
            if (a | b) != (b | a) or (a & b) != (b & a):
                problems.append(f"commutativity fails for {a.symbol},{b.symbol}")
            if (a | (a & b)) != a or (a & (a | b)) != a:
                problems.append(f"absorption fails for {a.symbol},{b.symbol}")
            if (a | b).complement() != (a.complement() & b.complement()):
                problems.append(f"De Morgan over union fails for {a.symbol},{b.symbol}")
            if (a & b).complement() != (a.complement() | b.complement()):
                problems.append(f"De Morgan over intersection fails for {a.symbol},{b.symbol}")
            for c in ALL_RELS:
                if (a | (b | c)) != ((a | b) | c) or (a & (b & c)) != ((a & b) & c):
                    problems.append("associativity fails")
                if (a & (b | c)) != ((a & b) | (a & c)):
                    problems.append("distributivity of intersection fails")
                if (a | (b & c)) != ((a | b) & (a | c)):
                    problems.append("distributivity of union fails")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget 1s")
    _verdict(1, f"Boolean laws over all values ({elapsed:.3f}s)", problems)


def test_ac02_mirror_laws():
    problems = []
    started = time.perf_counter()
    for a in ALL_RELS:
        if a.converse().converse() != a:
            problems.append(f"involution fails for {a.symbol}")
        if a.converse().complement() != a.complement().converse():
            problems.append(f"mirror does not commute with complement for {a.symbol}")
        for b in ALL_RELS:
            if (a | b).converse() != (a.converse() | b.converse()):
                problems.append(f"mirror over union fails for {a.symbol},{b.symbol}")
            if (a & b).converse() != (a.converse() & b.converse()):
                problems.append(f"mirror over intersection fails for {a.symbol},{b.symbol}")
            if a.compose(b).converse() != b.converse().compose(a.converse()):
                problems.append(f"mirror anti-homomorphism fails for {a.symbol},{b.symbol}")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget 1s")
    _verdict(2, f"mirror laws, exhaustive ({elapsed:.3f}s)", problems)


def test_ac03_composition_matches_oracle_and_pinned_cases():
    problems = []
    for d in (3, 4):
        for a in ALL_RELS:
            ea = pairs_of(a, d)
            for b in ALL_RELS:
                profile = ea.compose(pairs_of(b, d)).atom_profile()
                if profile != a.compose(b):
                    problems.append(
                        f"profile mismatch at d={d} for {a.symbol} o {b.symbol}"
                    )
    chains = [
        (Rel.LT, Rel.LT, Rel.LT),
        (Rel.GT, Rel.GT, Rel.GT),
        (Rel.LT, Rel.LE, Rel.LT),
        (Rel.LE, Rel.LT, Rel.LT),
        (Rel.GT, Rel.GE, Rel.GT),
        (Rel.GE, Rel.GT, Rel.GT),
    ]
    for a, b, expected in chains:
        if a.compose(b) != expected:
            problems.append(f"chain case {a.symbol} o {b.symbol} != {expected.symbol}")
    for r in ALL_RELS:
        if Rel.EQ.compose(r) != r or r.compose(Rel.EQ) != r:
            problems.append(f"equality case fails for {r.symbol}")
        if Rel.NEVER.compose(r) != Rel.NEVER or r.compose(Rel.NEVER) != Rel.NEVER:
            problems.append(f"zero rule fails for {r.symbol}")
    loose = (Rel.NE, Rel.ANY)
    others = (Rel.LT, Rel.LE, Rel.GT, Rel.GE, Rel.NE, Rel.ANY)
    for a in loose:
        for b in others:
            if a.compose(b) != Rel.ANY or b.compose(a) != Rel.ANY:
                problems.append(f"loose case fails for {a.symbol},{b.symbol}")
    _verdict(3, "composition equals oracle profiles (d=3,4) plus pinned cases", problems)


def test_ac04_counting():
    problems = []
    if matrix_count(2) != 8:
        problems.append(f"matrix_count(2) = {matrix_count(2)}")
    two = list(enumerate_matrices(2))
    if len(two) != 8 or len(set(two)) != 8:
        problems.append(f"enumeration at n=2 yields {len(two)} matrices")
    if {m.cells[0][1] for m in two} != set(ALL_RELS):
        problems.append("n=2 enumeration misses a relation")
    if matrix_count(3) != 512:
        problems.append(f"matrix_count(3) = {matrix_count(3)}")
    three = list(enumerate_matrices(3))
    if len(three) != 512 or len(set(three)) != 512:
        problems.append(f"enumeration at n=3 yields {len(three)} matrices")
    _verdict(4, "matrix counting matches enumeration (8 at n=2, 512 at n=3)", problems)


def test_ac05_closure_exhaustive_three_events():
    problems = []
    started = time.perf_counter()
    for m in enumerate_matrices(3):
        report = close(m)
        grid, satisfiable = minimal_network(m)
        if report.deadlocked == satisfiable:
            problems.append(f"deadlock flag wrong for {m.cells}")
            continue
        for i in range(3):
            for j in range(3):
                if i != j and not report.closed.cells[i][j].contains(grid[i][j]):
                    problems.append(f"unsound cell ({i},{j}) for {m.cells}")
        again = close(report.closed)
        if again.closed != report.closed or again.implied != ():
            problems.append(f"closure not idempotent for {m.cells}")
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.1f}s, budget 30s")
    _verdict(
        5,
        f"closure sound, deadlock-exact, idempotent on all 512 ({elapsed:.2f}s)",
        problems,
    )


def test_ac06_closure_exact_on_convex_instances():
    problems = []
    rng = random.Random(20260819)
    for trial in range(1000):
        m = random_matrix(rng, 4, allowed=CONVEX)
        closed = close(m).closed
        grid, _satisfiable = minimal_network(m, domain_size=5)
        for i in range(4):
            for j in range(4):
                if i != j and closed.cells[i][j] != grid[i][j]:
                    problems.append(
                        f"trial {trial}: cell ({i},{j}) closed "
                        f"{closed.cells[i][j].symbol} vs minimal {grid[i][j].symbol}"
                    )
    _verdict(6, "closure equals minimal network on 1000 convex n=4 systems", problems)


def test_ac07_implied_synchronization_regression(tmp_path, capsys):
    problems = []
    report = close(spec_to_matrix(parse_spec("e1 > e2\ne2 > e3\n")))
    if report.closed.cells[0][2] != Rel.GT:
        problems.append(
            f"closed (e1,e3) is {report.closed.cells[0][2].symbol}, expected >"
        )
    cycle = tmp_path / "cycle.sync"
    cycle.write_text("a > b\nb > c\nc > a\n")
    code = main(["close", str(cycle)])
    capsys.readouterr()
    if code != 2:
        problems.append(f"cycle exit code {code}, expected 2")
    _verdict(7, "strict chain implies shortcut; cycle deadlocks with exit 2", problems)


def test_ac08_boundedness():
    problems = []
    two = SyncMatrix.from_entries(("e1", "e2"), [(0, 1, Rel.GT)])
    symbols = [b.symbol for b in boundedness(two)]
    if symbols != [">", "<"]:
        problems.append(f"two-event bounds are {symbols}, expected ['>', '<']")
    for m in enumerate_matrices(3):
        bounds = boundedness(m)
        for i in range(3):
            manual = Rel.ANY
            for j in range(3):
                if j != i:
                    manual &= m.cells[i][j]
            if bounds[i].value != manual:
                problems.append(f"bounds[{i}] != row intersection for {m.cells}")
            if bounds[i].value not in ALL_RELS:
                problems.append(f"bounds[{i}] outside the eight-element carrier")
    _verdict(8, "bounds equal row intersections across all 512 three-event systems", problems)


def test_ac09_eventswap_commutes_with_closure():
    problems = []
    rng = random.Random(97)
    for trial in range(200):
        n = rng.randrange(2, 6)
        m = random_matrix(rng, n)
        closed = close(m).closed
        for i in range(n):
            for j in range(i + 1, n):
                if m.swap_events(i, j).swap_events(i, j) != m:
                    problems.append(f"trial {trial}: double swap ({i},{j}) not identity")
                if close(m.swap_events(i, j)).closed != closed.swap_events(i, j):
                    problems.append(f"trial {trial}: closure does not commute with swap ({i},{j})")
    _verdict(9, "close and eventswap commute on 200 random systems (n<=5)", problems)


def test_ac10_neq_modes():
    problems = []
    spec = parse_spec("a != b\nb != c\nc != a\n")

    kept = spec_to_matrix(spec, NeqMode.KEEP)
    _grid, satisfiable = minimal_network(kept)
    if not satisfiable:
        problems.append("exclusion cycle unsatisfiable under KEEP")
    if close(kept).deadlocked:
        problems.append("closure deadlocks the exclusion cycle under KEEP")

    for mode in (NeqMode.AS_LT, NeqMode.AS_GT):
        rewritten = spec_to_matrix(spec, mode)
        if not close(rewritten).deadlocked:
            problems.append(f"no deadlock under {mode.name}")
        _grid, satisfiable = minimal_network(rewritten)
        if satisfiable:
            problems.append(f"rewritten system satisfiable under {mode.name}")
    _verdict(10, "exclusion cycle: satisfiable kept, deadlocked as strict order", problems)


def test_ac11_format_round_trips():
    problems = []
    for m in enumerate_matrices(2):
        if spec_to_matrix(matrix_to_spec(m)) != m:
            problems.append(f"spec round trip fails on two-event {m.cells[0][1].symbol}")
        if interchange_to_matrix(matrix_to_interchange(m)) != m:
            problems.append(f"interchange round trip fails on {m.cells[0][1].symbol}")
    rng = random.Random(41)
    for trial in range(500):
        n = rng.randrange(2, 6)
        m = random_matrix(rng, n)
        if spec_to_matrix(matrix_to_spec(m)) != m:
            problems.append(f"trial {trial}: spec round trip fails")
        if interchange_to_matrix(matrix_to_interchange(m)) != m:
            problems.append(f"trial {trial}: interchange round trip fails")
    try:
        parse_spec("a < b\nb <=\n")
        problems.append("truncated line accepted")
    except ParseError as err:
        if err.lineno != 2 or "line 2:" not in str(err):
            problems.append(f"wrong line number {err.lineno} for truncated line")
    try:
        parse_spec("a < b\n\nc >> d\n")
        problems.append("bad operator accepted")
    except ParseError as err:
        if err.lineno != 3:
            problems.append(f"wrong line number {err.lineno} for bad operator")
    _verdict(11, "round trips exact on all two-event and 500 random systems", problems)
