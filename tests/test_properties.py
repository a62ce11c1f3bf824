"""Property tests: the != invariant, format round trips, the parser and the
closure kernel against their references, and builder and CLI robustness.

Every property runs a bounded number of examples from a fixed seed and
keeps no example database, so every run draws the same examples.
"""

import contextlib
import io
import json
import random
from collections import Counter

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from syncalg.algebra import ALL_RELS, CANONICAL_SYMBOLS, Rel
from syncalg.cli import main
from syncalg.closure import _propagate, close, equivalent
from syncalg.errors import ParseError, SyncAlgebraError, ValidationError
from syncalg.format import (
    Constraint,
    NeqMode,
    SyncSpec,
    interchange_to_matrix,
    matrix_to_interchange,
    matrix_to_spec,
    parse_spec,
    report_to_interchange,
    spec_to_matrix,
    spec_to_text,
)
from syncalg.matrix import SyncMatrix, default_labels

from helpers import (
    reference_parse_spec,
    reference_propagate,
    reference_reordered,
    reference_spec_to_matrix,
    shares_strings,
)

NAMES = ("a", "b", "c", "d", "e")
PROPERTY = settings(max_examples=200, deadline=None, database=None)


@st.composite
def spec_texts(draw):
    """Declaration text over at most five events, directive optional."""
    pairs = st.tuples(st.sampled_from(NAMES), st.sampled_from(NAMES)).filter(
        lambda pair: pair[0] != pair[1]
    )
    decls = draw(
        st.lists(st.tuples(pairs, st.sampled_from(CANONICAL_SYMBOLS)), min_size=1, max_size=12)
    )
    lines = [f"{lhs} {op} {rhs}" for (lhs, rhs), op in decls]
    if draw(st.booleans()):
        lines.insert(0, "events " + " ".join(draw(st.permutations(NAMES))))
    return "\n".join(lines) + "\n"


@seed(20261017)
@PROPERTY
@given(spec_texts(), st.sampled_from([NeqMode.AS_LT, NeqMode.AS_GT]))
def test_strict_neq_modes_leave_no_exclusion_cell(text, mode):
    matrix = spec_to_matrix(parse_spec(text), mode)
    assert all(cell != Rel.NE for row in matrix.cells for cell in row)


@seed(20261018)
@PROPERTY
@given(spec_texts())
def test_text_and_interchange_round_trips(text):
    matrix = spec_to_matrix(parse_spec(text))
    again = spec_to_matrix(parse_spec(spec_to_text(matrix_to_spec(matrix))))
    assert again == matrix
    assert interchange_to_matrix(matrix_to_interchange(matrix)) == matrix
    report = close(matrix)
    assert interchange_to_matrix(report_to_interchange(report)) == report.closed


TOKENS = st.sampled_from(
    [*NAMES, *CANONICAL_SYMBOLS, "f", "events", "#", "#a", "1a", "a-b", "<<", "a<b", "\t", "\r"]
)


@st.composite
def mutated_spec_texts(draw):
    """spec_texts with a few tokens inserted, replaced or put at the start of line 2,
    or a line's last token replaced by its first."""
    lines = [line.split(" ") for line in draw(spec_texts()).split("\n")]
    for _ in range(draw(st.integers(0, 3))):
        words = lines[draw(st.integers(0, len(lines) - 1))]
        where = draw(st.sampled_from(["insert", "replace", "line 2", "self"]))
        if where == "self":
            words[-1] = words[0]
        elif where == "line 2":
            lines[min(1, len(lines) - 1)].insert(0, draw(TOKENS))
        elif where == "insert":
            words.insert(draw(st.integers(0, len(words))), draw(TOKENS))
        else:
            words[draw(st.integers(0, len(words) - 1))] = draw(TOKENS)
    return "\n".join(" ".join(words) for words in lines)


def parse_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return exc.lineno, str(exc)


@seed(20261021)
@settings(max_examples=600, deadline=None, database=None)
@given(mutated_spec_texts())
def test_parser_agrees_with_the_line_by_line_reference(text):
    outcome = parse_outcome(parse_spec, text)
    assert outcome == parse_outcome(reference_parse_spec, text)
    assert not isinstance(outcome, SyncSpec) or shares_strings(outcome)


@st.composite
def grids_and_pair_orders(draw):
    """A valid grid of Rel cells over one to eight events, and a permutation of its pairs."""
    n = draw(st.integers(1, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    cell = st.one_of(st.just(Rel.ANY), st.sampled_from(ALL_RELS))
    grid = [[Rel.ANY] * n for _ in range(n)]
    for i, j in pairs:
        grid[i][j] = draw(cell)
        grid[j][i] = grid[i][j].converse()
    return grid, draw(st.permutations(pairs))


@seed(20261020)
@PROPERTY
@given(grids_and_pair_orders())
def test_kernel_equals_the_rel_sweep_in_any_pair_order(case):
    cells, pair_order = case
    codes = [list(map(int, row)) for row in cells]
    canonical = [list(row) for row in cells]
    assert _propagate(codes) == reference_propagate(canonical)
    reference_propagate(cells, pair_order)
    assert codes == canonical == cells


@st.composite
def planted_specs(draw):
    """A SyncSpec whose declarations hold at drawn event times, then mutated:
    an unknown event, a self-constraint (``a any a`` among them), a bad
    symbol, a repeated or mirrored pair, a duplicate or no event list, or a
    self-constraint ahead of an unknown event."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=5, unique=True))
    time = {name: draw(st.integers(0, 3)) for name in names}
    decls = []
    for _ in range(draw(st.integers(0, 10)) if len(names) > 1 else 0):
        lhs, rhs = draw(st.permutations(names))[:2]
        atom = 1 if time[lhs] < time[rhs] else 2 if time[lhs] == time[rhs] else 4
        op = draw(st.sampled_from([s for code, s in enumerate(CANONICAL_SYMBOLS) if code & atom]))
        decls.append([lhs, op, rhs])
    events = list(names)
    for _ in range(draw(st.integers(0, 3))):
        where = draw(st.integers(0, len(decls)))
        name = draw(st.sampled_from(names))
        mutation = draw(
            st.sampled_from(["unknown", "self", "symbol", "repeat", "mirror", "duplicate", "empty", "precedence"])
        )
        if mutation == "unknown":
            decls.insert(where, draw(st.sampled_from([["zz", "<", name], [name, "!=", "zz"]])))
        elif mutation == "self":
            decls.insert(where, [name, draw(st.sampled_from(CANONICAL_SYMBOLS)), name])
        elif mutation == "symbol" and decls:
            decls[where - 1][1] = draw(st.sampled_from(["<<", "NE", "", "≠"]))
        elif mutation in ("repeat", "mirror") and decls:
            lhs, op, rhs = decls[where - 1]
            decls.append([lhs, op, rhs] if mutation == "repeat" else [rhs, draw(st.sampled_from(CANONICAL_SYMBOLS)), lhs])
        elif mutation == "duplicate":
            events.insert(draw(st.integers(0, len(events))), name)
        elif mutation == "empty":
            events = []
        elif mutation == "precedence":
            decls[:0] = [[name, "<", name], ["zz", "<", name]]
    return SyncSpec(tuple(events), tuple(Constraint(*d, k) for k, d in enumerate(decls, 1)))


def build_outcome(build, *args):
    try:
        matrix = build(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return matrix.labels, matrix._codes


@seed(20261022)
@settings(max_examples=600, deadline=None, database=None)
@given(planted_specs())
def test_spec_to_matrix_equals_the_entry_by_entry_reference(spec):
    for mode in NeqMode:
        expected = build_outcome(reference_spec_to_matrix, spec, mode)
        assert build_outcome(spec_to_matrix, spec, mode) == expected


def large_planted_spec(fault, where):
    """A satisfiable spec over 400 events with about 20,000 declarations,
    with one declaration replaced by a fault: an unknown event, a bad
    symbol or a self-constraint (or none)."""
    rng = random.Random(400)
    names = [f"e{k}" for k in range(400)]
    time = {name: rng.randrange(200) for name in names}
    decls = []
    for _ in range(20000):
        lhs, rhs = rng.sample(names, 2)
        atom = 1 if time[lhs] < time[rhs] else 2 if time[lhs] == time[rhs] else 4
        decls.append([lhs, rng.choice([s for code, s in enumerate(CANONICAL_SYMBOLS) if code & atom]), rhs])
    at = {"first": 0, "middle": len(decls) // 2, "last": len(decls) - 1}[where]
    lhs, op, rhs = decls[at]
    decls[at] = {"none": [lhs, op, rhs], "unknown": [lhs, op, "zz"], "symbol": [lhs, "<<", rhs], "self": [lhs, op, lhs]}[fault]
    return SyncSpec(tuple(names), tuple(Constraint(*d, k) for k, d in enumerate(decls, 1)))


@pytest.mark.parametrize(
    "fault,where",
    [("none", "middle")] + [(f, w) for f in ("unknown", "symbol", "self") for w in ("first", "middle", "last")],
)
def test_spec_to_matrix_equals_the_reference_on_a_400_event_spec(fault, where):
    spec = large_planted_spec(fault, where)
    for mode in NeqMode:
        expected = build_outcome(reference_spec_to_matrix, spec, mode)
        assert (expected[0] is ValidationError) == (fault != "none")
        assert build_outcome(spec_to_matrix, spec, mode) == expected


def junk(rng, depth=2):
    """A value of a kind no builder reads as it stands, or a list or
    generator of such values mixed with well-formed pieces."""
    kinds = [
        lambda: None,
        lambda: rng.randrange(-2, 4),
        lambda: rng.uniform(-1, 3),
        lambda: float("nan"),
        lambda: rng.random() < 0.5,
        lambda: rng.choice(["", "a", "ab", "<", "zz"]),
        lambda: b"ab",
        lambda: {"a": junk(rng, 0)},
        lambda: rng.choice(ALL_RELS),
        object,
    ]
    if depth:
        piece = [lambda: junk(rng, depth - 1), lambda: "a", lambda: (0, 1, Rel.LT), lambda: ("a", "<", "b", 1)]
        kinds.append(lambda: [rng.choice(piece)() for _ in range(rng.randrange(4))])
        kinds.append(lambda: (rng.choice(piece)() for _ in range(rng.randrange(4))))
    return rng.choice(kinds)()


def junk_json(rng, depth=2):
    """A JSON value of any kind, lists nested up to ``depth``, or a symbol row."""
    kinds = [
        lambda: None,
        lambda: rng.randrange(-2, 4),
        lambda: rng.choice([0.5, float("nan")]),
        lambda: rng.random() < 0.5,
        lambda: rng.choice(["", "a", "any", "<"]),
        lambda: {"a": 1},
        lambda: ["any", rng.choice(["<", "any", "never", 1, None])],
    ]
    if depth:
        kinds.append(lambda: [junk_json(rng, depth - 1) for _ in range(rng.randrange(3))])
    return rng.choice(kinds)()


def test_junk_input_raises_only_library_errors_from_every_builder():
    rng = random.Random(20261024)

    def labels():
        return rng.choice([junk(rng), ("a", "b"), ["a", "b", "c"]])

    for _ in range(2000):
        builds = [
            lambda: SyncMatrix(labels(), junk(rng)),
            lambda: SyncMatrix.from_entries(labels(), junk(rng)),
            lambda: spec_to_matrix(SyncSpec(labels(), junk(rng)), rng.choice([*NeqMode, junk(rng)])),
            lambda: interchange_to_matrix(
                json.dumps(rng.choice([junk_json(rng), {"events": junk_json(rng), "matrix": junk_json(rng)}]))
            ),
            lambda: spec_to_text(SyncSpec(labels(), junk(rng))),
            lambda: interchange_to_matrix(junk(rng)),
            lambda: parse_spec(junk(rng)),
        ]
        for build in builds:
            try:
                build()
            except SyncAlgebraError:
                pass


def near_valid_spec(rng):
    """Events, records and a wrapper that makes the declaration list of a
    spec.  Each part is well formed, near valid (an unknown name or symbol,
    a self-constraint, a label the grammar cannot hold, a directive that
    reads as a constraint) or junk; the list is a tuple, list or generator."""
    events = rng.choice([(), [], ("a", "b", "c"), ["a", "b"], ("a", "b c"), ("never", "any"), junk(rng, 0)])
    known = [name for name in events if isinstance(name, str)] if isinstance(events, (tuple, list)) else []
    others = ["a", "b", "b c", "never", "zz"]

    def record():
        lhs, rhs = (rng.choice(known if known and rng.random() < 0.9 else others) for _ in range(2))
        op = rng.choice(CANONICAL_SYMBOLS) if rng.random() < 0.9 else rng.choice(["~", Rel.LT, None])
        return rng.choice([Constraint, lambda *r: r, lambda *r: list(r)])(lhs, op, rhs, 0)

    records = [record() if rng.random() < 0.9 else junk(rng, 1) for _ in range(rng.randrange(4))]
    return events, records, rng.choice([tuple, list, lambda rs: (r for r in rs)])


def test_spec_to_text_writes_what_spec_to_matrix_accepts_and_names_what_it_refuses():
    rng = random.Random(20261025)
    outcomes = Counter()
    for _ in range(3000):
        events, records, wrap = near_valid_spec(rng)
        try:
            built = spec_to_matrix(SyncSpec(events, wrap(records)))
        except ValidationError as exc:
            built = exc
        try:
            text = spec_to_text(SyncSpec(events, wrap(records)))
        except ValidationError as exc:
            if isinstance(built, ValidationError):
                assert str(exc) == str(built)
                outcomes["builder refuses"] += 1
            else:
                assert str(exc).startswith(("spec does not read back", "spec reads back"))
                outcomes["read-back refuses"] += 1
            continue
        if isinstance(built, ValidationError):
            assert text == "\n" and events in ((), []) and records == []
            outcomes["empty"] += 1
        else:
            back = parse_spec(text)
            assert back.events == built.labels
            assert [c[:3] for c in back.constraints] == [tuple(r)[:3] for r in records]
            outcomes["written"] += 1
    assert min(outcomes[k] for k in ("builder refuses", "read-back refuses", "empty", "written")) >= 50, outcomes


@st.composite
def matrices(draw, n):
    grid = [[Rel.ANY] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            grid[i][j] = draw(st.sampled_from(ALL_RELS))
            grid[j][i] = grid[i][j].converse()
    return SyncMatrix(default_labels(n), grid)


@st.composite
def permuted_matrices(draw):
    """A matrix over one to twelve events, a second one (or the same), and a
    permutation of the events."""
    n = draw(st.integers(1, 12))
    p = draw(matrices(n))
    q = draw(st.one_of(st.just(p), matrices(n)))
    return p, q, draw(st.permutations(range(n)))


@seed(20261023)
@PROPERTY
@given(permuted_matrices())
def test_event_permutations_equal_the_rel_grid_reference(case):
    p, q, order = case
    n = p.n
    assert p._reordered(order) == reference_reordered(p, order)
    i, j = order[0], order[-1]
    swap = list(range(n))
    swap[i], swap[j] = j, i
    assert p.swap_events(i, j) == reference_reordered(p, swap)
    transposed = [[p.cells[j][i] for j in range(n)] for i in range(n)]
    assert p.converse() == SyncMatrix(p.labels, transposed)
    assert p.converse().cells == tuple(tuple(c.converse() for c in row) for row in p.cells)
    # q with its events shuffled realigns to q itself.
    shuffled = reference_reordered(q, order)
    assert equivalent(p, shuffled) == (close(p).closed == close(q).closed)
    assert equivalent(q, shuffled)


ARG_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    max_size=8,
)
NEQ = st.sampled_from([[], ["--neq-as", "keep"], ["--neq-as", "lt"], ["--neq-as", "gt"]])


@st.composite
def cli_cases(draw):
    """(file bytes, other file bytes, argv with FILE and OTHER placeholders)."""
    # Only text from spec_texts may carry --verify: it names at most five
    # events, which keeps the exhaustive search small.
    from_spec = draw(st.booleans())
    if from_spec:
        data = draw(spec_texts()).encode()
    else:
        data = draw(st.binary(max_size=64))
    other = draw(st.one_of(spec_texts().map(str.encode), st.binary(max_size=32)))
    name = st.one_of(st.sampled_from(NAMES), ARG_TEXT)
    number = st.one_of(st.integers(-2, 6).map(str), st.just("100"), ARG_TEXT)
    command = draw(
        st.sampled_from(["close", "deadlock", "bounds", "equiv", "swap", "atoms", "count", "dot", "junk"])
    )
    if command == "close":
        argv = ["close", "FILE", *draw(NEQ)]
        argv += draw(st.sampled_from([[], ["--format", "text"], ["--format", "interchange"]]))
        if from_spec and draw(st.booleans()):
            argv.append("--verify")
    elif command in ("deadlock", "bounds", "dot"):
        argv = [command, "FILE", *draw(NEQ)]
    elif command == "equiv":
        argv = ["equiv", "FILE", "OTHER", *draw(NEQ)]
    elif command == "swap":
        argv = ["swap", "FILE", draw(name), draw(name), *draw(NEQ)]
    elif command in ("atoms", "count"):
        argv = [command, draw(number)]
    else:
        argv = draw(st.lists(ARG_TEXT, max_size=4))
    return data, other, argv


@pytest.fixture(scope="module")
def case_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_cases")


@seed(20261019)
@PROPERTY
@given(cli_cases())
def test_cli_exits_with_a_contract_code_and_never_raises(case_dir, case):
    data, other, argv = case
    paths = {"FILE": case_dir / "file.sync", "OTHER": case_dir / "other.sync"}
    paths["FILE"].write_bytes(data)
    paths["OTHER"].write_bytes(other)
    argv = [str(paths[arg]) if arg in paths else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
