"""Property tests: the != invariant, format round trips, and CLI robustness.

Every property runs a bounded number of examples from a fixed seed and
keeps no example database, so every run draws the same examples.
"""

import contextlib
import io

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from syncalg.algebra import CANONICAL_SYMBOLS, Rel
from syncalg.cli import main
from syncalg.closure import close
from syncalg.format import (
    NeqMode,
    interchange_to_matrix,
    matrix_to_interchange,
    matrix_to_spec,
    parse_spec,
    report_to_interchange,
    spec_to_matrix,
    spec_to_text,
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
