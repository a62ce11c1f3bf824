"""Tests for the declaration language, interchange JSON, and DOT output."""

import json

import pytest

from syncalg.algebra import Rel
from syncalg.closure import close
from syncalg.errors import InterchangeError, ParseError, ValidationError
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
    to_dot,
)
from syncalg.matrix import SyncMatrix


def test_parse_with_directive():
    spec = parse_spec("events a b c\na < b\nb <= c\n")
    assert spec.events == ("a", "b", "c")
    assert spec.constraints == (
        Constraint("a", "<", "b", 2),
        Constraint("b", "<=", "c", 3),
    )


def test_parse_without_directive_registers_by_first_mention():
    spec = parse_spec("x > y\nz != x\n")
    assert spec.events == ("x", "y", "z")


def test_parse_skips_comments_and_blanks():
    text = "# header\n\nevents a b\n\na < b  # trailing note\n# done\n"
    spec = parse_spec(text)
    assert spec.events == ("a", "b")
    assert len(spec.constraints) == 1
    assert spec.constraints[0].line == 5


def test_parse_directive_must_come_first():
    with pytest.raises(ParseError) as err:
        parse_spec("a < b\nevents a b c\n")
    assert err.value.lineno == 2


def test_parse_event_named_events_is_allowed_in_constraints():
    # Three tokens with a relation symbol in the middle read as a
    # constraint even when the first token is the directive keyword.
    spec = parse_spec("events < done\n")
    assert spec.events == ("events", "done")
    assert spec.constraints[0].op == "<"
    spec = parse_spec("events never x\n")
    assert spec.events == ("events", "x")
    assert spec.constraints == (Constraint("events", "never", "x", 1),)


@pytest.mark.parametrize(
    "text,lineno,message",
    [
        ("a <\n", 1, "expected '<name> <relop> <name>'"),
        ("a < b c\n", 1, "expected '<name> <relop> <name>'"),
        ("a >< b\n", 1, "unknown relation symbol '><'"),
        ("1a < b\n", 1, "invalid event name '1a'"),
        ("a < 2b\n", 1, "invalid event name '2b'"),
        ("a < a\n", 1, "event 'a' cannot be synchronized with itself"),
        ("events\n", 1, "events directive names no events"),
        ("events a a\n", 1, "event 'a' listed twice"),
        ("events a-b\n", 1, "invalid event name 'a-b'"),
        ("a < b\nb ~ c\n", 2, "unknown relation symbol '~'"),
        ("events a b\na < c\n", 2, "event 'c' not named in the events directive"),
        # Lines with more than one fault: the message names the first
        # check that fails, in the parser's order of checks.
        ("events a b\nzz < 1x\n", 2, "invalid event name '1x'"),
        ("events a\nb < b\n", 2, "event 'b' cannot be synchronized with itself"),
        ("events a\na < c\n", 2, "event 'c' not named in the events directive"),
        ("events a b\nc ~ 1d\n", 2, "invalid event name '1d'"),
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno, message):
    with pytest.raises(ParseError) as err:
        parse_spec(text)
    assert err.value.lineno == lineno
    assert str(err.value) == f"line {lineno}: {message}"


def test_duplicate_pair_declarations_conjoin():
    m = spec_to_matrix(parse_spec("a <= b\na >= b\n"))
    assert m.cells[0][1] == Rel.EQ
    m = spec_to_matrix(parse_spec("a < b\nb < a\n"))
    assert m.cells[0][1] == Rel.NEVER


def test_spec_to_matrix_applies_neq_mode_directionally():
    spec = parse_spec("a != b\nb != c\nc != a\n")
    assert close(spec_to_matrix(spec)).deadlocked is False
    assert close(spec_to_matrix(spec, NeqMode.AS_LT)).deadlocked is True
    assert close(spec_to_matrix(spec, NeqMode.AS_GT)).deadlocked is True


def test_matrix_to_spec_lists_constrained_pairs_once():
    m = SyncMatrix.from_entries(("a", "b", "c"), [(0, 1, Rel.LT), (2, 0, Rel.EQ)])
    spec = matrix_to_spec(m)
    assert spec.events == ("a", "b", "c")
    triples = {(c.lhs, c.op, c.rhs) for c in spec.constraints}
    assert triples == {("a", "<", "b"), ("a", "=", "c")}
    assert all(c.line == 0 for c in spec.constraints)


def test_spec_matrix_round_trip():
    m = SyncMatrix.from_entries(
        ("a", "b", "c"),
        [(0, 1, Rel.LT), (1, 2, Rel.NE), (0, 2, Rel.NEVER)],
    )
    assert spec_to_matrix(matrix_to_spec(m)) == m


def test_spec_to_text_reparses_to_the_same_system():
    m = SyncMatrix.from_entries(("a", "b", "c"), [(0, 1, Rel.LE), (1, 2, Rel.GT)])
    text = spec_to_text(matrix_to_spec(m))
    assert text.startswith("events a b c\n")
    assert spec_to_matrix(parse_spec(text)) == m


def test_spec_to_matrix_rejects_an_event_missing_from_the_roster():
    spec = SyncSpec(("a", "b"), (Constraint("a", "<", "c", 0),))
    with pytest.raises(ValidationError, match=r"^unknown event 'c'$"):
        spec_to_matrix(spec)


def test_spec_to_text_rejects_a_label_the_language_cannot_hold():
    m = SyncMatrix.from_entries(("a b", "c"), [(0, 1, Rel.LT)])
    with pytest.raises(ValidationError, match="does not read back"):
        spec_to_text(matrix_to_spec(m))


def test_spec_to_text_rejects_a_directive_that_reads_as_a_constraint():
    # "events never any" has the shape of a constraint on an event named
    # "events", so the text would read back as a system that deadlocks.
    spec = parse_spec("never < any\n")
    assert close(spec_to_matrix(spec)).deadlocked is False
    with pytest.raises(ValidationError, match="as a different system"):
        spec_to_text(spec)


def test_interchange_round_trip():
    m = SyncMatrix.from_entries(("a", "b"), [(0, 1, Rel.GE)])
    text = matrix_to_interchange(m)
    doc = json.loads(text)
    assert doc["events"] == ["a", "b"]
    assert doc["matrix"][0][1] == ">="
    assert interchange_to_matrix(text) == m


def test_report_interchange_content():
    m = SyncMatrix.from_entries(("a", "b", "c"), [(0, 1, Rel.GT), (1, 2, Rel.GT)])
    doc = json.loads(report_to_interchange(close(m)))
    assert doc["events"] == ["a", "b", "c"]
    assert doc["matrix"][0][2] == ">"
    assert doc["bounds"] == [">", "never", "<"]
    assert doc["deadlock"] is False
    assert doc["deadlock_pairs"] == []
    assert doc["implied"] == [{"pair": ["a", "c"], "before": "any", "after": ">"}]
    assert doc["iterations"] == 2


def test_report_interchange_reads_back_as_the_closed_matrix():
    m = SyncMatrix.from_entries(("a", "b", "c"), [(0, 1, Rel.GT), (1, 2, Rel.GT)])
    report = close(m)
    assert interchange_to_matrix(report_to_interchange(report)) == report.closed


@pytest.mark.parametrize(
    "text,key",
    [
        ("[]", None),
        ("not json", None),
        pytest.param("[" * 100000, None, id="nested-past-the-recursion-limit"),
        ('{"matrix": []}', "events"),
        ('{"events": []}', "events"),
        ('{"events": ["a", "a"]}', "events"),
        ('{"events": ["a", 2]}', "events"),
        ('{"events": ["a", "b"]}', "matrix"),
        ('{"events": ["a", "b"], "matrix": [["any", "<"]]}', "matrix"),
        ('{"events": ["a", "b"], "matrix": [["any"], ["any"]]}', "matrix"),
        ('{"events": ["a", "b"], "matrix": [["any", "<<"], ["any", "any"]]}', "matrix"),
        ('{"events": ["a", "b"], "matrix": [["any", 1], [">", "any"]]}', "matrix"),
        ('{"events": ["a", "b"], "matrix": [["any", ["<"]], [">", "any"]]}', "matrix"),
        ('{"events": ["a", "b"], "matrix": [["any", "<"], ["<", "any"]]}', "matrix"),
        ('{"events": ["a", "b"], "matrix": [["=", "<"], [">", "="]]}', "matrix"),
    ],
)
def test_interchange_schema_errors_name_the_key(text, key):
    with pytest.raises(InterchangeError) as err:
        interchange_to_matrix(text)
    assert err.value.key == key


@pytest.mark.parametrize("symbol", ['"<<"', "1", '["<"]', "null", "true"])
def test_interchange_names_the_first_bad_symbol(symbol):
    text = (
        '{"events": ["a", "b", "c"], "matrix": [["any", "<", "<"], '
        f'[">", "any", {symbol}], [">", "?", "any"]]}}'
    )
    with pytest.raises(InterchangeError) as err:
        interchange_to_matrix(text)
    shown = repr(json.loads(symbol))
    assert str(err.value) == f"key 'matrix': unknown relation symbol {shown}"


def test_interchange_ignores_unknown_keys():
    text = '{"events": ["a"], "matrix": [["any"]], "notes": "kept out"}'
    assert interchange_to_matrix(text).labels == ("a",)


def test_dot_output():
    m = SyncMatrix.from_entries(("a", "b", "c"), [(0, 1, Rel.GT), (1, 2, Rel.GT)])
    dot = to_dot(close(m))
    assert dot.splitlines()[0] == "digraph synchronization {"
    assert '"a" [label="a\\n[>]"];' in dot
    assert '"b" [label="b\\n[never]"];' in dot
    assert '"a" -> "b" [label=">"];' in dot
    assert '"a" -> "c" [label=">"];' in dot
    assert dot.rstrip().endswith("}")


def test_dot_marks_deadlocked_pairs():
    m = SyncMatrix.from_entries(
        ("a", "b", "c"),
        [(0, 1, Rel.GT), (1, 2, Rel.GT), (2, 0, Rel.GT)],
    )
    dot = to_dot(close(m))
    assert dot.count("style=dashed") == 3
    assert '"a" -> "b" [label="never", style=dashed];' in dot


def test_dot_omits_unconstrained_pairs():
    m = SyncMatrix.unconstrained(("a", "b"))
    dot = to_dot(close(m))
    assert "->" not in dot


def test_dot_escapes_quotes_and_backslashes_in_labels():
    m = SyncMatrix.from_entries(('a"b', "c\\d"), [(0, 1, Rel.LT)])
    assert to_dot(close(m)) == (
        "digraph synchronization {\n"
        '  "a\\"b" [label="a\\"b\\n[<]"];\n'
        '  "c\\\\d" [label="c\\\\d\\n[>]"];\n'
        '  "a\\"b" -> "c\\\\d" [label="<"];\n'
        "}\n"
    )
