"""Tests for the declaration language, interchange JSON, and DOT output."""

import json
import random
import sys

import pytest

from syncalg.algebra import ALL_RELS, Rel
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

from helpers import planted_matrix, random_matrix, reference_report_to_interchange, shares_strings


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


@pytest.mark.parametrize(
    "text",
    [
        "events load store flush\nload <= store\nflush never load\n",  # directive
        "load <= store\nstore != load\nflush >= store\n",  # first mention; flush on the slow path
    ],
    ids=["directive", "first mention"],
)
def test_parsed_records_share_the_event_and_symbol_objects(text):
    spec = parse_spec(text)
    assert spec.events == ("load", "store", "flush")
    assert spec.constraints[0].lhs is spec.events[0]
    assert shares_strings(spec)


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


@pytest.mark.parametrize("char", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_parse_ends_lines_only_at_newlines(char):
    # Inside a comment the character is comment text; between two
    # constraints it is whitespace that joins them into one bad line.
    spec = parse_spec(f"a < b # note{char}page break\nb < c\n")
    assert [c.line for c in spec.constraints] == [1, 2]
    with pytest.raises(ParseError) as err:
        parse_spec(f"events a b c\na < b{char}b < c\n")
    assert str(err.value) == "line 2: expected '<name> <relop> <name>'"


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_parse_counts_lines_for_each_newline_convention(newline):
    spec = parse_spec(newline.join(["# head", "a < b", "", "b < c", ""]))
    assert [c.line for c in spec.constraints] == [2, 4]
    with pytest.raises(ParseError) as err:
        parse_spec(newline.join(["a < b", "b < c", "b <<< c"]))
    assert err.value.lineno == 3


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


@pytest.mark.parametrize("mode", ["keep", "lt", None])
def test_neq_mode_must_be_a_member(mode):
    message = f"!= mode must be a NeqMode member, not {mode!r}"
    # The mode is checked before any declaration, so it is named ahead of
    # an unknown event, a bad symbol or a self-constraint.
    for constraints in [
        [("a", "!=", "b")],
        [("a", "<", "b"), ("zz", "!=", "b")],
        [("a", "<<", "b")],
        [("a", "!=", "a")],
    ]:
        spec = SyncSpec(("a", "b"), tuple(Constraint(*c, k) for k, c in enumerate(constraints, 1)))
        with pytest.raises(ValidationError) as err:
            spec_to_matrix(spec, mode)
        assert str(err.value) == message


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


@pytest.mark.parametrize(
    "constraints,message",
    [
        ([("a", "<<", "b"), ("a", "<", "c")], "unknown relation symbol '<<'"),
        ([("a", "<", "b"), ("z", "<<", "b")], "unknown event 'z'"),
        ([("a", "<", "b"), ("a", ["<"], "b")], "unknown relation symbol ['<']"),
        ([("a", Rel.LT, "b")], "unknown relation symbol <Rel.LT: 1>"),
    ],
)
def test_spec_to_matrix_names_the_first_bad_declaration(constraints, message):
    spec = SyncSpec(("a", "b"), tuple(Constraint(*c, 0) for c in constraints))
    with pytest.raises(ValidationError) as caught:
        spec_to_matrix(spec)
    assert str(caught.value) == message


def test_spec_to_matrix_reports_the_first_faulty_declaration():
    self_first = SyncSpec(("a", "b"), (Constraint("a", "<", "a", 1), Constraint("zz", "<", "b", 2)))
    with pytest.raises(ValidationError, match=r"^event 'a' cannot constrain itself$"):
        spec_to_matrix(self_first)
    unknown_first = SyncSpec(("a", "b"), (Constraint("zz", "<", "b", 1), Constraint("a", "<", "a", 2)))
    with pytest.raises(ValidationError, match=r"^unknown event 'zz'$"):
        spec_to_matrix(unknown_first)


@pytest.mark.parametrize(
    "record",
    [
        Constraint(["a"], "<", "b", 1),
        Constraint("a", "<", ["b"], 1),
        ("a", "<", "b"),
        ("a", "<", "b", 1, 2),
        7,
    ],
)
def test_spec_to_matrix_names_a_malformed_declaration_record(record):
    spec = SyncSpec(("a", "b"), (Constraint("a", "<", "b", 1), record))
    with pytest.raises(ValidationError) as caught:
        spec_to_matrix(spec)
    assert str(caught.value) == f"malformed declaration {record!r}"


@pytest.mark.parametrize(
    "record",
    [
        iter(("a", "<", "b", 1)),
        "a<b1",
        {"a": 0, "<": 0, "b": 0, 1: 0},
        {"a", "<", "b", 1},  # its order would follow the string hash seed
    ],
    ids=["iterator", "str", "dict", "set"],
)
def test_a_declaration_record_is_a_tuple_or_a_list(record):
    for write in (spec_to_text, spec_to_matrix):
        with pytest.raises(ValidationError) as caught:
            write(SyncSpec(("a", "b"), [record]))
        assert str(caught.value) == f"malformed declaration {record!r}"
    assert spec_to_text(SyncSpec(("a", "b"), [["a", "<", "b", 1]])) == "events a b\na < b\n"


@pytest.mark.parametrize(
    "record,message",
    [
        (("a", "<", "zz", 1), "unknown event 'zz'"),
        (("zz", "<", "b", 1), "unknown event 'zz'"),
        (("a", "~", "b", 1), "unknown relation symbol '~'"),
        (("a", "<", "a", 1), "event 'a' cannot constrain itself"),
    ],
)
def test_spec_to_matrix_names_the_fault_of_a_plain_tuple_declaration(record, message):
    spec = SyncSpec(("a", "b"), (("a", "<", "b", 1), record))
    with pytest.raises(ValidationError) as caught:
        spec_to_matrix(spec)
    assert str(caught.value) == message


@pytest.mark.parametrize("events", [None, 5, (["a"],), "ab"])
def test_spec_to_matrix_rejects_events_that_are_not_a_sequence_of_strings(events):
    with pytest.raises(ValidationError, match=r"^event labels must be a sequence of strings$"):
        spec_to_matrix(SyncSpec(events, ()))


@pytest.mark.parametrize("constraints", [None, 5, 2.5, object()])
def test_spec_to_matrix_rejects_a_declaration_list_that_is_not_iterable(constraints):
    with pytest.raises(ValidationError) as caught:
        spec_to_matrix(SyncSpec(("a", "b"), constraints))
    assert str(caught.value) == f"malformed declaration list {constraints!r}"


def test_spec_to_matrix_checks_the_whole_event_list_before_the_declarations():
    for events, message in [((), "a matrix needs at least one event"), (("a", "a"), "event labels must be distinct")]:
        spec = SyncSpec(events, (Constraint("zz", "<<", "zz", 1),))
        with pytest.raises(ValidationError, match=f"^{message}$"):
            spec_to_matrix(spec, "lt")


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


@pytest.mark.parametrize(
    "spec,message",
    [
        (SyncSpec(("a", "b"), 5), "malformed declaration list 5"),
        (SyncSpec(("a", "b"), None), "malformed declaration list None"),
        (SyncSpec(("a", "b"), "ab"), "malformed declaration 'a'"),
        (SyncSpec(("a", "b"), (("a", "<", "b"),)), "malformed declaration ('a', '<', 'b')"),
        (SyncSpec(("a", "b"), (7,)), "malformed declaration 7"),
        (SyncSpec(5, ()), "event labels must be a sequence of strings"),
        (SyncSpec(None, ()), "event labels must be a sequence of strings"),
        (SyncSpec("ab", ()), "event labels must be a sequence of strings"),
        (SyncSpec(("a", "a"), ()), "event labels must be distinct"),
        (SyncSpec(("a", "b"), (("a", "<", "zz", 1),)), "unknown event 'zz'"),
        (SyncSpec(("a", "b"), (("a", "~", "b", 1),)), "unknown relation symbol '~'"),
        (SyncSpec(("a", "b"), (("a", "<", "a", 1),)), "event 'a' cannot constrain itself"),
        (SyncSpec((), (("a", "<", "b", 1),)), "a matrix needs at least one event"),
    ],
    ids=lambda x: repr(x) if isinstance(x, SyncSpec) else None,
)
def test_spec_to_text_reads_a_spec_by_the_matrix_builder_rules(spec, message):
    for write in (spec_to_text, spec_to_matrix):
        with pytest.raises(ValidationError) as caught:
            write(spec)
        assert str(caught.value) == message


def test_spec_to_text_writes_a_plain_record_as_its_constraint():
    records = [("a", "<", "b", 0), ("b", "!=", "c", 7)]
    plain = spec_to_text(SyncSpec(("a", "b", "c"), records))
    assert plain == spec_to_text(SyncSpec(("a", "b", "c"), tuple(Constraint(*r) for r in records)))
    assert plain == "events a b c\na < b\nb != c\n"
    assert spec_to_text(SyncSpec((), ())) == "\n"


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


# A satisfiable system with an implied cell (a"1, c\d), two unconstrained
# pairs DOT leaves out and labels that need escaping, and a deadlocked one
# whose every pair collapses to never.
SATISFIABLE = SyncMatrix.from_entries(
    ('a"1', "b", "c\\d", "e"), [(0, 1, Rel.GT), (1, 2, Rel.GE), (3, 0, Rel.NE)]
)
DEADLOCKED = SyncMatrix.from_entries(
    ("a", "b", "c", "d"), [(0, 1, Rel.GT), (1, 2, Rel.GT), (2, 0, Rel.GT), (3, 0, Rel.LE)]
)


def test_report_interchange_text_is_pinned():
    assert report_to_interchange(close(SATISFIABLE)) == json.dumps(
        {
            "events": ['a"1', "b", "c\\d", "e"],
            "matrix": [
                ["any", ">", ">", "!="],
                ["<", "any", ">=", "any"],
                ["<", "<=", "any", "any"],
                ["!=", "any", "any", "any"],
            ],
            "bounds": [">", "never", "<", "!="],
            "deadlock": False,
            "deadlock_pairs": [],
            "implied": [{"pair": ['a"1', "c\\d"], "before": "any", "after": ">"}],
            "iterations": 2,
        }
    )
    pairs = [["a", "b"], ["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"], ["c", "d"]]
    assert report_to_interchange(close(DEADLOCKED)) == json.dumps(
        {
            "events": ["a", "b", "c", "d"],
            "matrix": [["any" if i == j else "never" for j in range(4)] for i in range(4)],
            "bounds": ["never"] * 4,
            "deadlock": True,
            "deadlock_pairs": pairs,
            "implied": [
                {"pair": pair, "before": before, "after": "never"}
                for pair, before in zip(pairs, [">", "<", ">=", ">", "any", "any"])
            ],
            "iterations": 2,
        }
    )


def test_report_interchange_reads_back_as_the_closed_matrix():
    m = SyncMatrix.from_entries(("a", "b", "c"), [(0, 1, Rel.GT), (1, 2, Rel.GT)])
    report = close(m)
    assert interchange_to_matrix(report_to_interchange(report)) == report.closed


def test_report_writer_equals_the_json_dumps_reference_on_planted_reports():
    rng = random.Random(41)
    deadlocked = 0
    for trial in range(640):
        n = trial % 40 + 1
        extra = []
        if trial % 2 and n >= 3:  # a declared strict cycle over 3-6 events
            cycle = sorted(rng.sample(range(n), rng.randint(3, min(n, 6))))
            extra = [(a, b, Rel.LT) for a, b in zip(cycle, cycle[1:])] + [(cycle[0], cycle[-1], Rel.GT)]
        m = planted_matrix(rng, n, rng.uniform(0.1, 0.3), extra) if n > 1 else SyncMatrix.unconstrained(("e1",))
        report = close(m)
        assert report.deadlocked == bool(extra)
        deadlocked += report.deadlocked
        assert report_to_interchange(report) == reference_report_to_interchange(report)
    assert deadlocked == 304


def test_report_writer_equals_the_json_dumps_reference_on_labels_that_need_escaping():
    rng = random.Random(43)
    pieces = ["a", "Z9", '"', "\\", "/", " ", "\0", "\t", "\n", "\x1f", "\x7f", "é", "\u2028", "\U0001f600", "\ud800"]
    deadlocked = 0
    for _ in range(600):
        n = rng.randint(1, 12)
        labels = set()
        while len(labels) < n:
            labels.add("".join(rng.choices(pieces, k=rng.randint(0, 4))))
        m = random_matrix(rng, n, ALL_RELS + (Rel.ANY,) * rng.randint(0, 24))
        report = close(SyncMatrix(sorted(labels), m.cells))
        deadlocked += report.deadlocked
        assert report_to_interchange(report) == reference_report_to_interchange(report)
    assert 100 < deadlocked < 500


@pytest.mark.parametrize(
    "text,key",
    [
        ("[]", None),
        ("not json", None),
        pytest.param("[" * 100000, None, id="nested-past-the-recursion-limit"),
        pytest.param(
            '{"events": ["a"], "matrix": [["any"]], "x": ' + "9" * 5000 + "}",
            None,
            id="integer-past-the-digit-limit",
            marks=pytest.mark.skipif(
                not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
            ),
        ),
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


@pytest.mark.parametrize(
    "events,message",
    [
        ("[]", "a matrix needs at least one event"),
        ('["a", 2]', "event labels must be a sequence of strings"),
        ('["a", "a"]', "event labels must be distinct"),
        ('"ab"', "must be a nonempty list of strings"),
    ],
    ids=["empty", "not-strings", "repeated", "not-a-list"],
)
def test_interchange_names_each_event_list_fault(events, message):
    with pytest.raises(InterchangeError) as err:
        interchange_to_matrix(f'{{"events": {events}, "matrix": [["any"]]}}')
    assert str(err.value) == f"key 'events': {message}"


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


PAIR_DOCUMENT = '{"events": ["a", "b"], "matrix": [["any", "<"], [">", "any"]]}'


@pytest.mark.parametrize(
    "document",
    [PAIR_DOCUMENT.encode(), bytearray(PAIR_DOCUMENT.encode()), PAIR_DOCUMENT.encode("utf-16")],
    ids=["bytes", "bytearray", "utf-16"],
)
def test_interchange_refuses_a_document_that_is_not_a_str(document):
    # Like parse_spec, interchange_to_matrix decodes no bytes.
    assert interchange_to_matrix(PAIR_DOCUMENT).labels == ("a", "b")
    with pytest.raises(InterchangeError) as err:
        interchange_to_matrix(document)
    assert err.value.key is None
    assert str(err.value) == f"document must be a str, not {type(document).__name__}"


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


def test_dot_text_is_pinned():
    assert to_dot(close(SATISFIABLE)) == (
        "digraph synchronization {\n"
        '  "a\\"1" [label="a\\"1\\n[>]"];\n'
        '  "b" [label="b\\n[never]"];\n'
        '  "c\\\\d" [label="c\\\\d\\n[<]"];\n'
        '  "e" [label="e\\n[!=]"];\n'
        '  "a\\"1" -> "b" [label=">"];\n'
        '  "a\\"1" -> "c\\\\d" [label=">"];\n'
        '  "a\\"1" -> "e" [label="!="];\n'
        '  "b" -> "c\\\\d" [label=">="];\n'
        "}\n"
    )
    assert to_dot(close(DEADLOCKED)) == (
        "digraph synchronization {\n"
        '  "a" [label="a\\n[never]"];\n'
        '  "b" [label="b\\n[never]"];\n'
        '  "c" [label="c\\n[never]"];\n'
        '  "d" [label="d\\n[never]"];\n'
        '  "a" -> "b" [label="never", style=dashed];\n'
        '  "a" -> "c" [label="never", style=dashed];\n'
        '  "a" -> "d" [label="never", style=dashed];\n'
        '  "b" -> "c" [label="never", style=dashed];\n'
        '  "b" -> "d" [label="never", style=dashed];\n'
        '  "c" -> "d" [label="never", style=dashed];\n'
        "}\n"
    )


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
