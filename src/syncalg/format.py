"""Reading and writing synchronization systems.

Three textual forms live here:

* the declaration language, one constraint per line, for people;
* a JSON interchange form for matrices and closure reports, for tools;
* Graphviz DOT output of a closed system, for eyes.

The declaration grammar is small.  ``#`` starts a comment, blank lines
are skipped, and each remaining line is either the optional directive

    events <name> <name> ...

which must come first and fixes the event order, or a constraint

    <name> <relop> <name>

with relop one of  never < = > <= >= != any  and names matching
``[A-Za-z_][A-Za-z0-9_]*``.  Without the directive, events are
registered in order of first mention; with it, mentioning an undeclared
name is an error.  Declaring the same pair twice conjoins the two
relations.
"""

from __future__ import annotations

import enum
import re
from collections import namedtuple
from collections.abc import Iterable

from .algebra import _REL_OF_SYMBOL, CANONICAL_SYMBOLS, Rel
from .closure import ClosureReport, _tuple_new
from .errors import InterchangeError, ParseError, ValidationError
from .matrix import SyncMatrix, _checked_labels, _gather

__all__ = [
    "Constraint",
    "NeqMode",
    "SyncSpec",
    "interchange_to_matrix",
    "matrix_to_interchange",
    "matrix_to_spec",
    "parse_spec",
    "report_to_interchange",
    "spec_to_matrix",
    "spec_to_text",
    "to_dot",
]

# json is imported inside the three interchange functions, so a command
# that prints text or DOT starts without loading it.

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
# Each symbol as json.dumps writes it: none holds a character it escapes.
_QUOTED = tuple(f'"{symbol}"' for symbol in CANONICAL_SYMBOLS)
# Each symbol to its CANONICAL_SYMBOLS object, which parsed records share.
_SHARED_SYMBOL = {symbol: symbol for symbol in CANONICAL_SYMBOLS}


Constraint = namedtuple("Constraint", "lhs op rhs line")
Constraint.__doc__ = """One directed declaration, with its 1-based source line (0 if synthesized)."""

SyncSpec = namedtuple("SyncSpec", "events constraints")
SyncSpec.__doc__ = """A parsed declaration file: event order plus directed constraints."""


def parse_spec(text: str) -> SyncSpec:
    """Parse declaration text; every ParseError carries the offending line number.

    Records share their strings: each name is the one object in the
    events, and each symbol the CANONICAL_SYMBOLS entry.  Text that is
    not a ``str`` raises ValidationError.
    """
    if not isinstance(text, str):
        raise ValidationError(f"declaration text must be a str, not {type(text).__name__}")
    # Insertion-ordered: one dict is the event order, the name set and each
    # name's shared object (the directive's token, or the first mention).
    # It is empty exactly until a significant line has been read.
    roster: dict[str, str] = {}
    constraints: list[Constraint] = []
    closed_roster = False

    # Lines end only where open() in text mode would end them; splitlines()
    # would also break inside a comment at a form feed or U+2028.
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, line in enumerate(re.sub(r"#[^\n]*", "", text).split("\n"), start=1):
        tokens = line.split()
        if len(tokens) == 3:
            # A constraint on two listed events passes every check below.
            try:
                lhs, op, rhs = roster[tokens[0]], _SHARED_SYMBOL[tokens[1]], roster[tokens[2]]
            except KeyError:
                pass
            else:
                if lhs is not rhs:
                    constraints.append(_tuple_new(Constraint, (lhs, op, rhs, lineno)))
                    continue
        if not tokens:
            continue
        # "events < done" constrains an event named "events": no directive.
        shaped = len(tokens) == 3 and tokens[1] in CANONICAL_SYMBOLS
        if not roster and tokens[0] == "events" and not shaped:
            if len(tokens) < 2:
                raise ParseError(lineno, "events directive names no events")
            for name in tokens[1:]:
                if not _NAME_RE.match(name):
                    raise ParseError(lineno, f"invalid event name {name!r}")
                if name in roster:
                    raise ParseError(lineno, f"event {name!r} listed twice")
                roster[name] = name
            closed_roster = True
            continue
        if len(tokens) != 3:
            raise ParseError(lineno, "expected '<name> <relop> <name>'")
        lhs, op, rhs = tokens
        # Every name in the roster already matched _NAME_RE.
        if lhs not in roster and not _NAME_RE.match(lhs):
            raise ParseError(lineno, f"invalid event name {lhs!r}")
        if rhs not in roster and not _NAME_RE.match(rhs):
            raise ParseError(lineno, f"invalid event name {rhs!r}")
        if op not in CANONICAL_SYMBOLS:
            raise ParseError(lineno, f"unknown relation symbol {op!r}")
        if lhs == rhs:
            raise ParseError(lineno, f"event {lhs!r} cannot be synchronized with itself")
        for name in (lhs, rhs):
            if closed_roster and name not in roster:
                raise ParseError(lineno, f"event {name!r} not named in the events directive")
        # A name already listed keeps its place and its object.
        lhs, rhs = roster.setdefault(lhs, lhs), roster.setdefault(rhs, rhs)
        constraints.append(_tuple_new(Constraint, (lhs, _SHARED_SYMBOL[op], rhs, lineno)))

    return SyncSpec(tuple(roster), tuple(constraints))


class NeqMode(enum.Enum):
    """Treatment of declared exclusions (!=) ahead of closure.

    KEEP takes them at face value.  AS_LT and AS_GT rewrite each declared
    exclusion into a strict order in the direction it was written, which
    is how exclusion is resolved on hardware offering only one-sided
    waits.
    """

    KEEP = "keep"
    AS_LT = "lt"
    AS_GT = "gt"


# The int code each symbol declares under each != policy (Rel's & is slow):
# the one place the policy is written.
_CODE_OF_SYMBOL = {
    mode: {**dict(zip(CANONICAL_SYMBOLS, range(8))), "!=": rel.value}
    for mode, rel in ((NeqMode.KEEP, Rel.NE), (NeqMode.AS_LT, Rel.LT), (NeqMode.AS_GT, Rel.GT))
}


def spec_to_matrix(spec: SyncSpec, neq_as: NeqMode = NeqMode.KEEP) -> SyncMatrix:
    """Conjoin the declarations into a matrix, applying the != policy first.

    The policy must act here, while declarations still have a direction:
    a != b rewritten AS_LT becomes a < b, but the matrix cell it lands in
    no longer remembers whether a or b was written first.  A mode that is
    not a NeqMode member, such as its value ``"lt"`` or None, raises
    ValidationError.
    """
    labels = _checked_labels(spec.events)
    if not isinstance(neq_as, NeqMode):
        raise ValidationError(f"!= mode must be a NeqMode member, not {neq_as!r}")
    code_of = _CODE_OF_SYMBOL[neq_as]
    index = {name: k for k, name in enumerate(labels)}
    n = len(labels)
    grid = bytearray(b"\x07") * (n * n)  # Rel.ANY
    try:
        constraints = iter(spec.constraints)
    except TypeError:
        raise ValidationError(f"malformed declaration list {spec.constraints!r}") from None
    for record in constraints:
        # Only a tuple or a list holds its fields in a fixed order (a set's
        # follows the hash seed); a Constraint skips the slower isinstance.
        if type(record) is not Constraint and not isinstance(record, (tuple, list)):
            raise ValidationError(f"malformed declaration {record!r}")
        try:
            lhs, op, rhs, _ = record
            i, j = index[lhs], index[rhs]
        except KeyError as exc:
            raise ValidationError(f"unknown event {exc.args[0]!r}") from None
        except (TypeError, ValueError):
            raise ValidationError(f"malformed declaration {record!r}") from None
        try:
            grid[i * n + j] &= code_of[op]
        except (KeyError, TypeError):
            raise ValidationError(f"unknown relation symbol {op!r}") from None
        if i == j:
            raise ValidationError(f"event {labels[i]!r} cannot constrain itself")
    return SyncMatrix._from_declared(labels, grid)


def matrix_to_spec(matrix: SyncMatrix) -> SyncSpec:
    """Declarations recovering the matrix: one per constrained pair above the diagonal."""
    labels = matrix.labels
    constraints = tuple(
        _tuple_new(Constraint, (labels[i], CANONICAL_SYMBOLS[code], labels[j], 0))
        for i, row in enumerate(matrix._code_rows())
        for j, code in enumerate(row[i + 1 :], i + 1)
        if code != 7  # any: unconstrained
    )
    return SyncSpec(labels, constraints)


def spec_to_text(spec: SyncSpec) -> str:
    """Render a spec back to declaration text, directive first.

    The spec is read by ``spec_to_matrix`` and raises its errors; only
    the empty spec writes an empty text.  The text is parsed back, so a
    spec that reads back as another (a label ``a b``, or events ``never
    any``, a directive read as a constraint) raises ValidationError.
    """
    events = () if spec.events in ((), []) else _checked_labels(spec.events)  # () writes no directive
    records = spec.constraints
    if isinstance(records, Iterable):  # else spec_to_matrix names it
        records = tuple(records)  # read once: it may be a generator
    if events or records != ():  # the empty spec builds no matrix
        spec_to_matrix(SyncSpec(events, records))
    written = [(lhs, op, rhs) for lhs, op, rhs, _ in records]
    lines = ["events " + " ".join(events)] if events else []
    text = "\n".join(lines + [f"{lhs} {op} {rhs}" for lhs, op, rhs in written]) + "\n"
    try:
        back = parse_spec(text)
    except ParseError as exc:
        raise ValidationError(f"spec does not read back from declaration text: {exc}") from None
    if (back.events, [c[:3] for c in back.constraints]) != (events, written):
        raise ValidationError("spec reads back from declaration text as a different system")
    return text


def matrix_to_interchange(matrix: SyncMatrix) -> str:
    """JSON document for a bare matrix: events plus the symbol grid."""
    import json

    rows = ", ".join(f"[{', '.join(_gather(_QUOTED, row))}]" for row in matrix._code_rows())
    return f'{{"events": {json.dumps(matrix.labels)}, "matrix": [{rows}]}}'


def report_to_interchange(report: ClosureReport) -> str:
    """JSON document for a closure report.

    Pair positions are emitted as label pairs rather than indices so the
    document stands alone.  Like the matrix rows, the members are written
    as text: each label is quoted once, and symbols need no escaping.
    """
    import json

    m = report.closed
    quoted = [json.dumps(name) for name in m.labels]
    bounds = ", ".join([_QUOTED[bound.value] for bound in report.bounds])
    pairs = ", ".join([f"[{quoted[i]}, {quoted[j]}]" for i, j in report.deadlock_pairs])
    implied = ", ".join(
        [
            f'{{"pair": [{quoted[i]}, {quoted[j]}], "before": {_QUOTED[before]}, "after": {_QUOTED[after]}}}'
            for i, j, before, after in report.implied
        ]
    )
    # The matrix document's members first, in json.dumps's layout.
    return (
        f'{matrix_to_interchange(m)[:-1]}, "bounds": [{bounds}], "deadlock": {json.dumps(report.deadlocked)}, '
        f'"deadlock_pairs": [{pairs}], "implied": [{implied}], "iterations": {json.dumps(report.iterations)}}}'
    )


def interchange_to_matrix(text: str) -> SyncMatrix:
    """Read a matrix back from interchange JSON, checking the schema.

    Only ``events`` and ``matrix`` are consulted; report-level members
    and unknown keys are ignored, so a report document round-trips into
    its closed matrix.
    """
    import json

    if not isinstance(text, str):
        raise InterchangeError(None, f"document must be a str, not {type(text).__name__}")
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError or a huge integer
        raise InterchangeError(None, f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InterchangeError(None, "top-level value must be an object")

    events = doc.get("events")
    if events is None:
        raise InterchangeError("events", "missing")
    if not isinstance(events, list):
        raise InterchangeError("events", "must be a nonempty list of strings")
    try:
        n = len(_checked_labels(events))
    except ValidationError as exc:
        raise InterchangeError("events", str(exc)) from None

    rows = doc.get("matrix")
    if rows is None:
        raise InterchangeError("matrix", "missing")
    if not isinstance(rows, list) or len(rows) != n:
        raise InterchangeError("matrix", f"must be a list of {n} rows")
    for row in rows:
        if not isinstance(row, list) or len(row) != n:
            raise InterchangeError("matrix", f"every row must hold {n} symbols")
    try:
        return SyncMatrix._from_codes(events, b"".join(map(_codes, rows)))
    except ValidationError as exc:
        raise InterchangeError("matrix", str(exc)) from None


def _codes(row: list) -> bytes:
    try:
        return bytes(_gather(_REL_OF_SYMBOL, row))
    except (KeyError, TypeError):
        # Redo the row symbol by symbol for the error naming the bad one.
        return bytes(map(Rel.from_symbol, row))


def to_dot(report: ClosureReport) -> str:
    """Graphviz DOT text for a closed system.

    Nodes show the event name with its bound symbol; one edge per
    constrained above-diagonal pair, with empty (deadlocked) pairs drawn
    dashed.  Backslashes and double quotes in event names are escaped, so
    any label gives valid DOT.
    """
    labels = report.closed.labels
    escaped = {name: name.replace("\\", "\\\\").replace('"', '\\"') for name in labels}
    lines = ["digraph synchronization {"]
    for name, bound in zip(escaped.values(), report.bounds):
        lines.append(f'  "{name}" [label="{name}\\n[{bound.symbol}]"];')
    for c in matrix_to_spec(report.closed).constraints:
        style = ", style=dashed" if c.op == "never" else ""
        lines.append(f'  "{escaped[c.lhs]}" -> "{escaped[c.rhs]}" [label="{c.op}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
