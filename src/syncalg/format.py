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
from .closure import ClosureReport
from .errors import InterchangeError, ParseError, ValidationError
from .matrix import SyncMatrix

# json is imported inside the three interchange functions, so a command
# that prints text or DOT starts without loading it.

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class Constraint(namedtuple("Constraint", "lhs op rhs line")):
    """One directed declaration, with its 1-based source line (0 if synthesized)."""

    __slots__ = ()


class SyncSpec(namedtuple("SyncSpec", "events constraints")):
    """A parsed declaration file: event order plus directed constraints."""

    __slots__ = ()


def parse_spec(text: str) -> SyncSpec:
    """Parse declaration text; all errors carry the offending line number."""
    # Insertion-ordered: one dict is the event order and the name set.  It
    # is empty exactly until a significant line has been read.
    roster: dict[str, None] = {}
    constraints: list[Constraint] = []
    closed_roster = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if not roster and tokens[0] == "events" and not _constraint_shaped(tokens):
            if len(tokens) < 2:
                raise ParseError(lineno, "events directive names no events")
            for name in tokens[1:]:
                if not _NAME_RE.match(name):
                    raise ParseError(lineno, f"invalid event name {name!r}")
                if name in roster:
                    raise ParseError(lineno, f"event {name!r} listed twice")
                roster[name] = None
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
            roster[name] = None  # a name already listed keeps its place
        constraints.append(Constraint(lhs, op, rhs, lineno))

    return SyncSpec(tuple(roster), tuple(constraints))


def _constraint_shaped(tokens: list[str]) -> bool:
    # "events < done" is a constraint on an event named "events", not a
    # directive; only the token shape can tell the two readings apart.
    return len(tokens) == 3 and tokens[1] in CANONICAL_SYMBOLS


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


def substitute_neq(
    entries: Iterable[tuple[int, int, Rel]],
    mode: NeqMode,
) -> list[tuple[int, int, Rel]]:
    """Apply a NeqMode to directed declarations.

    Only exact exclusion declarations are rewritten; composite cells that
    merely contain the exclusion's atoms arise from conjunction, not from
    a written !=, and keep their meaning.
    """
    if mode is NeqMode.KEEP:
        return list(entries)
    replacement = Rel.LT if mode is NeqMode.AS_LT else Rel.GT
    return [
        (i, j, replacement if rel == Rel.NE else rel)
        for i, j, rel in entries
    ]


def spec_to_matrix(spec: SyncSpec, neq_as: NeqMode = NeqMode.KEEP) -> SyncMatrix:
    """Conjoin the declarations into a matrix, applying the != policy first.

    The policy must act here, while declarations still have a direction:
    a != b rewritten AS_LT becomes a < b, but the matrix cell it lands in
    no longer remembers whether a or b was written first.
    """
    index = {name: k for k, name in enumerate(spec.events)}
    try:
        entries = [
            (index[c.lhs], index[c.rhs], Rel.from_symbol(c.op))
            for c in spec.constraints
        ]
    except KeyError as exc:
        raise ValidationError(f"unknown event {exc.args[0]!r}") from None
    return SyncMatrix.from_entries(spec.events, substitute_neq(entries, neq_as))


def matrix_to_spec(matrix: SyncMatrix) -> SyncSpec:
    """Declarations recovering the matrix: one per constrained pair above the diagonal."""
    constraints = tuple(
        Constraint(matrix.labels[i], matrix.cells[i][j].symbol, matrix.labels[j], 0)
        for i in range(matrix.n)
        for j in range(i + 1, matrix.n)
        if matrix.cells[i][j] != Rel.ANY
    )
    return SyncSpec(matrix.labels, constraints)


def spec_to_text(spec: SyncSpec) -> str:
    """Render a spec back to declaration text, directive first.

    The text is parsed back, so the grammar has one owner: a spec that
    reads back as another (a label ``a b``, or events ``never any``, whose
    directive reads as a constraint) raises ValidationError.
    """
    lines = ["events " + " ".join(spec.events)] if spec.events else []
    lines += [f"{c.lhs} {c.op} {c.rhs}" for c in spec.constraints]
    text = "\n".join(lines) + "\n"
    try:
        back = parse_spec(text)
    except ParseError as exc:
        raise ValidationError(f"spec does not read back from declaration text: {exc}") from None
    written = (tuple(spec.events), [(c.lhs, c.op, c.rhs) for c in spec.constraints])
    if (back.events, [c[:3] for c in back.constraints]) != written:
        raise ValidationError("spec reads back from declaration text as a different system")
    return text


def matrix_to_interchange(matrix: SyncMatrix) -> str:
    """JSON document for a bare matrix: events plus the symbol grid."""
    import json

    doc = {
        "events": list(matrix.labels),
        "matrix": [list(map(CANONICAL_SYMBOLS.__getitem__, row)) for row in matrix.cells],
    }
    return json.dumps(doc)


def report_to_interchange(report: ClosureReport) -> str:
    """JSON document for a closure report.

    Pair positions are emitted as label pairs rather than indices so the
    document stands alone.
    """
    import json

    m = report.closed
    doc = {
        "events": list(m.labels),
        "matrix": [list(map(CANONICAL_SYMBOLS.__getitem__, row)) for row in m.cells],
        "bounds": [bound.symbol for bound in report.bounds],
        "deadlock": report.deadlocked,
        "deadlock_pairs": [
            [m.labels[i], m.labels[j]] for i, j in report.deadlock_pairs
        ],
        "implied": [
            {
                "pair": [m.labels[c.i], m.labels[c.j]],
                "before": c.before.symbol,
                "after": c.after.symbol,
            }
            for c in report.implied
        ],
        "iterations": report.iterations,
    }
    return json.dumps(doc)


def interchange_to_matrix(text: str) -> SyncMatrix:
    """Read a matrix back from interchange JSON, checking the schema.

    Only ``events`` and ``matrix`` are consulted; report-level members
    and unknown keys are ignored, so a report document round-trips into
    its closed matrix.
    """
    import json

    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InterchangeError(None, f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InterchangeError(None, "top-level value must be an object")

    events = doc.get("events")
    if events is None:
        raise InterchangeError("events", "missing")
    if (
        not isinstance(events, list)
        or not events
        or not all(isinstance(e, str) for e in events)
    ):
        raise InterchangeError("events", "must be a nonempty list of strings")
    if len(set(events)) != len(events):
        raise InterchangeError("events", "event names must be distinct")
    n = len(events)

    rows = doc.get("matrix")
    if rows is None:
        raise InterchangeError("matrix", "missing")
    if not isinstance(rows, list) or len(rows) != n:
        raise InterchangeError("matrix", f"must be a list of {n} rows")
    for row in rows:
        if not isinstance(row, list) or len(row) != n:
            raise InterchangeError("matrix", f"every row must hold {n} symbols")
    try:
        # Lazy rows: the constructor builds the tuple grid without a
        # second n-by-n list beside the decoded document.
        return SyncMatrix(events, map(_relations, rows))
    except ValidationError as exc:
        raise InterchangeError("matrix", str(exc)) from None


def _relations(row: list) -> tuple[Rel, ...]:
    try:
        return tuple(map(_REL_OF_SYMBOL.__getitem__, row))
    except (KeyError, TypeError):
        # Redo the row symbol by symbol for the error naming the bad one.
        return tuple(map(Rel.from_symbol, row))


def to_dot(report: ClosureReport) -> str:
    """Graphviz DOT text for a closed system.

    Nodes show the event name with its bound symbol; one edge per
    constrained above-diagonal pair, with empty (deadlocked) pairs drawn
    dashed.  Backslashes and double quotes in event names are escaped, so
    any label gives valid DOT.
    """
    m = report.closed
    names = [name.replace("\\", "\\\\").replace('"', '\\"') for name in m.labels]
    lines = ["digraph synchronization {"]
    for name, bound in zip(names, report.bounds):
        lines.append(f'  "{name}" [label="{name}\\n[{bound.symbol}]"];')
    for i in range(m.n):
        for j in range(i + 1, m.n):
            cell = m.cells[i][j]
            if cell == Rel.ANY:
                continue
            style = ", style=dashed" if cell == Rel.NEVER else ""
            lines.append(
                f'  "{names[i]}" -> "{names[j]}" [label="{cell.symbol}"{style}];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
