"""Shared builders for the test suite."""

import json
import random
import re

from syncalg.algebra import ALL_RELS, CANONICAL_SYMBOLS, Rel
from syncalg.errors import ParseError, ValidationError
from syncalg.cli import render_matrix
from syncalg.format import Constraint, NeqMode, SyncSpec, matrix_to_interchange
from syncalg.matrix import SyncMatrix, default_labels
from syncalg.oracle import atom_of


def random_matrix(rng: random.Random, n: int, allowed=ALL_RELS) -> SyncMatrix:
    """A valid matrix with each above-diagonal cell drawn from ``allowed``."""
    grid = [[Rel.ANY] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            cell = rng.choice(allowed)
            grid[i][j] = cell
            grid[j][i] = cell.converse()
    return SyncMatrix(default_labels(n), tuple(tuple(row) for row in grid))


def planted_matrix(rng, n, density, extra=()):
    """A satisfiable matrix: each declared cell holds the planted times' atom.

    ``extra`` entries (i < j) replace whatever was planted at their cells.
    """
    times = [rng.randrange(n // 2) for _ in range(n)]
    entries = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                atom = atom_of(times[i], times[j])
                rel = rng.choice([r for r in ALL_RELS if r.contains(atom) and r != Rel.ANY])
                if atom != Rel.EQ and rng.random() < 0.3:
                    rel = Rel.NE
                entries[i, j] = rel
    entries.update({(i, j): rel for i, j, rel in extra})
    return SyncMatrix.from_entries(
        default_labels(n), [(i, j, rel) for (i, j), rel in entries.items()]
    )


def reference_propagate(cells, pair_order=None):
    """The closure sweep on Rel operators, kept to check the int kernel."""
    n = len(cells)
    if pair_order is None:
        pair_order = [(i, j) for i in range(n) for j in range(i + 1, n)]
    passes = 0
    changed = True
    while changed:
        changed = False
        passes += 1
        for i, j in pair_order:
            through = Rel.ANY
            for k in range(n):
                if k != i and k != j:
                    through &= cells[i][k].compose(cells[k][j])
            narrowed = cells[i][j] & through
            if narrowed != cells[i][j]:
                cells[i][j] = narrowed
                cells[j][i] = narrowed.converse()
                changed = True
    return passes


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def shares_strings(spec: SyncSpec) -> bool:
    """Whether every record's names are the spec's event objects and its
    symbol the CANONICAL_SYMBOLS object."""
    events = {name: name for name in spec.events}
    symbols = {symbol: symbol for symbol in CANONICAL_SYMBOLS}
    return all(
        c.lhs is events[c.lhs] and c.rhs is events[c.rhs] and c.op is symbols[c.op]
        for c in spec.constraints
    )


def reference_parse_spec(text):
    """parse_spec with every line through every check, kept to check its fast path."""
    roster = {}
    constraints = []
    closed_roster = False
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        constraint_shaped = len(tokens) == 3 and tokens[1] in CANONICAL_SYMBOLS
        if not roster and tokens[0] == "events" and not constraint_shaped:
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
            roster[name] = None
        constraints.append(Constraint(lhs, op, rhs, lineno))
    return SyncSpec(tuple(roster), tuple(constraints))


def substitute_neq(entries, mode):
    """The != policy on directed (i, j, Rel) entries, kept for the reference
    builder: only a written != is rewritten, in its written direction."""
    if not isinstance(mode, NeqMode):
        raise ValidationError(f"!= mode must be a NeqMode member, not {mode!r}")
    if mode is NeqMode.KEEP:
        return list(entries)
    replacement = Rel.LT if mode is NeqMode.AS_LT else Rel.GT
    return [(i, j, replacement if rel == Rel.NE else rel) for i, j, rel in entries]


def reference_spec_to_matrix(spec, neq_as=NeqMode.KEEP):
    """spec_to_matrix as a list of entries written twice each on Rel cells,
    kept to check its code grid.

    The event list is checked first, through `SyncMatrix.unconstrained`; then
    each declaration's fault is raised where it is read: an unknown event,
    then an unknown symbol, then a self-constraint."""
    labels = SyncMatrix.unconstrained(spec.events).labels
    index = {name: k for k, name in enumerate(labels)}
    entries = []
    for c in spec.constraints:
        try:
            i, j = index[c.lhs], index[c.rhs]
        except KeyError as exc:
            raise ValidationError(f"unknown event {exc.args[0]!r}") from None
        rel = Rel.from_symbol(c.op)
        if i == j:
            raise ValidationError(f"event {labels[i]!r} cannot constrain itself")
        entries.append((i, j, rel))
    cells = [[Rel.ANY] * len(labels) for _ in labels]
    for i, j, rel in substitute_neq(entries, neq_as):
        cells[i][j] &= rel
        cells[j][i] &= rel.converse()
    return SyncMatrix(labels, cells)


def reference_reordered(matrix, order):
    """The matrix with event order[k] moved to place k, permuted on its Rel grid."""
    cells = matrix.cells
    return SyncMatrix(
        [matrix.labels[k] for k in order],
        [[cells[r][c] for c in order] for r in order],
    )


def reference_report_to_interchange(report):
    """report_to_interchange as one dict through json.dumps, kept to check its text writer."""
    m = report.closed
    doc = {
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
    # The matrix document's members first, as json.dumps would join the two.
    return matrix_to_interchange(m)[:-1] + ", " + json.dumps(doc)[1:]


def reference_render_report(report):
    """cli.render_report reading each symbol through Rel.symbol, kept to check its text."""
    m = report.closed
    lines = ["closed matrix:"]
    lines.extend("  " + row for row in render_matrix(m).splitlines())
    lines.append("bounds:")
    for name, bound in zip(m.labels, report.bounds):
        lines.append(f"  {name}: {bound.describe()}")
    lines.append(f"deadlock: {'yes' if report.deadlocked else 'no'}")
    for i, j in report.deadlock_pairs:
        lines.append(f"  deadlocked pair: ({m.labels[i]}, {m.labels[j]})")
    if report.implied:
        lines.append("implied:")
        for c in report.implied:
            lines.append(
                f"  ({m.labels[c.i]}, {m.labels[c.j]}): "
                f"{c.before.symbol} tightened to {c.after.symbol}"
            )
    else:
        lines.append("implied: none")
    lines.append(f"iterations: {report.iterations}")
    return "\n".join(lines)
