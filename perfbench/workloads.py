"""The four workloads: what one op calls, and how its output is checked.

Every call into syncalg goes through ``call(span_name, fn, *args)``.
Untimed runs pass :func:`untraced`, which just calls ``fn``; traced runs
pass a tracer's ``call``, which also records a span named after the
layer the function belongs to.  ``extras`` runs only in traced runs,
outside the op, to time public calls that the op itself does not make
but that a user of the same input would (bounds, DOT, text, reading the
JSON back).  Checks and counters run outside every timed region.

Importing this module imports syncalg, so a worker imports it inside its
set-up timer.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from syncalg import (
    Rel,
    boundedness,
    close,
    interchange_to_matrix,
    matrix_to_interchange,
    minimal_network,
    parse_spec,
    report_to_interchange,
    spec_to_matrix,
    to_dot,
)
from syncalg.cli import render_matrix, render_report
from syncalg.oracle import atom_of

SRC = Path(__file__).resolve().parent.parent / "src"
CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
}

# minimal_network walks (n + 1) ** n assignments; 7 ** 6 is still quick.
ORACLE_MAX_EVENTS = 6


def untraced(name: str, fn: Callable, *args):
    return fn(*args)


@dataclass(frozen=True)
class Workload:
    op: Callable  # (call, item) -> output
    extras: Callable  # (call, item, output) -> bytes rendered
    check: Callable  # (item, output) -> bool
    counters: Callable  # (item, output) -> {counter: value}
    in_children: bool = False  # the work runs in child processes


# closure-sat, closure-deadlock


def closure_op(call, system):
    spec = call("format.parse", parse_spec, system.text)
    matrix = call("matrix.build", spec_to_matrix, spec)
    report = call("closure.close", close, matrix)
    doc = call("format.json", report_to_interchange, report)
    return spec, matrix, report, doc


def closure_extras(call, system, out) -> int:
    _, _, report, doc = out
    call("closure.bounds", boundedness, report.closed)
    call("format.read_json", interchange_to_matrix, doc)
    dot = call("format.dot", to_dot, report)
    text = call("cli.render_text", render_report, report)
    return len(dot) + len(text)


def check_sat(system, out) -> bool:
    _, _, report, _ = out
    cells = report.closed.cells
    t = system.times
    return (
        not report.deadlocked
        and report.closed.labels == system.names
        and all(
            cells[i][j].contains(atom_of(t[i], t[j]))
            for i in range(len(t))
            for j in range(len(t))
            if i != j
        )
    )


def check_deadlock(system, out) -> bool:
    _, _, report, _ = out
    return report.deadlocked and bool(report.deadlock_pairs)


def closure_counters(system, out) -> dict:
    spec, matrix, report, doc = out
    return {
        "format.parse_decls": len(spec.constraints),
        "matrix.cells": matrix.n * matrix.n,
        "closure.passes": report.iterations,
        "closure.narrowed": len(report.implied),
        "closure.deadlock_pairs": len(report.deadlock_pairs),
        "format.out_bytes": len(doc),
    }


# convert-large


def convert_op(call, item):
    system, i, j = item
    spec = call("format.parse", parse_spec, system.text)
    matrix = call("matrix.build", spec_to_matrix, spec)
    swapped = call("matrix.swap", matrix.swap_events, i, j)
    doc = call("format.json", matrix_to_interchange, swapped)
    back = call("format.read_json", interchange_to_matrix, doc)
    return spec, matrix, swapped, doc, back


def convert_extras(call, item, out) -> int:
    return len(call("cli.render_text", render_matrix, out[2]))


def check_convert(item, out) -> bool:
    system, i, j = item
    _, matrix, swapped, _, back = out
    return (
        back == swapped
        and matrix.labels == system.names
        and swapped.labels[i] == system.names[j]
        and swapped.labels[j] == system.names[i]
    )


def convert_counters(item, out) -> dict:
    spec, matrix, _, doc, _ = out
    return {
        "format.parse_decls": len(spec.constraints),
        "matrix.cells": matrix.n * matrix.n,
        "format.out_bytes": len(doc),
    }


# cli-small


def _run(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=CLI_ENV, timeout=60
    )


def cli_op(call, item):
    path, command, _ = item
    return call("cli.run", _run, ["-m", "syncalg", command[0], path, *command[1:]])


def cli_extras(call, item, out) -> int:
    call("cli.interp", _run, ["-c", "pass"])
    call("cli.import", _run, ["-c", "import syncalg.cli"])
    return 0


_DOT_EDGE = re.compile(r'"(\w+)" -> "(\w+)" \[label="([^"]+)"')
_references: dict[str, Any] = {}


def _reference(path: str):
    """The exact closed cells from exhaustive search, or None above the oracle's size."""
    if path not in _references:
        matrix = spec_to_matrix(parse_spec(Path(path).read_text()))
        _references[path] = minimal_network(matrix)[0] if matrix.n <= ORACLE_MAX_EVENTS else None
    return _references[path]


def _closed_cells(command, stdout: str, names) -> dict:
    """(i, j) -> Rel for every cell the command printed, or {} if it prints none."""
    index = {name: k for k, name in enumerate(names)}
    n = len(names)
    if command == ("close", "--format", "interchange"):
        rows = interchange_to_matrix(stdout).cells
        return {(i, j): rows[i][j] for i in range(n) for j in range(n)}
    if command == ("close",):
        rows = [line.split() for line in stdout.splitlines()[2 : 2 + n]]
        return {
            (index[row[0]], j): Rel.from_symbol(sym)
            for row in rows
            for j, sym in enumerate(row[1:])
        }
    if command == ("dot",):
        return {
            (index[a], index[b]): Rel.from_symbol(sym)
            for a, b, sym in _DOT_EDGE.findall(stdout)
        }
    return {}


def check_cli(item, proc) -> bool:
    path, command, system = item
    n = len(system.names)
    lines = proc.stdout.splitlines()
    expected_code = 2 if system.deadlocked and command[0] in ("close", "deadlock") else 0
    if proc.returncode != expected_code or proc.stderr:
        return False
    if command[0] == "deadlock" and lines[0] != ("deadlock" if system.deadlocked else "no deadlock"):
        return False
    if command[0] == "bounds" and [line.split(":")[0] for line in lines[:n]] != list(system.names):
        return False
    if command == ("close",) and f"deadlock: {'yes' if system.deadlocked else 'no'}" not in lines:
        return False
    cells = _closed_cells(command, proc.stdout, system.names)
    if command[0] == "close" and len(cells) != n * n:
        return False
    reference = _reference(path)
    if reference is None:
        return True
    return all(rel.contains(reference[i][j]) for (i, j), rel in cells.items() if i != j)


def cli_counters(item, proc) -> dict:
    return {"format.out_bytes": len(proc.stdout.encode())}


WORKLOADS = {
    "closure-sat": Workload(closure_op, closure_extras, check_sat, closure_counters),
    "closure-deadlock": Workload(closure_op, closure_extras, check_deadlock, closure_counters),
    "convert-large": Workload(convert_op, convert_extras, check_convert, convert_counters),
    "cli-small": Workload(cli_op, cli_extras, check_cli, cli_counters, in_children=True),
}
