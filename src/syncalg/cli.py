"""Command-line front end.

The exit code is the machine-readable half of the contract:

* 0  success
* 1  usage, parse, validation, or guard errors
* 2  deadlock detected (close, deadlock)
* 3  systems not equivalent (equiv)

Human-readable results go to standard output; diagnostics and the
--verify note go to standard error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .closure import ClosureReport, close, equivalent
from .errors import SyncAlgebraError
from .format import (
    NeqMode,
    matrix_to_interchange,
    parse_spec,
    report_to_interchange,
    spec_to_matrix,
    to_dot,
)
from .matrix import SyncMatrix, atom_matrices, matrix_count
from .oracle import minimal_network

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DEADLOCK = 2
EXIT_DIFFERENT = 3


def _read_matrix(path: str, neq_as: str) -> SyncMatrix:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SyncAlgebraError(f"cannot read {path}: {exc}") from None
    return spec_to_matrix(parse_spec(text), NeqMode(neq_as))


def render_matrix(matrix: SyncMatrix) -> str:
    """Fixed-width grid with labels on both axes."""
    width = max([5] + [len(name) for name in matrix.labels])

    def pad(text: str) -> str:
        return text.rjust(width)

    lines = ["  ".join([pad("")] + [pad(name) for name in matrix.labels])]
    for name, row in zip(matrix.labels, matrix.cells):
        lines.append("  ".join([pad(name)] + [pad(cell.symbol) for cell in row]))
    return "\n".join(lines)


def render_report(report: ClosureReport) -> str:
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


def _verify_report(matrix: SyncMatrix, report: ClosureReport) -> None:
    """Raise if closure is unsound or misjudges deadlock; note cells looser than exact."""
    grid, satisfiable = minimal_network(matrix)
    if satisfiable == report.deadlocked:
        raise SyncAlgebraError(
            "soundness violation: closure and exhaustive search disagree on deadlock"
        )
    m = report.closed
    notes = [
        "verify: closure is sound and gives the same deadlock verdict as "
        f"exhaustive search over {m.n + 1} time values"
    ]
    for i in range(m.n):
        for j in range(i + 1, m.n):
            closed, exact = m.cells[i][j], grid[i][j]
            if not closed.contains(exact):
                raise SyncAlgebraError(
                    f"soundness violation: closed cell ({i},{j}) excludes a "
                    "realizable ordering"
                )
            if closed != exact:
                notes.append(
                    f"verify: ({m.labels[i]}, {m.labels[j]}) closed to "
                    f"{closed.symbol}, exact network has {exact.symbol}"
                )
    if len(notes) == 1:
        notes.append("verify: every closed cell equals the exact network")
    print("\n".join(notes), file=sys.stderr)


def cmd_close(args: argparse.Namespace) -> int:
    matrix = _read_matrix(args.file, args.neq_as)
    report = close(matrix)
    if args.verify:
        _verify_report(matrix, report)
    if args.format == "interchange":
        print(report_to_interchange(report))
    else:
        print(render_report(report))
    return EXIT_DEADLOCK if report.deadlocked else EXIT_OK


def cmd_deadlock(args: argparse.Namespace) -> int:
    matrix = _read_matrix(args.file, args.neq_as)
    report = close(matrix)
    print("deadlock" if report.deadlocked else "no deadlock")
    for i, j in report.deadlock_pairs:
        print(f"  ({report.closed.labels[i]}, {report.closed.labels[j]})")
    return EXIT_DEADLOCK if report.deadlocked else EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    matrix = _read_matrix(args.file, args.neq_as)
    report = close(matrix)
    for name, bound in zip(report.closed.labels, report.bounds):
        print(f"{name}: {bound.describe()}")
    print("legend: open = boundary time excluded, closed = boundary time attainable")
    return EXIT_OK


def cmd_equiv(args: argparse.Namespace) -> int:
    p = _read_matrix(args.file, args.neq_as)
    q = _read_matrix(args.other, args.neq_as)
    same = equivalent(p, q)
    print("equivalent" if same else "not equivalent")
    return EXIT_OK if same else EXIT_DIFFERENT


def cmd_swap(args: argparse.Namespace) -> int:
    matrix = _read_matrix(args.file, args.neq_as)
    swapped = matrix.swap_events(matrix.index_of(args.first), matrix.index_of(args.second))
    print(matrix_to_interchange(swapped))
    return EXIT_OK


def cmd_atoms(args: argparse.Namespace) -> int:
    mats = atom_matrices(args.n)
    for k, mat in enumerate(mats):
        if k:
            print()
        print(f"atom {k + 1}:")
        print(render_matrix(mat))
    return EXIT_OK


def cmd_count(args: argparse.Namespace) -> int:
    print(matrix_count(args.n))
    return EXIT_OK


def cmd_dot(args: argparse.Namespace) -> int:
    matrix = _read_matrix(args.file, args.neq_as)
    sys.stdout.write(to_dot(close(matrix)))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syncalg",
        description="Synchronization algebra tools: closure, deadlock, bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, handler) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    def add_neq(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--neq-as",
            choices=[m.value for m in NeqMode],
            default="keep",
            help="how to treat declared != constraints (default: keep)",
        )

    p = add("close", "close a declaration file and report", cmd_close)
    p.add_argument("file")
    add_neq(p)
    p.add_argument(
        "--format",
        choices=("text", "interchange"),
        default="text",
        help="output form (default: text)",
    )
    p.add_argument(
        "--verify",
        action="store_true",
        help="cross-check the closure by exhaustive enumeration",
    )

    p = add("deadlock", "report whether the system deadlocks", cmd_deadlock)
    p.add_argument("file")
    add_neq(p)

    p = add("bounds", "per-event boundedness of the closed system", cmd_bounds)
    p.add_argument("file")
    add_neq(p)

    p = add("equiv", "compare two declaration files up to implied constraints", cmd_equiv)
    p.add_argument("file")
    p.add_argument("other")
    add_neq(p)

    p = add("swap", "exchange two events and print the matrix as interchange JSON", cmd_swap)
    p.add_argument("file")
    p.add_argument("first")
    p.add_argument("second")
    add_neq(p)

    p = add("atoms", "print the atom matrices for n events", cmd_atoms)
    p.add_argument("n", type=int)

    p = add("count", "print the number of distinct matrices on n events", cmd_count)
    p.add_argument("n", type=int)

    p = add("dot", "emit Graphviz DOT for the closed system", cmd_dot)
    p.add_argument("file")
    add_neq(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is taken by deadlock here.
        return EXIT_OK if exc.code in (0, None) else EXIT_ERROR
    try:
        return args.handler(args)
    except SyncAlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
