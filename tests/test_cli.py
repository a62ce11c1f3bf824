"""End-to-end tests of the command-line interface.

Everything drives ``main(argv)`` directly so the exit-code contract is
checked in-process; the tests at the end run the real interpreter entry
point, to make sure packaging works and that output errors end without a
traceback.
"""

import json
import os
import random
import subprocess
import sys

import pytest

from syncalg.algebra import Rel
from syncalg.cli import main, render_report
from syncalg.closure import close
from syncalg.matrix import SyncMatrix

from helpers import planted_matrix, reference_render_report


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


def test_close_reports_implied_synchronization(write, capsys):
    path = write("chain.sync", "events e1 e2 e3\ne1 > e2\ne2 > e3\n")
    assert main(["close", path]) == 0
    out = capsys.readouterr().out
    assert "closed matrix:" in out
    assert "(e1, e3): any tightened to >" in out
    assert "deadlock: no" in out


def test_close_deadlock_exit_code(write, capsys):
    path = write("cycle.sync", "a > b\nb > c\nc > a\n")
    assert main(["close", path]) == 2
    out = capsys.readouterr().out
    assert "deadlock: yes" in out
    assert "deadlocked pair: (a, b)" in out


def test_close_text_equals_the_rel_symbol_reference_on_planted_reports():
    rng = random.Random(47)
    deadlocked = 0
    for trial in range(600):
        n = trial % 40 + 1
        extra = []
        if trial % 2 and n >= 3:  # a declared strict cycle over 3-6 events
            cycle = sorted(rng.sample(range(n), rng.randint(3, min(n, 6))))
            extra = [(a, b, Rel.LT) for a, b in zip(cycle, cycle[1:])] + [(cycle[0], cycle[-1], Rel.GT)]
        m = planted_matrix(rng, n, rng.uniform(0.1, 0.3), extra) if n > 1 else SyncMatrix.unconstrained(("e1",))
        report = close(m)
        assert report.deadlocked == bool(extra)
        deadlocked += report.deadlocked
        assert render_report(report) == reference_render_report(report)
    assert deadlocked == 285


def test_close_interchange_format(write, capsys):
    path = write("pair.sync", "a < b\n")
    assert main(["close", path, "--format", "interchange"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["events"] == ["a", "b"]
    assert doc["matrix"][0][1] == "<"
    assert doc["deadlock"] is False


def test_close_verify_notes_agreement(write, capsys):
    path = write("chain.sync", "a > b\nb > c\n")
    assert main(["close", path, "--verify"]) == 0
    err = capsys.readouterr().err
    assert "verify:" in err


def test_close_verify_on_deadlock(write, capsys):
    path = write("cycle.sync", "a > b\nb > c\nc > a\n")
    assert main(["close", path, "--verify"]) == 2


def test_close_verify_names_cells_looser_than_the_exact_network(write, capsys):
    # Path consistency leaves (x, w) at <= although y != z forces one of
    # the two paths from x to w to be strict (van Beek 1992).
    path = write("diamond.sync", "x <= y\nx <= z\ny <= w\nz <= w\ny != z\n")
    assert main(["close", path]) == 0
    plain = capsys.readouterr().out
    assert main(["close", path, "--verify"]) == 0
    out, err = capsys.readouterr()
    assert out == plain
    assert "sound and gives the same deadlock verdict" in err
    assert "(x, w) closed to <=, exact network has <" in err
    assert "every closed cell equals" not in err
    chain = write("chain.sync", "a > b\nb > c\n")
    assert main(["close", chain, "--verify"]) == 0
    assert "every closed cell equals the exact network" in capsys.readouterr().err


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (lambda report: report._replace(deadlocked=not report.deadlocked),
         "closure and exhaustive search disagree on deadlock"),
        (lambda report: report._replace(closed=SyncMatrix.from_entries(report.closed.labels, [(0, 1, Rel.GT)])),
         "closed cell (0,1) excludes a realizable ordering"),
    ],
    ids=["deadlock-verdict", "narrowed-cell"],
)
def test_close_verify_fails_on_an_unsound_closure(write, capsys, monkeypatch, corrupt, message):
    # A closure that flips the verdict, or narrows a < b to >, is what
    # --verify exists to catch: the command prints nothing and exits 1.
    path = write("pair.sync", "a < b\n")
    monkeypatch.setattr("syncalg.cli.close", lambda matrix: corrupt(close(matrix)))
    assert main(["close", path, "--verify"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: soundness violation: {message}\n"


def test_close_verify_past_the_oracle_ceiling_skips_the_check(write, capsys):
    # Eight events need 9**8 assignments, past the exhaustive search's ceiling.
    path = write("chain8.sync", "".join(f"{a} < {b}\n" for a, b in zip("abcdefg", "bcdefgh")))
    assert main(["close", path]) == 0
    plain = capsys.readouterr().out
    assert main(["close", path, "--verify"]) == 0
    out, err = capsys.readouterr()
    assert out == plain
    assert "(a, h): any tightened to <" in out
    assert err.startswith("verify: skipped: ")
    assert err.count("\n") == 1
    assert "error:" not in err


def test_close_neq_modes(write):
    path = write("neq.sync", "a != b\nb != c\nc != a\n")
    assert main(["close", path]) == 0
    assert main(["close", path, "--neq-as", "lt"]) == 2
    assert main(["close", path, "--neq-as", "gt"]) == 2


def test_empty_spec_with_directive(write, capsys):
    path = write("free.sync", "events a b\n")
    assert main(["close", path]) == 0
    out = capsys.readouterr().out
    assert "deadlock: no" in out
    assert "implied: none" in out


def test_comment_only_file_names_the_missing_events(write, capsys):
    path = write("empty.sync", "# nothing declared yet\n\n")
    assert main(["close", path]) == 1
    assert capsys.readouterr().err == "error: a matrix needs at least one event\n"


def test_deadlock_command(write, capsys):
    yes = write("cycle.sync", "a > b\nb > c\nc > a\n")
    no = write("chain.sync", "a > b\nb > c\n")
    assert main(["deadlock", yes]) == 2
    assert "deadlock" in capsys.readouterr().out
    assert main(["deadlock", no]) == 0
    assert "no deadlock" in capsys.readouterr().out


def test_bounds_command(write, capsys):
    path = write("pair.sync", "a > b\n")
    assert main(["bounds", path]) == 0
    out = capsys.readouterr().out
    assert "a: bounded below (open)" in out
    assert "b: bounded above (open)" in out
    assert "legend:" in out


def test_equiv_command(write, capsys):
    p = write("p.sync", "a > b\nb > c\n")
    q = write("q.sync", "a > b\nb > c\na > c\n")
    r = write("r.sync", "a > b\nb >= c\n")
    assert main(["equiv", p, q]) == 0
    assert capsys.readouterr().out.strip() == "equivalent"
    assert main(["equiv", p, r]) == 3
    assert capsys.readouterr().out.strip() == "not equivalent"


def test_equiv_neq_as_applies_to_both_files(write, capsys):
    neq = write("neq.sync", "a != b\n")
    lt = write("lt.sync", "a < b\n")
    assert main(["equiv", neq, lt, "--neq-as", "lt"]) == 0
    assert main(["equiv", neq, lt, "--neq-as", "keep"]) == 3
    assert main(["equiv", neq, lt, "--neq-as", "gt"]) == 3
    capsys.readouterr()


def test_equiv_label_mismatch_is_an_error(write, capsys):
    p = write("p.sync", "a > b\n")
    q = write("q.sync", "a > c\n")
    assert main(["equiv", p, q]) == 1
    assert "error:" in capsys.readouterr().err


def test_swap_command(write, capsys):
    path = write("pair.sync", "a < b\n")
    assert main(["swap", path, "a", "b"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["events"] == ["b", "a"]
    assert doc["matrix"][0][1] == ">"


def test_swap_unknown_event(write, capsys):
    path = write("pair.sync", "a < b\n")
    assert main(["swap", path, "a", "zz"]) == 1
    assert "unknown event" in capsys.readouterr().err


def test_atoms_command(capsys):
    assert main(["atoms", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("atom ") == 3
    assert main(["atoms", "1"]) == 1


def test_count_command(capsys):
    assert main(["count", "3"]) == 0
    assert capsys.readouterr().out.strip() == "512"
    assert main(["count", "0"]) == 1


def test_count_above_the_listing_limit_is_an_error(capsys):
    assert main(["count", "100"]) == 1
    assert "error:" in capsys.readouterr().err


def test_dot_command(write, capsys):
    path = write("chain.sync", "a > b\nb > c\n")
    assert main(["dot", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph synchronization {")
    assert '"a" -> "b" [label=">"];' in out


def test_parse_error_reports_line_and_exits_one(write, capsys):
    path = write("bad.sync", "a < b\nb << c\n")
    assert main(["close", path]) == 1
    err = capsys.readouterr().err
    assert "line 2:" in err


def test_missing_file_exits_one(capsys):
    assert main(["close", "/no/such/file.sync"]) == 1
    assert "error:" in capsys.readouterr().err


def test_non_utf8_file_exits_one(tmp_path, capsys):
    path = tmp_path / "latin.sync"
    path.write_bytes(b"\xff")
    assert main(["close", str(path)]) == 1
    assert f"error: cannot read {path}:" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["close"], ["close", "--format", "interchange"], ["dot"]])
def test_byte_order_mark_is_not_part_of_line_one(tmp_path, capsys, args):
    text = "events a b c\na > b\nb > c\n".encode()
    outcomes = []
    for name, data in (("plain.sync", text), ("bom.sync", b"\xef\xbb\xbf" + text)):
        path = tmp_path / name
        path.write_bytes(data)
        code = main([args[0], str(path), *args[1:]])
        outcomes.append((code, capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 0


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["bogus"]) == 1
    assert main(["close"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_module_entry_point(tmp_path):
    path = tmp_path / "cycle.sync"
    path.write_text("a > b\nb > c\nc > a\n")
    proc = subprocess.run(
        [sys.executable, "-m", "syncalg", "deadlock", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "deadlock" in proc.stdout


# An empty PYTHONUNBUFFERED means buffered stdout, whose leftover bytes the
# interpreter flushes once more at exit; "1" makes every print a write.  The
# dot command on a 100-event chain writes about 150 KB, far past a pipe's
# buffer.
@pytest.mark.parametrize(
    "unbuffered,command",
    [("", "atoms"), ("1", "atoms"), ("", "dot"), ("1", "dot")],
    ids=["", "1", "dot-", "dot-1"],
)
def test_closed_pipe_exits_one_without_traceback(tmp_path, unbuffered, command):
    chain = tmp_path / "chain100.sync"
    chain.write_text("".join(f"e{k} < e{k + 1}\n" for k in range(1, 100)))
    args, first_line = {
        "atoms": (["atoms", "20"], b"atom 1:\n"),
        "dot": (["dot", str(chain)], b"digraph synchronization {\n"),
    }[command]
    proc = subprocess.Popen(
        [sys.executable, "-m", "syncalg", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
    )
    assert proc.stdout.readline() == first_line
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_full_device_exits_one_without_traceback(tmp_path, unbuffered):
    path = tmp_path / "chain.sync"
    path.write_text("a < b\nb < c\n")
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "syncalg", "close", str(path)],
            stdout=full,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
        )
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"error: cannot write output: ")
    assert proc.stderr.count(b"\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_help_into_full_device_exits_one_when_buffered():
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "syncalg", "--help"],
            stdout=full,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONUNBUFFERED": ""},
        )
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"error: cannot write output: ")
    assert proc.stderr.count(b"\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("args", [["--help"], ["close", "--help"]])
def test_help_into_full_device_exits_one_when_unbuffered(args):
    # Unbuffered, the help text is written straight from argparse, which
    # would ignore the failed write and exit 0.
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "syncalg", *args],
            stdout=full,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONUNBUFFERED": "1"},
        )
    assert proc.returncode == 1
    assert proc.stderr == b"error: cannot write output: [Errno 28] No space left on device\n"


def _imported(args):
    """Run the interpreter with -X importtime; return it and the modules it imported."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, text=True
    )
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return proc, names


# The module only interchange output needs, and dataclasses with the
# inspect it pulls in, which no command needs.
NOT_ON_THE_COMMAND_PATH = {"dataclasses", "inspect", "json"}


@pytest.mark.parametrize(
    "command", [["close"], ["deadlock"], ["bounds"], ["dot"], ["close", "--verify"]], ids=" ".join
)
def test_plain_commands_import_only_what_they_run(write, command):
    path = write("chain.sync", "a < b\nb < c\n")
    _, at_start = _imported(["-c", "pass"])
    proc, loaded = _imported(["-m", "syncalg", *command, path])
    assert proc.returncode == 0
    assert "syncalg.cli" in loaded
    assert not (loaded - at_start) & NOT_ON_THE_COMMAND_PATH


def test_verify_loads_the_oracle(write):
    path = write("chain.sync", "a < b\nb < c\n")
    proc, loaded = _imported(["-m", "syncalg", "close", "--verify", path])
    assert proc.returncode == 0
    assert "syncalg.oracle" in loaded
    assert "verify: every closed cell equals the exact network" in proc.stderr
