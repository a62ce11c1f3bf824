"""End-to-end tests of the command-line interface.

Everything drives ``main(argv)`` directly so the exit-code contract is
checked in-process; one test runs the real interpreter entry point to
make sure packaging works.
"""

import json
import subprocess
import sys

import pytest

from syncalg.cli import main


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
