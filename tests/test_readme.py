"""The README's examples, run as written."""

import json
import pathlib
import re

from syncalg.cli import _build_parser, main

README = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def fenced(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


def test_readme_examples_run_as_written(tmp_path, capsys):
    # The Python example: each commented line evaluates to the value its
    # comment starts with.
    (example,) = fenced("python")
    namespace = {}
    checked = 0
    for line in example.splitlines():
        code, _, comment = line.partition("#")
        if comment:
            expected = re.split(r"[,;]", comment)[0].strip()
            assert eval(code, namespace) == eval(expected, namespace), line
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 3

    # The interchange document is what `close --format interchange` prints
    # for the chain it describes.
    (document,) = fenced("json")
    path = tmp_path / "chain.sync"
    path.write_text("a > b\nb > c\n")
    assert main(["close", str(path), "--format", "interchange"]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(document)

    # The command-line synopsis names every subcommand, and only those.
    (synopsis,) = [block for block in fenced("") if block.startswith("syncalg ")]
    (subcommands,) = [a.choices for a in _build_parser()._actions if a.dest == "command"]
    assert [line.split()[1] for line in synopsis.splitlines()] == list(subcommands)
