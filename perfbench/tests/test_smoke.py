"""Tiny-n smoke test of the benchmark harness.

Keeps the harness from rotting: every workload runs end to end, its
outputs pass their checks, and it reports exactly the metrics
BENCHMARK.json declares.  Nothing here asserts a timing.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import worker  # noqa: E402

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _units(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in DECLARED[kind]}


def _run(*args: str, cwd: Path = BENCH.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_generators_repeat_for_a_seed(tmp_path):
    for workload in ("closure-sat", "closure-deadlock", "convert-large", "cli-small"):
        first = gen.inputs(workload, 5, 3, tmp_path, n=12)
        assert first == gen.inputs(workload, 5, 3, tmp_path, n=12)
        assert first != gen.inputs(workload, 6, 3, tmp_path, n=12)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", ["closure-sat", "closure-deadlock", "convert-large"])
def test_library_workloads_at_tiny_n(workload, trace):
    raw = worker.run(workload, seed=3, seconds=0.05, trace=trace, n=8)
    assert raw["attempted"] >= 1
    assert raw["failed"] == 0
    if trace:
        assert set(raw["layers"]) == set(_units("per_layer"))


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_declared_metric(trace):
    proc = _run("--workload", "cli-small", "--seed", "3", "--seconds", "0.3", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    row, last = proc.stdout.splitlines()[-2:]
    result = json.loads(last)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert metrics == _units("per_layer" if trace == "1" else "end_to_end")
    assert "failed_frac=0" in row


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "closure-sat", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
