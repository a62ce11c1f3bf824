"""Benchmark of syncalg: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload closure-sat --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

For each workload it prints one human-readable row with every metric,
its unit and the failure share, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones.  The workloads, the op each one repeats and the layer
map are described in perfbench/README.md.

The untraced run splits its --seconds among SETUP_SAMPLES fresh workers
started one after another.  Each imports syncalg, runs one warm-up op,
then measures its share; ``setup_s`` is the median of their set-up
times.  Spreading the set-ups over the whole run keeps ``setup_s`` from
hanging on the machine's state during one second.  The traced run uses
one worker.  Only one process runs at a time: every workload is a closed
loop with one caller.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
WORKLOADS = ("closure-sat", "closure-deadlock", "convert-large", "cli-small")

# Every end-to-end metric the row prints, with its unit.  The JSON line
# carries only GATED, the ones BENCHMARK.json bounds; perfbench/README.md
# gives the measured spreads that leave the others ungated.
END_TO_END = {
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ops_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
GATED = ("op_ms_tail", "setup_s", "peak_rss_mib")


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_kib"):
        return "KiB"
    if name.endswith("_frac"):
        return "frac"
    return "count"


def _worker(workload: str, seed: int, seconds: float, trace: bool, segment: int, segments: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(int(trace)),
            "--segment", str(segment), str(segments),
        ],
        stdout=subprocess.PIPE,
        text=True,
        timeout=seconds + 120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with ten samples beyond it.

    With fewer than eleven samples this is the largest one.
    """
    ordered = sorted(latencies)
    k = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100 * (k + 1) / len(ordered)


def bench(workload: str, seed: int, seconds: float, trace: bool) -> tuple[str, dict]:
    """Run one workload; returns the printed row and the result object."""
    segments = 1 if trace else SETUP_SAMPLES
    raws = [_worker(workload, seed, seconds / segments, trace, k, segments) for k in range(segments)]
    attempted = sum(r["attempted"] for r in raws)
    failed = sum(r["failed"] for r in raws)
    latencies = [t for r in raws for t in r["latencies"]]
    if trace:
        (raw,) = raws
        metrics = raw["layers"]
        units = {name: layer_unit(name) for name in metrics}
        note = f"traced ops: {len(raw['traced_latencies'])}, spans in perfbench/out/{raw['trace_file']}"
    else:
        tail_s, percentile = tail(latencies)
        metrics = {
            "op_ms_p50": statistics.median(latencies) * 1000,
            "op_ms_tail": tail_s * 1000,
            "ops_per_s": len(latencies) / sum(latencies),
            "cpu_ms_per_op": sum(r["cpu_s"] for r in raws) / len(latencies) * 1000,
            "setup_s": statistics.median(r["setup_s"] for r in raws),
            "peak_rss_mib": max(r["peak_rss_kib"] for r in raws) / 1024,
        }
        units = END_TO_END
        note = f"op_ms_tail is p{percentile:.0f} of {len(latencies)} ops"
    cells = [f"{name}={value:.4g} {units[name]}" for name, value in metrics.items()]
    cells.append(f"failed_frac={failed / attempted:.4g} ({failed}/{attempted})")
    row = f"{workload:<17} " + "  ".join(cells) + f"  [{note}]"
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
            if trace or name in GATED
        },
    }
    return row, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (HERE.parent / "src" / "syncalg" / "__init__.py").is_file():
        print("error: syncalg sources not found in src/syncalg", file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        row, result = bench(workload, args.seed, args.seconds, bool(args.trace))
        print(row)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
