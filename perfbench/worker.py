"""One fresh benchmark worker: set up, then run one workload in a closed loop.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--segment K OF]

The worker generates its inputs from the seed first, then times its own
set-up (importing syncalg and running one warm-up op on a small fixed
input),
then runs ops back to back, one caller, until the ops have taken
``--seconds`` of wall time.  It prints one JSON object with the raw
measurements; ``run.py`` turns them into metrics.

With ``--trace 1`` every second op is traced and the others are not, so
the two halves see the same machine conditions and their medians give
the tracing overhead.  Spans are kept in memory and written to
``perfbench/out/trace-<workload>-seed<seed>.json`` at the end.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402  (stdlib only; importing it does not import syncalg)

POOL = {"closure-sat": 64, "closure-deadlock": 64, "convert-large": 6, "cli-small": 12}
# The warm-up op runs on a small system drawn from a fixed seed: it takes
# every code path an op takes, so lazy set-up finishes, while set-up time
# neither varies with --seed nor carries one full op's timing noise.
WARMUP_SEED = 0
WARMUP_EVENTS = 8

TIMED_LAYERS = (
    "format.parse",
    "matrix.build",
    "matrix.swap",
    "closure.close",
    "closure.bounds",
    "format.json",
    "format.read_json",
    "format.dot",
    "cli.render_text",
)
COUNTERS = (
    "format.parse_decls",
    "matrix.cells",
    "closure.passes",
    "closure.narrowed",
    "closure.deadlock_pairs",
)


class Tracer:
    """Spans (name, start, end, parent index, op id) around calls into syncalg."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.op = 0
        self._stack: list[int] = []

    def call(self, name: str, fn, *args):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def self_times(self) -> dict[str, dict[int, float]]:
        """name -> op id -> seconds in spans of that name, minus their children."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        for (name, start, end, parent, op), child in zip(self.spans, covered):
            out[name][op] += end - start - child
        return out

    def write(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"name": name, "start": start - origin, "end": end - origin, "parent": parent, "op": op}
            for name, start, end, parent, op in self.spans
        ]
        path.write_text(json.dumps(rows))


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    n: int | None = None,
    segment: tuple[int, int] = (0, 1),
) -> dict:
    """Set up and measure in this process; returns the raw measurements.

    ``segment`` (k, K) says this worker runs the k-th of K parts of one
    run: it starts k/K of the way through the seed's inputs.
    """
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        warm = gen.inputs(workload, WARMUP_SEED, 1, workdir, WARMUP_EVENTS)[0]
        items = gen.inputs(workload, seed, POOL[workload], workdir, n)
        start = segment[0] * len(items) // segment[1]
        items = items[start:] + items[:start]

        started = perf_counter()
        import workloads

        wl = workloads.WORKLOADS[workload]
        wl.op(workloads.untraced, warm)
        result = {"setup_s": perf_counter() - started}
        result.update(_measure(wl, items, seconds, trace, workloads.untraced))
        tracer = result.pop("tracer")
        if trace:
            result["trace_file"] = f"trace-{workload}-seed{seed}.json"
            tracer.write(OUT / result["trace_file"])
            result["layers"] = _layers(tracer, result)
        return result
    finally:
        shutil.rmtree(workdir)


def _measure(wl, items, seconds: float, trace: bool, untraced) -> dict:
    tracer = Tracer() if trace else None
    plain, traced, cpu = [], [], 0.0
    counters: dict[str, float] = defaultdict(float)
    failed = attempted = 0
    busy = 0.0
    while busy < seconds or attempted < (2 if trace else 1):
        item = items[attempted % len(items)]
        on = trace and attempted % 2 == 1
        call = tracer.call if on else untraced
        if on:
            tracer.op = attempted
        out = None
        cpu0 = _cpu_seconds()
        t0 = perf_counter()
        try:
            out = call("op", wl.op, call, item)
        except Exception:
            traceback.print_exc()
        elapsed = perf_counter() - t0
        cpu1 = _cpu_seconds()
        attempted += 1
        busy += elapsed
        (traced if on else plain).append(elapsed)
        if not on:
            cpu += cpu1 - cpu0
        try:
            ok = out is not None and wl.check(item, out)
            if on and ok:
                rendered = wl.extras(call, item, out)
                for key, value in wl.counters(item, out).items():
                    counters[key] += value
                counters["format.out_bytes"] += rendered
        except Exception:
            traceback.print_exc()
            ok = False
        failed += not ok
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if wl.in_children else resource.RUSAGE_SELF)
    return {
        "latencies": plain,
        "traced_latencies": traced,
        "cpu_s": cpu,
        "peak_rss_kib": usage.ru_maxrss,
        "attempted": attempted,
        "failed": failed,
        "counters": dict(counters),
        "tracer": tracer,
    }


def _layers(tracer: Tracer, result: dict) -> dict[str, float]:
    """Per-layer metrics: median self time per traced op, counters per traced op."""
    selfs = tracer.self_times()
    ops = sorted(selfs["op"])

    def median_ms(name: str) -> float:
        per_op = selfs.get(name, {})
        return statistics.median(per_op.get(op, 0.0) for op in ops) * 1000

    out = {f"{name}_ms": median_ms(name) for name in TIMED_LAYERS}
    interp, with_import = median_ms("cli.interp"), median_ms("cli.import")
    out["cli.interp_ms"] = interp
    out["cli.import_ms"] = with_import - interp
    out["cli.run_ms"] = median_ms("cli.run") - with_import
    counters = result["counters"]
    for name in COUNTERS:
        out[name] = counters.get(name, 0) / len(ops)
    out["format.out_kib"] = counters.get("format.out_bytes", 0) / len(ops) / 1024
    out["trace.overhead_frac"] = (
        statistics.median(result["traced_latencies"]) / statistics.median(result["latencies"]) - 1
    )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(POOL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--segment", type=int, nargs=2, default=(0, 1), metavar=("K", "OF"))
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), segment=tuple(args.segment))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
