"""Seeded input generators for the benchmark.

Uniformly random declarations at n >= 10 almost always deadlock, which
would only exercise closure's collapse-to-never path.  The planted
generator therefore draws an integer time for every event first and then
declares only relations those times satisfy, so the system is
satisfiable by construction and the planted times are a witness the
checks can test closed cells against.  A planted deadlock adds a
declared strict cycle through events taken in planted-time order.

Everything here is stdlib-only and does not import syncalg: the program
receives only the generated text.  The same seed gives the same text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# Relations that admit a given atom, excluding "any" (it declares nothing)
# and "!=" (drawn separately at its own rate).
_ADMITTING = {"<": ("<", "<="), "=": ("=", "<=", ">="), ">": (">", ">=")}
_CONVERSE = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "=", "!=": "!="}

NEQ_SHARE = 0.3


@dataclass(frozen=True)
class System:
    """Declaration text plus what the generator planted in it."""

    text: str
    names: tuple[str, ...]
    times: tuple[int, ...]  # a satisfying assignment, unless deadlocked
    deadlocked: bool


def _atom(a: int, b: int) -> str:
    return "<" if a < b else ("=" if a == b else ">")


def planted(rng: random.Random, n: int, density: float, values: int, cycle: bool = False) -> System:
    """A planted system of n events over ``values`` integer times.

    Each pair is declared with probability ``density``; about NEQ_SHARE of
    the declarations on untied pairs are ``!=``.  With ``cycle`` a strict
    chain through 2..6 events in planted-time order is declared and closed
    back onto its first event, so the system deadlocks.
    """
    names = tuple(f"e{k}" for k in range(n))
    times = tuple(rng.randrange(values) for _ in range(n))
    decls = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() >= density:
                continue
            atom = _atom(times[i], times[j])
            if atom != "=" and rng.random() < NEQ_SHARE:
                op = "!="
            else:
                op = rng.choice(_ADMITTING[atom])
            decls.append((i, op, j))
    if cycle:
        members = sorted(rng.sample(range(n), rng.randint(2, min(6, n))), key=lambda k: (times[k], k))
        decls.extend((a, "<", b) for a, b in zip(members, members[1:]))
        decls.append((members[-1], "<", members[0]))
    rng.shuffle(decls)
    lines = ["events " + " ".join(names)]
    for i, op, j in decls:
        if rng.random() < 0.5:
            i, op, j = j, _CONVERSE[op], i
        lines.append(f"{names[i]} {op} {names[j]}")
    return System("\n".join(lines) + "\n", names, times, cycle)


CLI_COMMANDS = (
    ("close",),
    ("close", "--format", "interchange"),
    ("deadlock",),
    ("bounds",),
    ("dot",),
)


def inputs(workload: str, seed: int, count: int, workdir: Path, n: int | None = None) -> list:
    """The ``count`` inputs one workload's ops cycle through.

    closure-*: n=40 systems at density 0.1-0.3, with a cycle for
    closure-deadlock.  convert-large: n=400 systems at density 0.22-0.3,
    each with a swap pair.  cli-small: files of 3-8 events at density
    0.3-0.8, about a third deadlocked, written under ``workdir``; its items
    pair files with CLI commands so that consecutive ops cycle through
    every command (``count`` coprime to five covers every pairing).
    ``n`` overrides the event count of the library workloads.
    """
    rng = random.Random(seed)
    if workload in ("closure-sat", "closure-deadlock"):
        n = n or 40
        return [
            planted(rng, n, rng.uniform(0.1, 0.3), max(2, n // 2), workload == "closure-deadlock")
            for _ in range(count)
        ]
    if workload == "convert-large":
        n = n or 400
        return [
            (planted(rng, n, rng.uniform(0.22, 0.3), max(2, n // 2)), *rng.sample(range(n), 2))
            for _ in range(count)
        ]
    if workload == "cli-small":
        files = []
        for k in range(count):
            size = rng.randint(3, 8)
            system = planted(rng, size, rng.uniform(0.3, 0.8), size, rng.random() < 0.35)
            path = workdir / f"seed{seed}-{k}.sync"
            path.write_text(system.text)
            files.append((str(path), system))
        return [
            (files[k % count][0], CLI_COMMANDS[k % len(CLI_COMMANDS)], files[k % count][1])
            for k in range(count * len(CLI_COMMANDS))
        ]
    raise ValueError(f"unknown workload {workload!r}")
