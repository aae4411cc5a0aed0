"""Workload definitions and input generation for the twistchar benchmark.

Inputs are generated here, from the workload seed and the pass index
alone, without importing twistchar: the program under test receives only
the generated inputs.  A run is a sequence of passes; each pass runs in a
fresh interpreter and is one closed loop with one client (the next op
starts when the previous one has returned).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

THEOREMS = ("schurfac", "schur1", "sympfact", "eorthfact", "oorthfact")

# Pass k of workload seed s is pass number s * PASS_STRIDE + k overall, so
# two seeds never share a pass as long as a run stays below PASS_STRIDE passes.
PASS_STRIDE = 64


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is in README.md and BENCHMARK.json."""

    name: str
    kind: str  # "scan" or "series"
    fields: tuple[int, ...]  # the field(t) objects built during set-up


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan-standing", "scan", (2, 3, 4)),
        Workload("scan-t5-seeds", "scan", (5,)),
        Workload("series-census", "series", ()),
    )
}

SERIES_ORDER = 26
T5_SEEDS_PER_PASS = 8


def _partitions_of(m: int, max_length: int):
    """Partitions of m in reverse lexicographic order, at most max_length parts."""

    def rec(remaining, cap, prefix):
        if remaining == 0:
            yield tuple(prefix)
            return
        if len(prefix) >= max_length:
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            yield from rec(remaining - part, part, prefix)
            prefix.pop()

    yield from rec(m, m, [])


def _scan_grid(ts, ns, max_size, seeds):
    """Ops in the order `twistchar scan` visits them, so the record stream
    is byte-identical to `scan --out` on the same flags."""
    ops = []
    for th in THEOREMS:
        for t in ts:
            for n in ns:
                bound = t * n + 1 if th == "schur1" else t * n
                las = [la for m in range(max_size + 1) for la in _partitions_of(m, bound)]
                for seed in seeds:
                    ops.extend((th, la, t, n, seed) for la in las)
    return ops


def series_pairs():
    """Every (z, t) with 2 <= t <= 8 that `twistchar series` accepts."""
    pairs = [(z, t) for t in range(2, 9) for z in range(-1, t - 1)]
    pairs.append((1, 2))  # t = 2 enumerates staircases for z = +-1
    return sorted(pairs, key=lambda p: (p[1], p[0]))


def pass_number(seed: int, k: int) -> int:
    if not 0 <= k < PASS_STRIDE:
        raise ValueError(f"pass index {k} outside 0..{PASS_STRIDE - 1}")
    return seed * PASS_STRIDE + k


def ops_for_pass(workload: str, seed: int, k: int) -> list[tuple]:
    """The ops of pass k of a run with the given workload seed."""
    g = pass_number(seed, k)
    if workload == "scan-standing":
        return _scan_grid((2, 3, 4), (1, 2), 7, (g,))
    if workload == "scan-t5-seeds":
        first = g * T5_SEEDS_PER_PASS
        return _scan_grid((5,), (1,), 3, tuple(range(first, first + T5_SEEDS_PER_PASS)))
    if workload == "series-census":
        pairs = series_pairs()
        random.Random(g).shuffle(pairs)
        return [(z, t, SERIES_ORDER) for z, t in pairs]
    raise ValueError(f"unknown workload {workload!r}")


def tail_percentile(ops_per_pass: int) -> int:
    """Highest whole percentile with at least ten samples of one pass beyond it."""
    return max(1, min(99, 100 * (ops_per_pass - 10) // ops_per_pass))
