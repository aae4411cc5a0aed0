#!/usr/bin/env python3
"""Run the standing verification sweep over all five factorizations.

Thin wrapper over `twistchar scan`; kept as a script so the day-to-day
grid lives in one place.  Exit code is the worst scan result.
"""

import sys

from twistchar.cli import main

GRIDS = [
    # theorems, t values, n values, max partition size
    ("all", "2,3,4,5,6,7", "1,2,3", 12),
    # even t past the wide grid, where Sp and O_even have both a middle
    # and a wrap class
    ("all", "8", "1", 9),
]


def run() -> int:
    worst = 0
    for theorems, ts, ns, max_size in GRIDS:
        code = main([
            "scan",
            "--theorems", theorems,
            "--t", ts,
            "--n", ns,
            "--max-size", str(max_size),
            "--seeds", "0",
        ])
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(run())
