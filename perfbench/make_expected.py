"""Record the expected (ticks, work) of every reproduce cell.

Run from the repository root, with the program at a commit whose tick
counts are trusted:

    PYTHONHASHSEED=0 PYTHONPATH=src python3 perfbench/make_expected.py

It simulates each cell of ``reproduce.CELLS`` once per schedule seed
0..SEEDS-1 and writes ``perfbench/expected.json``. A later change that
alters the simulated schedule fails the reproduce workload's check.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reproduce  # noqa: E402
from spans import Spans  # noqa: E402

SEEDS = 32


def main() -> int:
    table = {cell[0]: [] for cell in reproduce.CELLS}
    reproduce.install_inference()
    for sched_seed in range(SEEDS):
        schedules = reproduce.make_schedules(sched_seed)
        for cell in reproduce.CELLS:
            _world, stats = reproduce.run_cell(cell, schedules[cell[0]],
                                               Spans(False))
            table[cell[0]].append([stats.ticks, stats.work_done])
        print(f"schedule seed {sched_seed} done", file=sys.stderr)
    expected = {
        "threads": reproduce.THREADS,
        "ncores": reproduce.NCORES,
        "seeds": SEEDS,
        "cells": [list(cell) for cell in reproduce.CELLS],
        "ticks_work": table,
    }
    with open(reproduce.EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
