"""Workload ``reproduce``: a fixed list of Table 2 cells, simulated.

Each cell is what ``repro.bench.harness.run_benchmark`` does, spelled out
through the same public calls (``build_world``, ``Scheduler``,
``ThreadExec.run_ops``) so the benchmark can time the world build apart
from ``Scheduler.run`` and read ``SimStats``, ``LockStats`` and the TL2
stats. The protection checker is on in every cell, every cell's (ticks,
work) must equal the value recorded in ``expected.json`` for the schedule
seed, and the lock sets the cells run with must equal the reference
engine's.
"""

from __future__ import annotations

import json
import os
import resource
import time
from typing import Dict, List, Tuple

from repro.bench.configs import ALL_BENCHMARKS, CONFIG_K
from repro.bench.harness import build_world, seed_inference_cache
from repro.inference import InferenceResult, LockInference
from repro.interp import ThreadExec
from repro.sim import Scheduler

import gen
import layers
from common import CELLS, Outcome, check_lock_sets, repeated_setup, until
from pipeline import front, import_cli_s, new_counts, reference_locks
from spans import Spans
from speed import Speed
from stats import median, ratio

THREADS = 8
NCORES = 8
WARM_UP_CELL = "labyrinth-stm"
ROTATION = 8

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


def schedule_seeds(seed: int, seeds: int) -> List[int]:
    """The schedule seeds a run rotates through: ``ROTATION`` consecutive
    ones from seed n, modulo the ``seeds`` the expected table covers.
    Each pass takes the next, so that a run's median pass is taken over
    several inputs and runs with different seeds compare alike."""
    return [(seed + j) % seeds for j in range(ROTATION)]


def make_schedules(sched_seed: int):
    """Per-cell, per-thread op schedules."""
    return {cell_id: ALL_BENCHMARKS[bench].schedule(setting, THREADS, ops,
                                                    seed=sched_seed)
            for cell_id, bench, _config, setting, ops in CELLS}


def install_inference() -> Dict[Tuple[str, int], InferenceResult]:
    """Solve the inference each cell's world needs and install it in the
    harness's per-process memo; returns the results by (benchmark, k)."""
    needed = {(bench, CONFIG_K.get(config, 9))
              for _, bench, config, _, _ in CELLS}
    results = {}
    for bench, k in sorted(needed):
        source = ALL_BENCHMARKS[bench].source
        shared = front(source, Spans(False), bench, new_counts())
        results[bench, k] = LockInference(shared, k=k).run()
        seed_inference_cache(source, k, results[bench, k])
    return results


def check_inference(out: Outcome, results) -> None:
    """The lock sets the cells ran with equal the reference engine's."""
    check_lock_sets(
        out, {key: [result.describe()] for key, result in results.items()},
        {(bench, k): reference_locks(ALL_BENCHMARKS[bench].source,
                                     [(k, True)])[k, True]
         for bench, k in results})


def run_cell(cell, schedule, spans: Spans):
    """Build the cell's world, then simulate it; returns (world, stats)."""
    cell_id, bench, config, _setting, _ops = cell
    with spans.span("bench.build_world", cell_id):
        world, mode = build_world(ALL_BENCHMARKS[bench], config, check=True)
    scheduler = Scheduler(ncores=NCORES)
    for tid, ops in enumerate(schedule):
        scheduler.spawn(ThreadExec(world, tid, mode=mode).run_ops(ops))
    with spans.span("sim.run", cell_id):
        stats = scheduler.run()
    return world, stats


def check_ticks(out: Outcome, cell_id: str, stats, expected,
                sched_seed: int) -> bool:
    """One cell run: its (ticks, work) must equal the recorded values."""
    want = expected["ticks_work"][cell_id][sched_seed]
    got = [stats.ticks, stats.work_done]
    return out.op(got == want,
                  f"{cell_id}: (ticks, work) {got} != expected {want}")


def load_expected() -> Dict[str, object]:
    with open(EXPECTED_PATH) as handle:
        expected = json.load(handle)
    cells = [[c[0], c[1], c[2], c[3], c[4]] for c in CELLS]
    if (expected["cells"] != cells or expected["threads"] != THREADS
            or expected["ncores"] != NCORES):
        raise SystemExit("expected.json was recorded for another cell list;"
                         " regenerate it with perfbench/make_expected.py")
    return expected


def run(ctx) -> Outcome:
    out = Outcome()
    expected = load_expected()
    sched_seeds = schedule_seeds(ctx.seed, expected["seeds"])

    def setup():
        results = install_inference()
        schedules = [make_schedules(s) for s in sched_seeds]
        # warm-up: the cheapest cell once
        cell = next(c for c in CELLS if c[0] == WARM_UP_CELL)
        run_cell(cell, schedules[0][cell[0]], Spans(False))
        return schedules, results

    (schedules, results), setup_s, setup_walls = repeated_setup(
        setup, scale=True)
    out.info.update(schedule_seeds=sched_seeds, setup_walls=setup_walls,
                    input_digest=gen.digest({
                        "sources": {b: ALL_BENCHMARKS[b].source
                                    for _, b, _, _, _ in CELLS},
                        "schedules": schedules}))
    import_s = import_cli_s(ctx.root, ctx.env) if ctx.trace else 0.0
    spans = Spans(False)
    speed = None if ctx.trace else Speed()
    pass_walls: Dict[bool, List[float]] = {False: [], True: []}
    scaled_walls: List[float] = []
    traced_rows: List[Dict[str, float]] = []
    ticks_per_s: List[float] = []
    for n in until(ctx.seconds, 2 if ctx.trace else 1):
        traced = ctx.trace and n % 2 == 1
        spans.enabled = traced
        # a traced pass repeats the inputs of the untraced one before it
        j = (n // 2 if ctx.trace else n) % ROTATION
        wall = scaled = 0.0
        cells = []
        for cell in CELLS:
            cell_id = cell[0]
            started = time.perf_counter()
            try:
                world, stats = run_cell(cell, schedules[j][cell_id], spans)
            except Exception as err:  # noqa: BLE001 - a failed cell is data
                out.op(False, f"{cell_id}: {type(err).__name__}: {err}")
                continue
            cell_wall = time.perf_counter() - started
            wall += cell_wall
            if speed is not None:
                scaled += speed.scale(cell_wall)
            if check_ticks(out, cell_id, stats, expected, sched_seeds[j]):
                cells.append((cell_id, world, stats))
        pass_walls[traced].append(wall)
        if traced:
            records = spans.clear()
            out.spans.extend(records)
            traced_rows.append(layer_metrics(records, cells, wall))
        elif speed is not None:
            scaled_walls.append(scaled)
            ticks = sum(s.ticks for _, _, s in cells)
            ticks_per_s.append(ratio(ticks, scaled))
    check_inference(out, results)
    if ctx.trace:
        out.metrics = layers.finish(traced_rows, pass_walls, import_s)
        return out
    reproduce_s = median(scaled_walls)
    out.metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "op_p50_ms": reproduce_s * 1000.0,
        "work_per_s": median(ticks_per_s),
    }
    out.named = {"reproduce_s": (reproduce_s, "s"),
                 "reproduce_s.raw": (median(pass_walls[False]), "s"),
                 "speed_factor": (median(speed.factors), "ratio"),
                 "passes": (len(scaled_walls), "count")}
    out.info.update(pass_walls=pass_walls[False], scaled_walls=scaled_walls)
    return out


def layer_metrics(records, cells, wall: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass."""
    row = layers.trace_summary(records, wall)
    sim_s: Dict[str, float] = {}
    build_s = 0.0
    for rec in records:
        duration = rec["end"] - rec["start"]
        if rec["name"] == "sim.run":
            sim_s[rec["request"]] = duration
        else:
            build_s += duration
    stats = [s for _, _, s in cells]
    locks = [w.lock_manager.stats for _, w, _ in cells]
    stm = [w.stm.stats for _, w, _ in cells]
    ticks = sum(s.ticks for s in stats)
    node_acquires = sum(lk.node_acquires for lk in locks)
    blocks = sum(lk.blocks for lk in locks)
    commits = sum(st.commits for st in stm)
    aborts = sum(st.aborts for st in stm)
    row.update({
        "bench.build_world_s": build_s,
        "sim.run_s": sum(sim_s.values()),
        "sim.ticks": ticks,
        "sim.work": sum(s.work_done for s in stats),
        "sim.blocked_ticks": sum(s.blocked_ticks for s in stats),
        "sim.failed_tries": sum(s.failed_tries for s in stats),
        "sim.ticks_per_s": ratio(ticks, sum(sim_s.values())),
        "sim.utilization": ratio(sum(s.work_done for s in stats),
                                 sum(s.ticks * s.ncores for s in stats)),
        "runtime.acquires": sum(lk.acquires for lk in locks),
        "runtime.node_acquires": node_acquires,
        "runtime.blocks": blocks,
        "runtime.grant_ratio": ratio(node_acquires, node_acquires + blocks),
        "stm.commits": commits,
        "stm.aborts": aborts,
        "stm.commit_ratio": ratio(commits, commits + aborts),
        "interp.checked_accesses": sum(
            w.checker.checked for _, w, _ in cells if w.checker is not None),
    })
    for cell_id, _world, s in cells:
        row[f"sim.ticks_per_s.{cell_id}"] = ratio(s.ticks, sim_s[cell_id])
    return row
