"""Workload ``analyze-cold``: one ``repro analyze`` child process at a time.

Inputs are the five STAMP sources (small) and a ladder of large generated
programs. Each child is a fresh interpreter, so process start, ``import
repro.cli`` and the front end weigh as much as they do for a user who
runs the command once. Children are reaped with ``wait4`` to read their
peak RSS. The traced run calls the layers in process instead, one public
call per layer, and times a fresh-process ``import repro.cli``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import threading
import time
from typing import Dict, List, Tuple

from repro.bench.configs import STAMP_BENCHMARKS
from repro.inference import LockInference, transform_with_inference
from repro.locks.terms import clear_intern_caches

import gen
import layers
from common import Outcome, check_lock_sets, repeated_setup, until
from pipeline import (add_inference_counts, front, import_cli_s,
                      lock_count_dict, new_counts, reference_locks)
from spans import Spans
from stats import median

K = 9
LADDER_KLOC = (5, 10, 20)
CHILD_TIMEOUT_S = 120.0


def make_inputs(seed: int) -> Tuple[Dict[str, str], Dict[str, str]]:
    small = {name: spec.source for name, spec in STAMP_BENCHMARKS.items()}
    return small, gen.ladder(seed, LADDER_KLOC)


def order(small: Dict[str, str], ladder: Dict[str, str]) -> List[str]:
    """One pass: small programs interleaved with the ladder rungs."""
    names: List[str] = []
    rest = list(ladder)
    for name in small:
        names.append(name)
        if rest:
            names.append(rest.pop(0))
    return names + rest


def run_child(ctx, path: str, err_path: str):
    """``repro analyze PATH --k 9 --no-disk-cache`` in a fresh process;
    returns (exit code, stdout, wall seconds, peak RSS in MB)."""
    argv = [sys.executable, "-m", "repro", "analyze", path, "--k", str(K),
            "--no-disk-cache"]
    with open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ctx.root, env=ctx.env,
                                stdout=subprocess.PIPE, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            stdout = proc.stdout.read()
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout.decode(), wall, usage.ru_maxrss / 1024.0


def expected_output(source: str) -> str:
    """What ``repro analyze`` prints before its timing line, from the
    pure reference engine."""
    result = LockInference(source, k=K, enable_caches=False).run()
    c = lock_count_dict(result)
    return (f"{result.describe()}\n\nlocks: {c['fine_ro']} fine-ro, "
            f"{c['fine_rw']} fine-rw, {c['coarse_ro']} coarse-ro, "
            f"{c['coarse_rw']} coarse-rw, {c['global_locks']} global\n")


def run(ctx) -> Outcome:
    out = Outcome()
    tmp = os.path.join(ctx.out_dir, f"cold-{os.getpid()}")

    def setup():
        small, ladder = make_inputs(ctx.seed)
        os.makedirs(tmp, exist_ok=True)
        paths = {}
        for name, source in {**small, **ladder}.items():
            paths[name] = os.path.join(tmp, f"{name}.mc")
            with open(paths[name], "w") as handle:
                handle.write(source)
        if not ctx.trace:
            # warm-up: one child, so the first timed one finds the
            # interpreter and the program's bytecode in the page cache
            run_child(ctx, paths["vacation"], paths["vacation"] + ".err")
        return small, ladder, paths

    try:
        (small, ladder, paths), setup_s, walls = repeated_setup(setup)
        sources = {**small, **ladder}
        out.info.update(setup_walls=walls,
                        input_digest=gen.digest(sources),
                        kloc={n: gen.kloc_of(s) for n, s in sources.items()})
        if ctx.trace:
            traced(ctx, out, sources)
        else:
            untraced(ctx, out, small, ladder, paths, setup_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return out


def untraced(ctx, out: Outcome, small, ladder, paths, setup_s) -> None:
    sources = {**small, **ladder}
    names = order(small, ladder)
    outputs: Dict[str, set] = {name: set() for name in names}
    small_walls: List[float] = []
    ladder_passes: List[List[Tuple[str, float]]] = []
    peak_mb = 0.0
    started = time.perf_counter()
    i = 0
    # whole passes first, then children until the time is up
    while i < len(names) or time.perf_counter() - started < ctx.seconds:
        name = names[i % len(names)]
        if i % len(names) == 0:
            ladder_passes.append([])
        i += 1
        try:
            code, stdout, wall, rss_mb = run_child(
                ctx, paths[name], paths[name] + ".err")
        except OSError as err:
            out.op(False, f"{name}: {err}")
            continue
        if code != 0:
            with open(paths[name] + ".err") as err:
                out.op(False, f"{name}: exit code {code}: {err.read()[-500:]}")
            continue
        out.op(True)
        outputs[name].add(stdout.split("analysis time:")[0])
        peak_mb = max(peak_mb, rss_mb)
        if name in small:
            small_walls.append(wall)
        else:
            ladder_passes[-1].append((name, wall))
    rates = [sum(gen.kloc_of(sources[n]) for n, _ in row)
             / sum(w for _, w in row)
             for row in ladder_passes if len(row) == len(ladder)]
    check_lock_sets(out, outputs, {name: expected_output(sources[name])
                                   for name in outputs})
    cold_small_s = median(small_walls)
    cold_kloc_per_s = median(rates)
    out.metrics = {"setup_s": setup_s, "peak_rss_mb": peak_mb,
                   "op_p50_ms": cold_small_s * 1000.0,
                   "work_per_s": cold_kloc_per_s}
    out.info.update(small_walls=small_walls, ladder_passes=ladder_passes)
    out.named = {"cold_small_s": (cold_small_s, "s"),
                 "cold_kloc_per_s": (cold_kloc_per_s, "KLoC/s"),
                 "children": (i, "count"),
                 "ladder_passes": (len(rates), "count")}


def in_process(name: str, source: str, spans: Spans, counts, totals) -> str:
    """One analysis through the layers' public calls; returns the lock
    sets. Nothing of it outlives the call, as in a process of its own."""
    shared = front(source, spans, name, counts)
    with spans.span("inference.solve", name):
        result = LockInference(shared, k=K).run()
    with spans.span("inference.transform", name):
        transform_with_inference(result)
    add_inference_counts(totals, result.profile.as_dict(),
                         lock_count_dict(result))
    return result.describe()


def traced(ctx, out: Outcome, sources: Dict[str, str]) -> None:
    """In-process layer calls, alternating untraced and traced passes."""
    import_s = import_cli_s(ctx.root, ctx.env)
    spans = Spans(False)
    walls: Dict[bool, List[float]] = {False: [], True: []}
    rows = []
    described: Dict[str, set] = {name: set() for name in sources}
    for n in until(ctx.seconds, 2):
        spans.enabled = n % 2 == 1
        clear_intern_caches()
        counts = new_counts()
        totals: Dict[str, int] = {}
        started = time.perf_counter()
        for name, source in sources.items():
            try:
                described[name].add(in_process(name, source, spans, counts,
                                               totals))
            except Exception as err:  # noqa: BLE001 - a failed op is data
                out.op(False, f"{name}: {type(err).__name__}: {err}")
                continue
            out.op(True)
        wall = time.perf_counter() - started
        walls[spans.enabled].append(wall)
        if spans.enabled:
            records = spans.clear()
            out.spans.extend(records)
            rows.append(layers.analysis_row(records, wall, counts, totals))
    check_lock_sets(out, described, {
        name: reference_locks(source, [(K, True)])[K, True]
        for name, source in sources.items()})
    out.metrics = layers.finish(rows, walls, import_s)
