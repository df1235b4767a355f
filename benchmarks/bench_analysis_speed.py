"""Analysis-speed benchmark: the Table 1 k=9 column as a perf trajectory.

Times the whole-program lock inference at k=9 over the Table 1 corpus (the
synthetic SPEC rows at ``SPEC_SCALE`` plus the STAMP programs) in three
modes and writes ``BENCH_analysis.json`` at the repo root:

* **cold** — no disk cache: the engine's default path (summaries solved
  bottom-up over the call-graph condensation) and the number the
  regression gate tracks (``total_wall_s``);
* **cold cached** — the same, into a fresh disk cache (not timed into the
  JSON: it only fills the cache);
* **warm** — rerun against the cache the cold cached pass filled: the
  front half loads pickled, sections come straight from the section
  store, the dataflow never runs.

The JSON carries per-program cold and warm walls plus aggregate solver
counters (ratios computed from summed counts, never a mean of
per-program ratios), the ``bitset_cold_wall_s``/``bitset_warm_wall_s``
column pair naming the bitset kernel path's cold/warm totals, and a
``kernel`` microbenchmark section (join + gen/kill transfer throughput on
synthetic fact bitsets, informational). Future PRs re-run this after
touching the analysis path and commit the refreshed JSON, so the file's
git history is the perf trajectory; ``--check-baseline`` compares a fresh
``bitset_cold`` run against the committed JSON and fails on a >25%
regression (the CI analysis-speed job runs it).

Run standalone (``python benchmarks/bench_analysis_speed.py [--quick]
[--check-baseline]``, ``--quick`` = STAMP-only CI smoke) or
under pytest (``pytest benchmarks/bench_analysis_speed.py``).
"""

import json
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(__file__))

from conftest import emit_report  # noqa: E402
from repro.bench.configs import STAMP_BENCHMARKS  # noqa: E402
from repro.bench.programs.spec import spec_sources  # noqa: E402
from repro.inference import LockInference  # noqa: E402

SPEC_SCALE = 0.05  # matches bench_table1_analysis_time.py

# Seed-engine wall clock for the full corpus at k=9 (sum of per-program
# analysis times, same machine class), measured at the commit introducing
# the performance layer. The acceptance bar for that layer was >= 2x.
SEED_TOTAL_S = 10.74

# --check-baseline tolerance: fail if a fresh cold run is slower than the
# committed total by more than this factor.
REGRESSION_FACTOR = 1.25

JSON_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_analysis.json")

AGGREGATE_KEYS = (
    "dataflow_steps", "summary_runs", "call_transfers", "mask_hits",
    "mask_fallbacks", "summaries_from_disk", "sections_from_disk",
)

# Synthetic fact-universe size for the kernel microbenchmark.
KERNEL_TERMS = 4096


def kernel_microbench(terms: int = KERNEL_TERMS, target_s: float = 0.05):
    """Join + transfer throughput of the bitset kernel on synthetic facts.

    Builds two overlapping fact sets over a *terms*-wide universe through
    the real :class:`FactInterner` encoding, then times the two integer
    ops the dataflow core reduces to: the join (``a | b``) and the
    warmed-up gen/kill transfer (``(bits & mask) | gen``).  Reported as
    operations/second; informational (machine-dependent), not gated.
    """
    from repro.inference.facts import FactInterner
    from repro.locks.effects import RO, RW
    from repro.locks.terms import TVar

    interner = FactInterner()
    universe = [TVar(f"synth{i}") for i in range(terms)]
    bits_a = interner.encode(
        (t, RW if i % 3 == 0 else RO)
        for i, t in enumerate(universe) if i % 2 == 0)
    bits_b = interner.encode(
        (t, RW if i % 5 == 0 else RO)
        for i, t in enumerate(universe) if i % 2 == 1 or i % 7 == 0)
    kill_mask = ~interner.encode(
        (t, RW) for i, t in enumerate(universe) if i % 4 == 0)
    gen = interner.encode(
        (t, RW if i % 2 == 0 else RO)
        for i, t in enumerate(universe) if i % 11 == 0)

    def _throughput(op):
        reps = 256
        while True:
            started = time.perf_counter()
            for _ in range(reps):
                op()
            elapsed = time.perf_counter() - started
            if elapsed >= target_s:
                return reps / elapsed
            reps *= 4

    join_ops = _throughput(lambda: bits_a | bits_b)
    transfer_ops = _throughput(lambda: (bits_a & kill_mask) | gen)
    return {
        "fact_terms": terms,
        "join_ops_per_s": int(join_ops),
        "transfer_ops_per_s": int(transfer_ops),
    }


def corpus(quick: bool = False):
    sources = {} if quick else dict(spec_sources(scale=SPEC_SCALE))
    for name, spec in STAMP_BENCHMARKS.items():
        sources[name] = spec.source
    return sources


def _sweep(sources, cache_dir=None):
    """One pass over the corpus; returns (per-program rows, total wall)."""
    rows = {}
    total = 0.0
    for name, source in sorted(sources.items()):
        started = time.perf_counter()
        result = LockInference(source, k=9, cache_dir=cache_dir).run()
        elapsed = time.perf_counter() - started
        total += elapsed
        rows[name] = (elapsed, result.profile)
    return rows, total


def measure(quick: bool = False):
    sources = corpus(quick)
    cache_root = tempfile.mkdtemp(prefix="bench-analysis-cache-")
    try:
        cold_rows, cold_total = _sweep(sources)
        _sweep(sources, cache_dir=cache_root)
        warm_rows, warm_total = _sweep(sources, cache_dir=cache_root)
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)

    rows = {}
    aggregate = {key: 0 for key in AGGREGATE_KEYS}
    warm_aggregate = {key: 0 for key in AGGREGATE_KEYS}
    for name in sorted(sources):
        cold_s, profile = cold_rows[name]
        warm_s, warm_profile = warm_rows[name]
        rows[name] = {
            "wall_s": round(cold_s, 4),
            "warm_s": round(warm_s, 4),
            "pointer_s": round(profile.pointer_time, 4),
            "dataflow_s": round(profile.dataflow_time, 4),
            "sections": profile.sections,
            "dataflow_steps": profile.dataflow_steps,
            "call_transfers": profile.call_transfers,
            "mask_hit_rate": round(profile.mask_hit_rate, 3),
            "fact_terms": profile.fact_terms,
            "peak_bitset_popcount": profile.peak_bitset_popcount,
        }
        for key in AGGREGATE_KEYS:
            aggregate[key] += getattr(profile, key)
            warm_aggregate[key] += getattr(warm_profile, key)
    return {
        "benchmark": "table1-k9-column",
        "quick": quick,
        "k": 9,
        "spec_scale": SPEC_SCALE,
        "programs": rows,
        "total_wall_s": round(cold_total, 3),
        # the cold/warm walls of the bitset kernel path, under the names
        # the regression gate tracks (the engine's default path *is* the
        # bitset kernel; total_wall_s stays as the legacy alias)
        "bitset_cold_wall_s": round(cold_total, 3),
        "bitset_warm_wall_s": round(warm_total, 3),
        "kernel": kernel_microbench(),
        "warm_wall_s": round(warm_total, 3),
        "warm_speedup": round(cold_total / warm_total, 2),
        "seed_total_wall_s": SEED_TOTAL_S if not quick else None,
        "speedup_vs_seed": (round(SEED_TOTAL_S / cold_total, 2)
                            if not quick else None),
        "aggregate": aggregate,
        "warm_aggregate": warm_aggregate,
    }


def render(report) -> str:
    lines = [f"{'Program':12s} {'cold (s)':>9s} "
             f"{'warm (s)':>9s} {'sections':>9s} {'steps':>9s} "
             f"{'calls':>9s} {'mask hit':>9s}"]
    for name, row in sorted(report["programs"].items()):
        lines.append(
            f"{name:12s} {row['wall_s']:9.3f} "
            f"{row['warm_s']:9.3f} {row['sections']:9d} "
            f"{row['dataflow_steps']:9d} "
            f"{row['call_transfers']:9d} "
            f"{row['mask_hit_rate']:9.1%}"
        )
    lines.append(
        f"{'TOTAL':12s} {report['total_wall_s']:9.3f} "
        f"{report['warm_wall_s']:9.3f}"
    )
    kernel = report["kernel"]
    lines.append(
        f"kernel microbench ({kernel['fact_terms']} synthetic terms): "
        f"join {kernel['join_ops_per_s'] / 1e6:.2f} Mop/s, "
        f"transfer {kernel['transfer_ops_per_s'] / 1e6:.2f} Mop/s"
    )
    lines.append(
        f"warm disk cache: {report['warm_speedup']:.2f}x vs cold")
    if report["speedup_vs_seed"] is not None:
        lines.append(
            f"seed engine baseline {report['seed_total_wall_s']:.2f}s "
            f"-> {report['speedup_vs_seed']:.2f}x speedup"
        )
    return "\n".join(lines)


def write_json(report) -> str:
    path = os.path.abspath(JSON_PATH)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def check_baseline(report, path=None) -> bool:
    """Compare a fresh cold total against the committed BENCH_analysis.json.

    Returns True when within ``REGRESSION_FACTOR``; missing/invalid
    baselines pass (first run on a branch that never committed one).
    """
    path = os.path.abspath(path or JSON_PATH)
    try:
        with open(path) as handle:
            committed = json.load(handle)
        # gate on the bitset kernel's cold column; older baselines that
        # predate the kernel only carry total_wall_s (same measurement)
        baseline = float(committed.get("bitset_cold_wall_s",
                                       committed["total_wall_s"]))
    except (OSError, ValueError, KeyError):
        print(f"no committed baseline at {path}; skipping the gate")
        return True
    fresh = report["bitset_cold_wall_s"]
    limit = baseline * REGRESSION_FACTOR
    verdict = "OK" if fresh <= limit else "REGRESSION"
    print(f"baseline gate: bitset_cold {fresh:.3f}s vs committed "
          f"{baseline:.3f}s (limit {limit:.3f}s) -> {verdict}")
    return fresh <= limit


def test_analysis_speed(benchmark):
    benchmark.group = "analysis-speed"

    report = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["total_wall_s"] = report["total_wall_s"]
    benchmark.extra_info["bitset_cold_wall_s"] = report["bitset_cold_wall_s"]
    benchmark.extra_info["bitset_warm_wall_s"] = report["bitset_warm_wall_s"]
    benchmark.extra_info["warm_wall_s"] = report["warm_wall_s"]
    benchmark.extra_info["speedup_vs_seed"] = report["speedup_vs_seed"]
    write_json(report)
    emit_report(
        "analysis_speed",
        f"Analysis speed: Table 1 k=9 column (SPEC at {SPEC_SCALE}x + STAMP)",
        render(report),
    )
    assert report["programs"]
    # the optimized engine must hold the PR's acceptance bar with margin
    assert report["total_wall_s"] < SEED_TOTAL_S
    # a warm rerun of an unchanged corpus must skip the dataflow outright
    assert report["warm_aggregate"]["dataflow_steps"] == 0
    assert report["warm_wall_s"] < report["total_wall_s"]
    # the bitset kernel must actually run cold (and the microbench with it)
    assert report["aggregate"]["mask_hits"] > 0
    assert report["kernel"]["join_ops_per_s"] > 0
    assert report["kernel"]["transfer_ops_per_s"] > 0


def main(argv=None) -> int:
    argv = list(argv if argv is not None else sys.argv[1:])
    quick = "--quick" in argv
    gate = "--check-baseline" in argv
    report = measure(quick=quick)
    print(render(report))
    ok = True
    if gate:
        ok = check_baseline(report)
    if not quick and not gate:
        path = write_json(report)
        print(f"wrote {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
