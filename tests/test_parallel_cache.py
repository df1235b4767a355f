"""Bottom-up SCC scheduling and the persistent analysis cache.

Three guarantee families for the scheduled/cached engine paths:

* **golden equivalence** — for every benchmark program and k ∈ {0, 1, 9},
  the default run (summaries solved bottom-up), a cold run into a fresh
  disk cache, a warm rerun against it, and the lazy cache-less reference
  all produce identical lock sets, byte for byte;
* **incremental invalidation** — editing one function recomputes exactly
  its SCC cone: callee summaries below the edit load from disk, functions
  above it (and only those) re-solve;
* **accounting** — call transfers and the kernel's mask counters
  partition transfer executions exactly (``call_transfers + mask_hits +
  mask_fallbacks == dataflow_steps``) and the two disk namespaces (bench
  result cells, analysis cache) cannot collide under a shared
  ``--cache-dir`` root.
"""

import os

import pytest

from repro.bench import ALL_BENCHMARKS
from repro.bench.executor import _cache_path
from repro.cfg import build_cfgs, build_schedule, call_graph, cone_hashes, tarjan_sccs
from repro.inference import Engine, LockInference, open_cache
from repro.inference.schedule import precompute_summaries
from repro.lang import lower_program, parse_program
from repro.pointer import PointsTo

KS = (0, 1, 9)


def _locks_by_section(result):
    return {sid: section.locks for sid, section in result.sections.items()}


def _rendered(locks_by_section):
    return {
        sid: sorted(str(lock) for lock in locks)
        for sid, locks in locks_by_section.items()
    }


# ---------------------------------------------------------------------------
# golden equivalence: default == cold-cached == warm == enable_caches=False
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ALL_BENCHMARKS))
def test_parallel_and_warm_match_reference(name, tmp_path):
    source = ALL_BENCHMARKS[name].source
    cache_root = str(tmp_path / "cache")
    for k in KS:
        reference = _locks_by_section(
            LockInference(source, k=k, enable_caches=False).run())
        default = _locks_by_section(LockInference(source, k=k).run())
        cold = LockInference(source, k=k, cache_dir=cache_root).run()
        warm = LockInference(source, k=k, cache_dir=cache_root).run()
        warm_locks = _locks_by_section(warm)
        for label, got in (("default", default),
                           ("cold-cached", _locks_by_section(cold)),
                           ("warm", warm_locks)):
            assert got == reference, f"{name} k={k}: {label} diverged"
            assert _rendered(got) == _rendered(reference)
        # the warm rerun of an unchanged program must skip dataflow
        assert warm.profile.dataflow_steps == 0, f"{name} k={k}"
        assert warm.profile.sections_from_disk == len(reference)


# ---------------------------------------------------------------------------
# call-graph condensation
# ---------------------------------------------------------------------------

CHAIN = """
int g;
int h() { g = g + 1; return g; }
int mid() { int x; x = h(); return x; }
int f() { int y; y = mid(); return y; }
void main() {
  int r;
  r = 7;
  atomic { r = f(); }
}
"""

MUTUAL = """
int g;
int even(int n) { if (n == 0) { return 1; } return odd(n - 1); }
int odd(int n) { if (n == 0) { return 0; } return even(n - 1); }
void main() {
  int r;
  atomic { r = even(g); }
}
"""


def test_tarjan_reverse_topological():
    graph = {"a": {"b"}, "b": {"c"}, "c": set(), "d": {"a"}}
    sccs = tarjan_sccs(graph)
    assert ("c",) in sccs and ("a",) in sccs
    order = {comp: idx for idx, comp in enumerate(sccs)}
    assert order[("c",)] < order[("b",)] < order[("a",)] < order[("d",)]


def test_tarjan_mutual_recursion_single_component():
    program = lower_program(parse_program(MUTUAL))
    schedule = build_schedule(program)
    assert schedule.func_scc["even"] == schedule.func_scc["odd"]
    idx = schedule.func_scc["even"]
    assert schedule.sccs[idx] == ("even", "odd")
    assert schedule.recursive[idx]
    assert not schedule.recursive[schedule.func_scc["main"]]


def test_levels_are_call_independent():
    program = lower_program(parse_program(CHAIN))
    schedule = build_schedule(program)
    graph = call_graph(program)
    for level in schedule.levels:
        funcs = {f for idx in level for f in schedule.sccs[idx]}
        for idx in level:
            for func in schedule.sccs[idx]:
                callees_here = graph[func] & funcs
                assert callees_here <= set(schedule.sccs[idx])
    # the chain must layer bottom-up: h below mid below f below main
    depth = {}
    for d, level in enumerate(schedule.levels):
        for idx in level:
            for func in schedule.sccs[idx]:
                depth[func] = d
    assert depth["h"] < depth["mid"] < depth["f"] < depth["main"]


def test_cone_hashes_change_exactly_above_an_edit():
    before = lower_program(parse_program(CHAIN))
    after = lower_program(parse_program(CHAIN.replace("g + 1", "g + 2")))
    h_before = cone_hashes(before, build_schedule(before))
    h_after = cone_hashes(after, build_schedule(after))
    # the edit is inside h: h and every transitive caller change ...
    for func in ("h", "mid", "f", "main"):
        assert h_before[func] != h_after[func]
    # ... and an edit in main leaves every callee's cone untouched
    after_main = lower_program(parse_program(CHAIN.replace("r = 7", "r = 8")))
    h_main = cone_hashes(after_main, build_schedule(after_main))
    for func in ("h", "mid", "f"):
        assert h_before[func] == h_main[func]
    assert h_before["main"] != h_main["main"]


# ---------------------------------------------------------------------------
# incremental invalidation: only the dirty SCC cone recomputes
# ---------------------------------------------------------------------------


def _run_engine(source, cache_root, bottom_up=False):
    program = lower_program(parse_program(source))
    pointsto = PointsTo(program).analyze()
    cfgs = build_cfgs(program)
    schedule = build_schedule(program)
    disk = open_cache(cache_root, program, pointsto, 9, True, schedule)
    engine = Engine(program, cfgs, pointsto, k=9, disk_cache=disk)
    if bottom_up:
        precompute_summaries(engine, schedule)
    locks = {}
    for func_name, cfg in cfgs.items():
        for section in cfg.sections.values():
            locks[section.section_id] = engine.analyze_section(
                func_name, section).locks
    disk.store_dirty(engine)
    return engine, locks


def test_edit_recomputes_only_dirty_cone(tmp_path):
    cache_root = str(tmp_path)
    cold, cold_locks = _run_engine(CHAIN, cache_root)
    assert cold.computed_funcs >= {"f", "mid", "h"}

    # warm, unchanged: nothing recomputes, summaries come from disk
    warm, warm_locks = _run_engine(CHAIN, cache_root)
    assert warm_locks == cold_locks
    assert warm.computed_funcs == set()
    assert warm.stats["sections_from_disk"] == 1

    # pointer-preserving edit in main only: every callee summary loads,
    # only the section in main re-runs
    edited_main = CHAIN.replace("r = 7", "r = 8")
    engine, _ = _run_engine(edited_main, cache_root)
    assert engine.computed_funcs == set()
    assert engine.stats["sections_from_disk"] == 0
    assert engine.loaded_funcs >= {"f"}
    assert engine.stats["dataflow_steps"] > 0

    # edit the leaf: its whole caller cone is dirty, nothing usable on disk
    edited_leaf = CHAIN.replace("g + 1", "g + 2")
    engine, _ = _run_engine(edited_leaf, cache_root)
    assert engine.computed_funcs >= {"f", "mid", "h"}
    assert engine.stats["summaries_from_disk"] == 0
    assert engine.stats["sections_from_disk"] == 0


def test_warm_precompute_loads_instead_of_solving(tmp_path):
    cache_root = str(tmp_path)
    _run_engine(CHAIN, cache_root, bottom_up=True)
    warm, _ = _run_engine(CHAIN, cache_root, bottom_up=True)
    assert warm.computed_funcs == set()
    assert warm.stats["summary_runs"] == 0


def test_default_run_solves_summaries_bottom_up():
    # the default engine solves every callee summary before the section
    # runs, so no summary changes under the section and it never re-runs
    profile = LockInference(CHAIN, k=9).run().profile
    assert profile.sccs_run > 0
    assert profile.section_reruns == 0


# ---------------------------------------------------------------------------
# accounting and namespacing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ("vacation", "TH"))
def test_transfer_counters_partition_steps(name):
    source = ALL_BENCHMARKS[name].source
    program = lower_program(parse_program(source))
    pointsto = PointsTo(program).analyze()
    cfgs = build_cfgs(program)
    engine = Engine(program, cfgs, pointsto, k=9)
    precompute_summaries(engine)
    for func_name, cfg in cfgs.items():
        for section in cfg.sections.values():
            engine.analyze_section(func_name, section)
    stats = engine.stats
    # every transfer execution is exactly one call transfer, kernel mask
    # hit, or kernel fallback — the counters partition the steps exactly
    assert (stats["call_transfers"] + stats["mask_hits"]
            + stats["mask_fallbacks"] == stats["dataflow_steps"])
    # the kernel's fast path must actually serve repeat visits
    assert stats["mask_hits"] > 0
    assert 0 < stats["call_transfers"] < stats["dataflow_steps"]


def test_reference_engine_still_counts_raw_steps():
    source = ALL_BENCHMARKS["vacation"].source
    program = lower_program(parse_program(source))
    pointsto = PointsTo(program).analyze()
    cfgs = build_cfgs(program)
    engine = Engine(program, cfgs, pointsto, k=9, enable_caches=False)
    for func_name, cfg in cfgs.items():
        for section in cfg.sections.values():
            engine.analyze_section(func_name, section)
    assert engine.stats["dataflow_steps"] > 0
    for counter in ("call_transfers", "mask_hits", "mask_fallbacks"):
        assert engine.stats[counter] == 0


def test_cell_and_analysis_namespaces_disjoint(tmp_path):
    root = str(tmp_path)
    cell = _cache_path(root, "deadbeef")
    assert os.path.relpath(cell, root).split(os.sep)[0] == "cells"
    program = lower_program(parse_program(CHAIN))
    pointsto = PointsTo(program).analyze()
    disk = open_cache(root, program, pointsto, 9, True)
    assert os.path.relpath(disk.root, root).split(os.sep)[0] == "analysis"


def test_disk_cache_keys_depend_on_configuration(tmp_path):
    root = str(tmp_path)
    cold, locks = _run_engine(CHAIN, root)
    assert cold.computed_funcs
    # same program, different k: nothing may be served from the k=9 cache
    program = lower_program(parse_program(CHAIN))
    pointsto = PointsTo(program).analyze()
    cfgs = build_cfgs(program)
    disk = open_cache(root, program, pointsto, 1, True)
    engine = Engine(program, cfgs, pointsto, k=1, disk_cache=disk)
    for func_name, cfg in cfgs.items():
        for section in cfg.sections.values():
            engine.analyze_section(func_name, section)
    assert engine.stats["sections_from_disk"] == 0
    assert engine.stats["summaries_from_disk"] == 0
