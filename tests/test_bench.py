"""Benchmark suite tests: programs analyze, run under every configuration,
stay serializable, and reproduce the paper's qualitative orderings."""

import random

import pytest

from repro.bench import (
    ALL_BENCHMARKS,
    CONFIGS,
    MICRO_BENCHMARKS,
    STAMP_BENCHMARKS,
    run_benchmark,
)
from repro.bench.workload import LOW_MIX, HIGH_MIX, micro_ops, th_ops
from repro.inference import infer_locks
from repro.locks import RO, RW


def test_benchmark_registry():
    assert set(MICRO_BENCHMARKS) == {
        "hashtable", "rbtree", "list", "hashtable-2", "TH",
    }
    assert set(STAMP_BENCHMARKS) == {
        "vacation", "genome", "kmeans", "bayes", "labyrinth",
    }
    assert set(ALL_BENCHMARKS) == set(MICRO_BENCHMARKS) | set(STAMP_BENCHMARKS)


@pytest.mark.parametrize("name", sorted(ALL_BENCHMARKS))
def test_every_benchmark_analyzes(name):
    spec = ALL_BENCHMARKS[name]
    result = infer_locks(spec.source, k=9)
    assert result.sections  # at least one atomic section
    for section in result.sections.values():
        assert section.locks or section.section_id.startswith("main")


@pytest.mark.parametrize("name", sorted(ALL_BENCHMARKS))
@pytest.mark.parametrize("config", CONFIGS)
def test_every_benchmark_runs_under_every_config(name, config):
    spec = ALL_BENCHMARKS[name]
    setting = spec.settings[0]
    result = run_benchmark(
        spec, config, threads=4, setting=setting, n_ops=10, ncores=4
    )
    assert result.ticks > 0
    if config != "stm":
        assert result.checked_accesses > 0


@pytest.mark.parametrize("name", ["hashtable-2", "rbtree", "TH"])
def test_lock_runs_are_serializable(name):
    spec = ALL_BENCHMARKS[name]
    result = run_benchmark(
        spec, "fine+coarse", threads=4, setting="high", n_ops=15,
        ncores=4, audit=True,
    )
    assert result.ticks > 0  # assert_serializable ran inside the harness


def test_deterministic_schedules():
    spec = ALL_BENCHMARKS["rbtree"]
    s1 = spec.schedule("low", 4, 20, seed=7)
    s2 = spec.schedule("low", 4, 20, seed=7)
    assert s1 == s2
    s3 = spec.schedule("low", 4, 20, seed=8)
    assert s1 != s3


def test_mixes_have_right_bias():
    rng = random.Random(0)
    ops = micro_ops("put", "get", "rm", "low", rng, 4000)
    gets = sum(1 for f, _ in ops if f == "get")
    puts = sum(1 for f, _ in ops if f == "put")
    assert gets > 3 * puts  # low: gets 4x more common
    rng = random.Random(0)
    ops = micro_ops("put", "get", "rm", "high", rng, 4000)
    gets = sum(1 for f, _ in ops if f == "get")
    puts = sum(1 for f, _ in ops if f == "put")
    assert puts > 3 * gets


def test_th_ops_cover_both_structures():
    rng = random.Random(1)
    ops = th_ops("high", rng, 500)
    sels = {args[0] for _, args in ops}
    assert sels == {0, 1}


# ---------------------------------------------------------------------------
# qualitative shape checks (the paper's headline results, small scale)
# ---------------------------------------------------------------------------


def ticks(name, config, setting, threads=8, n_ops=40):
    return run_benchmark(
        ALL_BENCHMARKS[name], config, threads=threads, setting=setting,
        n_ops=n_ops,
    ).ticks


def test_shape_hashtable2_fine_beats_coarse_in_high():
    """Table 2: fine-grain locks roughly halve hashtable-2-high."""
    coarse = ticks("hashtable-2", "coarse", "high")
    fine = ticks("hashtable-2", "fine+coarse", "high")
    assert fine < 0.75 * coarse


def test_shape_rbtree_read_locks_help_low_only():
    """Table 2: coarse ≈ global in high; coarse ≈ half of global in low."""
    glob_low = ticks("rbtree", "global", "low")
    coarse_low = ticks("rbtree", "coarse", "low")
    assert coarse_low < 0.7 * glob_low
    glob_high = ticks("rbtree", "global", "high")
    coarse_high = ticks("rbtree", "coarse", "high")
    assert coarse_high > 0.85 * glob_high


def test_shape_th_disjoint_structures_beat_global():
    """Table 2: TH's two structures let coarse locks beat the global lock."""
    glob = ticks("TH", "global", "low")
    coarse = ticks("TH", "coarse", "low")
    assert coarse < 0.7 * glob


def test_shape_labyrinth_stm_wins():
    """Table 2: labyrinth is the one benchmark where TL2 beats all locks."""
    glob = ticks("labyrinth", "global", None)
    stm = ticks("labyrinth", "stm", None)
    assert stm < glob


def test_shape_vacation_stm_abort_storm():
    """Table 2: vacation's always-conflicting reservations devastate TL2."""
    result = run_benchmark(
        ALL_BENCHMARKS["vacation"], "stm", threads=8, n_ops=40
    )
    assert result.stm_aborts > result.stm_commits  # more aborts than commits
    coarse = ticks("vacation", "coarse", None)
    assert result.ticks > coarse


def test_shape_kmeans_stm_worst():
    stm = ticks("kmeans", "stm", None)
    glob = ticks("kmeans", "global", None)
    assert stm > glob


class _CollidingSource(str):
    """Source text whose hash collides with every other instance."""

    def __hash__(self):
        return 0


def test_memos_key_by_source_text_not_its_hash():
    from repro.bench.harness import inference_for
    from repro.inference import shared_analysis
    first = _CollidingSource(ALL_BENCHMARKS["list"].source)
    second = _CollidingSource(ALL_BENCHMARKS["genome"].source)
    assert hash(first) == hash(second)
    assert shared_analysis(first) is not shared_analysis(second)
    assert (inference_for(first, 1).describe()
            == infer_locks(first, k=1).describe())
    assert (inference_for(second, 1).describe()
            == infer_locks(second, k=1).describe())
