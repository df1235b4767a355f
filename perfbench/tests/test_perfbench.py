"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, BENCH]

import gen  # noqa: E402
import reproduce  # noqa: E402
import run  # noqa: E402
import serve_mixed  # noqa: E402
from common import END_TO_END, PER_LAYER, Outcome, check_lock_sets  # noqa: E402
from pipeline import (add_inference_counts, inference_metrics,  # noqa: E402
                      reference_locks)
from repro.bench.configs import ALL_BENCHMARKS  # noqa: E402
from repro.bench.harness import run_benchmark  # noqa: E402
from spans import Spans, covered, self_times  # noqa: E402
from speed import REFERENCE_PROBE_S, Speed  # noqa: E402
from stats import ratio, tail  # noqa: E402

DIGEST_SCRIPT = f"""
import sys
sys.path[:0] = [{SRC!r}, {BENCH!r}]
import analyze_cold, gen, reproduce, serve_mixed
print(gen.digest({{
    "analyze-cold": analyze_cold.make_inputs(3),
    "serve-mixed": serve_mixed.make_inputs(3),
    "reproduce": reproduce.make_schedules(3),
}}))
"""


def test_inputs_are_identical_under_two_hash_seeds():
    digests = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run([sys.executable, "-c", DIGEST_SCRIPT],
                              env=env, capture_output=True, text=True,
                              timeout=300, check=True)
        digests.append(done.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def test_inputs_follow_the_seed():
    assert gen.program("p", 0.5, 1) == gen.program("p", 0.5, 1)
    assert gen.program("p", 0.5, 1) != gen.program("p", 0.5, 2)


def test_an_altered_lock_set_is_flagged():
    source = ALL_BENCHMARKS["vacation"].source
    want = reference_locks(source, [(9, True)])[9, True]
    section, _locks = want.splitlines()[0].split(": ", 1)
    altered = want.replace(want.splitlines()[0], f"{section}: {{}}", 1)
    out = Outcome()
    check_lock_sets(out, {"vacation": [want]}, {"vacation": want})
    assert out.failures == []
    check_lock_sets(out, {"vacation": [want, altered]}, {"vacation": want})
    assert len(out.failures) == 1


def test_a_wrong_tick_count_is_flagged():
    expected = reproduce.load_expected()
    cell = next(c for c in reproduce.CELLS if c[0] == "labyrinth-stm")
    reproduce.install_inference()
    schedules = reproduce.make_schedules(5)
    _world, stats = reproduce.run_cell(cell, schedules[cell[0]],
                                       Spans(False))
    out = Outcome()
    assert reproduce.check_ticks(out, cell[0], stats, expected, 5)
    stats.ticks += 1
    assert not reproduce.check_ticks(out, cell[0], stats, expected, 5)
    assert out.attempted == 2 and len(out.failures) == 1


def test_cell_runner_matches_run_benchmark():
    expected = reproduce.load_expected()
    for cell_id, bench, config, setting, ops in reproduce.CELLS:
        if bench == "vacation":
            continue  # seconds each; the other cells take the same path
        result = run_benchmark(ALL_BENCHMARKS[bench], config,
                               threads=reproduce.THREADS, setting=setting,
                               n_ops=ops, ncores=reproduce.NCORES, seed=2)
        assert ([result.ticks, result.work]
                == expected["ticks_work"][cell_id][2])


def test_every_serve_request_is_answered_or_failed():
    class Client:
        def __init__(self, failing):
            self.failing = failing

        def analyze(self, source, k, use_effects):
            if self.failing:
                raise RuntimeError("retries exhausted")
            return {"served": "computed"}

        def flush(self):
            pass

    class Server:
        clients = [Client(False), Client(True)]

    streams = [[("computed", "a", 9, True)] * 3,
               [("computed", "b", 9, True)] * 2]
    _wall, samples, errors = serve_mixed.one_round(
        Server(), streams, {"a": "", "b": ""}, Spans(False))
    assert sorted((c, i) for c, i, _ in samples) == [(0, 0), (0, 1), (0, 2)]
    assert sorted((c, i) for c, i, _ in errors) == [(1, 0), (1, 1)]


def test_tail_needs_eleven_samples():
    for n in range(11):
        assert tail([float(x) for x in range(n)]) is None
    pct, value, beyond = tail([float(x) for x in range(20)])
    assert (pct, value, beyond) == (50.0, 9.0, 10)
    pct, value, beyond = tail([float(x) for x in range(1000)])
    assert pct == 99.0 and beyond >= 10 and value == 989.0


def test_ratios_sum_numerators_and_denominators():
    assert ratio(0, 0) == 0.0
    totals = {}
    locks = dict(fine_ro=0, fine_rw=0, coarse_ro=0, coarse_rw=0,
                 global_locks=0)
    base = {name: 0 for name in ("dataflow_steps", "summary_runs",
                                 "section_reruns", "transfer_cache_hits",
                                 "transfer_cache_misses", "fact_terms",
                                 "sections")}
    add_inference_counts(totals, dict(base, mask_hits=1, mask_fallbacks=0),
                         locks)
    add_inference_counts(totals, dict(base, mask_hits=0, mask_fallbacks=9),
                         locks)
    metrics = inference_metrics(totals)
    # 1 hit in 1 visit and 0 in 9: 1/10 overall, where a mean of the two
    # ratios would say 1/2
    assert metrics["inference.mask_hit_ratio"] == pytest.approx(0.1)
    assert metrics["inference.call_cache_hit_ratio"] == 0.0


def test_speed_scales_a_wall_by_the_probes_around_it():
    probes = iter([0.01, 0.03, 0.02])
    speed = Speed(lambda: next(probes))
    # probes of 0.01 and 0.03 around the first unit: a mean of 0.02
    assert speed.scale(2.0) == pytest.approx(2.0 * REFERENCE_PROBE_S / 0.02)
    # the second unit shares the 0.03 probe with the first
    assert speed.scale(1.0) == pytest.approx(REFERENCE_PROBE_S / 0.025)
    assert speed.factors == pytest.approx([REFERENCE_PROBE_S / 0.02,
                                           REFERENCE_PROBE_S / 0.025])


def test_self_time_subtracts_children_and_coverage_merges_overlaps():
    records = [
        {"id": 1, "name": "inference.solve", "start": 0.0, "end": 10.0,
         "parent": None, "request": "a"},
        {"id": 2, "name": "lang.parse", "start": 2.0, "end": 5.0,
         "parent": 1, "request": "a"},
        {"id": 3, "name": "serve.request", "start": 8.0, "end": 12.0,
         "parent": None, "request": "b"},
    ]
    own = self_times(records)
    assert own == {"inference.solve": 7.0, "lang.parse": 3.0,
                   "serve.request": 4.0}
    assert covered(records) == 12.0
    spans = Spans(True)
    with spans.span("sim.run", "cell"):
        with spans.span("bench.build_world"):
            pass
    inner, outer = spans.clear()
    assert inner["parent"] == outer["id"] and inner["request"] == "cell"
    assert Spans(False).span("sim.run") is Spans(False).span("cfg.build")


def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert spec["command"][1:] == ["perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_without_the_program_the_command_fails(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reproduce",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
