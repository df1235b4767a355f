"""What every workload shares: the run context, the outcome it reports,
the metric catalogue and repeated set-up."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (Callable, Dict, Hashable, Iterable, List, Optional,
                    Tuple, TypeVar)

from speed import Speed
from stats import median

T = TypeVar("T")

# How many times a run repeats its set-up; set-up time is their median.
SETUP_REPEATS = 5

# End-to-end metrics, reported by every untraced run. Each workload gives
# them its own meaning (README.md, "End-to-end metrics").
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "work_per_s": "1/s",
}

# The simulated Table 2 cells of the reproduce workload: (metric id,
# benchmark, configuration, setting, ops per thread). vacation runs 16 ops
# instead of its default 120 so that one pass over the list takes a few
# seconds and a run holds several passes.
CELLS: Tuple[Tuple[str, str, str, Optional[str], int], ...] = (
    ("vacation-global", "vacation", "global", None, 16),
    ("vacation-fine-coarse", "vacation", "fine+coarse", None, 16),
    ("vacation-stm", "vacation", "stm", None, 16),
    ("hashtable-2-high-fine-coarse", "hashtable-2", "fine+coarse", "high",
     120),
    ("hashtable-low-coarse", "hashtable", "coarse", "low", 60),
    ("labyrinth-stm", "labyrinth", "stm", None, 120),
)

LAYERS = ("import", "lang", "cfg", "pointer", "inference", "bench.harness",
          "sim", "serve")

# Per-layer metrics, reported by every traced run (0 where the workload
# does not reach the layer).
PER_LAYER: Dict[str, str] = {
    "import.cli_s": "s",
    "lang.lex_s": "s",
    "lang.parse_s": "s",
    "lang.lower_s": "s",
    "lang.tokens": "count",
    "lang.tokens_per_s": "1/s",
    "lang.ir_instrs": "count",
    "cfg.build_s": "s",
    "cfg.nodes": "count",
    "pointer.analyze_s": "s",
    "pointer.classes": "count",
    "inference.solve_s": "s",
    "inference.dataflow_steps": "count",
    "inference.summary_runs": "count",
    "inference.section_reruns": "count",
    "inference.mask_hit_ratio": "ratio",
    "inference.call_cache_hit_ratio": "ratio",
    "inference.fact_terms": "count",
    "inference.sections": "count",
    "inference.locks_fine": "count",
    "inference.locks_coarse": "count",
    "inference.transform_s": "s",
    "bench.build_world_s": "s",
    "sim.run_s": "s",
    "sim.ticks": "count",
    "sim.work": "count",
    "sim.blocked_ticks": "count",
    "sim.failed_tries": "count",
    "sim.ticks_per_s": "1/s",
    **{f"sim.ticks_per_s.{cell[0]}": "1/s" for cell in CELLS},
    "sim.utilization": "ratio",
    "runtime.acquires": "count",
    "runtime.node_acquires": "count",
    "runtime.blocks": "count",
    "runtime.grant_ratio": "ratio",
    "stm.commits": "count",
    "stm.aborts": "count",
    "stm.commit_ratio": "ratio",
    "interp.checked_accesses": "count",
    "serve.rtt_ms.memo": "ms",
    "serve.rtt_ms.warm": "ms",
    "serve.rtt_ms.computed": "ms",
    "serve.tail_ms": "ms",
    "serve.memo_hit_ratio": "ratio",
    "serve.errors": "count",
    "client.retries": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.uncovered_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Ctx:
    root: str
    out_dir: str
    seed: int
    seconds: float
    trace: bool
    env: Dict[str, str]


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    # the metrics of the final JSON line: END_TO_END or PER_LAYER names
    metrics: Dict[str, float] = field(default_factory=dict)
    # the workload's own metrics, such as cold_small_s: name -> (value, unit)
    named: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)
    spans: List[Dict[str, object]] = field(default_factory=list)

    def op(self, ok: bool, failure: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(failure)
        return ok

    def check(self, ok: bool, failure: str) -> bool:
        """An output check that is not an operation of its own."""
        if not ok:
            self.failures.append(failure)
        return ok


def check_lock_sets(out: Outcome, observed: Dict[Hashable, Iterable[str]],
                    reference: Dict[Hashable, str]) -> None:
    """Every lock-set rendering seen for a key must equal the reference
    engine's, byte for byte."""
    for key, seen in observed.items():
        for got in seen:
            out.check(got == reference[key],
                      f"{key}: lock sets differ from the reference engine")


def repeated_setup(setup: Callable[[], T],
                   teardown: Callable[[T], None] = lambda state: None,
                   scale: bool = False
                   ) -> Tuple[T, float, Dict[str, List[float]]]:
    """Run *setup* ``SETUP_REPEATS`` times; keep the last state, tear the
    others down, and return (state, median wall, {"raw": walls}). With
    *scale*, the walls are also taken at the reference speed (speed.py),
    under "scaled", and the median is theirs."""
    walls: Dict[str, List[float]] = {"raw": [], "scaled": []}
    state = None
    speed = Speed() if scale else None
    for n in range(SETUP_REPEATS):
        if n:
            teardown(state)
        started = time.perf_counter()
        state = setup()
        wall = time.perf_counter() - started
        walls["raw"].append(wall)
        if speed is not None:
            walls["scaled"].append(speed.scale(wall))
    if speed is None:
        del walls["scaled"]
    return state, median(walls["scaled" if scale else "raw"]), walls


def until(seconds: float, minimum: int = 1):
    """Yield pass numbers until *seconds* have gone by, and at least
    *minimum* of them."""
    started = time.perf_counter()
    n = 0
    while n < minimum or time.perf_counter() - started < seconds:
        yield n
        n += 1
