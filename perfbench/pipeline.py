"""The analysis pipeline called layer by layer through public functions.

``front`` runs lex, parse, lower, CFG construction and pointer analysis as
separate calls, each under its own span, and packs the outputs into a
:class:`SharedAnalysis`, so ``LockInference`` reuses them instead of
running them a second time. ``reference_locks`` is the pure reference
engine every inferred lock set is checked against.
"""

from __future__ import annotations

import subprocess
import sys
import time
from typing import Dict, List, Tuple

from repro.cfg import build_cfgs
from repro.inference import InferenceResult, LockInference, SharedAnalysis
from repro.lang import ir, lower_program
from repro.lang.parser import Parser
from repro.pointer.steensgaard import PointsTo

from spans import Spans
from stats import median, ratio


class Front(SharedAnalysis):
    """A :class:`SharedAnalysis` assembled from layer outputs the benchmark
    computed itself, one public call per layer."""

    def __init__(self, program: ir.LoweredProgram, cfgs, pointsto) -> None:
        self.program = program
        self.cfgs = cfgs
        self.pointsto = pointsto
        self.front_time = 0.0
        self.pointer_time = 0.0
        self.front_from_disk = False


def new_counts() -> Dict[str, int]:
    return {"lang.tokens": 0, "lang.ir_instrs": 0, "cfg.nodes": 0,
            "pointer.classes": 0}


def front(source: str, spans: Spans, request: str,
          counts: Dict[str, int]) -> Front:
    """Lex, parse, lower, build CFGs, run points-to.

    ``parse_program(source)`` is ``Parser(source).parse_program()``, and
    the ``Parser`` constructor is the lexer; calling the two halves
    separately times lexing and parsing apart without doing either twice."""
    with spans.span("lang.lex", request):
        parser = Parser(source)
    with spans.span("lang.parse", request):
        parsed = parser.parse_program()
    with spans.span("lang.lower", request):
        lowered = lower_program(parsed)
    with spans.span("cfg.build", request):
        cfgs = build_cfgs(lowered)
    with spans.span("pointer.analyze", request):
        pointsto = PointsTo(lowered).analyze()
    if spans.enabled:
        counts["lang.tokens"] += len(parser.tokens)
        counts["lang.ir_instrs"] += sum(
            sum(1 for _ in ir.walk_instrs(func.body))
            for func in lowered.functions.values())
        counts["cfg.nodes"] += sum(len(cfg.nodes) for cfg in cfgs.values())
        counts["pointer.classes"] += pointer_classes(lowered, pointsto)
    return Front(lowered, cfgs, pointsto)


def pointer_classes(program: ir.LoweredProgram, pointsto: PointsTo) -> int:
    """Distinct points-to classes of the program's variables and
    allocation sites."""
    ids = {pointsto.class_of_var("", name) for name in program.globals}
    for func in program.functions.values():
        for name in list(func.params) + list(func.locals):
            ids.add(pointsto.class_of_var(func.name, name))
    ids.update(pointsto.class_of_site_base(site) for site in pointsto.sites)
    return len(ids)


INFERENCE_COUNTERS = ("dataflow_steps", "summary_runs", "section_reruns",
                      "mask_hits", "mask_fallbacks", "transfer_cache_hits",
                      "transfer_cache_misses", "fact_terms", "sections")


def add_inference_counts(totals: Dict[str, int], profile: Dict[str, object],
                         locks: Dict[str, int]) -> None:
    """Accumulate one solve's profile counters and lock counts."""
    for name in INFERENCE_COUNTERS:
        totals[name] = totals.get(name, 0) + int(profile[name])
    totals["locks_fine"] = (totals.get("locks_fine", 0) + locks["fine_ro"]
                            + locks["fine_rw"])
    totals["locks_coarse"] = (totals.get("locks_coarse", 0)
                              + locks["coarse_ro"] + locks["coarse_rw"]
                              + locks["global_locks"])


def lock_count_dict(result: InferenceResult) -> Dict[str, int]:
    counts = result.lock_counts()
    return {"fine_ro": counts.fine_ro, "fine_rw": counts.fine_rw,
            "coarse_ro": counts.coarse_ro, "coarse_rw": counts.coarse_rw,
            "global_locks": counts.global_locks}


def inference_metrics(totals: Dict[str, int]) -> Dict[str, float]:
    """Per-layer inference metrics from summed counters."""
    get = totals.get
    return {
        "inference.dataflow_steps": get("dataflow_steps", 0),
        "inference.summary_runs": get("summary_runs", 0),
        "inference.section_reruns": get("section_reruns", 0),
        "inference.mask_hit_ratio": ratio(
            get("mask_hits", 0),
            get("mask_hits", 0) + get("mask_fallbacks", 0)),
        "inference.call_cache_hit_ratio": ratio(
            get("transfer_cache_hits", 0),
            get("transfer_cache_hits", 0) + get("transfer_cache_misses", 0)),
        "inference.fact_terms": get("fact_terms", 0),
        "inference.sections": get("sections", 0),
        "inference.locks_fine": get("locks_fine", 0),
        "inference.locks_coarse": get("locks_coarse", 0),
    }


def reference_locks(source: str, configs) -> Dict[Tuple[int, bool], str]:
    """``describe()`` rendering of the pure reference engine's lock sets
    for each (k, effects) in *configs*, over one shared front half."""
    shared = SharedAnalysis(source)
    return {(k, effects): LockInference(shared, k=k, use_effects=effects,
                                        enable_caches=False).run().describe()
            for k, effects in configs}


def import_cli_s(root: str, env: Dict[str, str], samples: int = 3) -> float:
    """Median fresh-process ``import repro.cli`` minus a bare interpreter
    start, sampled alternately."""
    def wall(code: str) -> float:
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                       check=True, timeout=60)
        return time.perf_counter() - started

    bare: List[float] = []
    full: List[float] = []
    for _ in range(samples):
        bare.append(wall("pass"))
        full.append(wall("import repro.cli"))
    return max(0.0, median(full) - median(bare))
