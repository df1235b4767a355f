"""Per-layer metrics of a traced run, from its spans and counters.

A traced run alternates untraced and traced passes over the same inputs.
Each traced pass gives one row of metrics; the run reports the median row,
and the tracing overhead as the median traced pass wall minus the median
untraced one.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import spans as spanlib
from common import LAYERS, PER_LAYER
from pipeline import inference_metrics
from stats import median, ratio


def trace_summary(records: Sequence[Dict[str, object]],
                  wall: float) -> Dict[str, float]:
    """Per-layer self times of one traced pass and the part of its wall
    no span covers."""
    by_layer = {layer: 0.0 for layer in LAYERS}
    for name, value in spanlib.self_times(records).items():
        by_layer[spanlib.layer_of(name)] += value
    row = {f"{layer}.self_s": value for layer, value in by_layer.items()}
    row["trace.wall_s"] = wall
    row["trace.uncovered_s"] = max(0.0, wall - spanlib.covered(records))
    return row


def analysis_row(records, wall: float, counts: Dict[str, int],
                 totals: Dict[str, int]) -> Dict[str, float]:
    """One traced pass of the analysis pipeline (front end and solves)."""
    own = spanlib.self_times(records)
    row = trace_summary(records, wall)
    row.update(counts)
    row.update(inference_metrics(totals))
    row.update({
        "lang.lex_s": own.get("lang.lex", 0.0),
        "lang.parse_s": own.get("lang.parse", 0.0),
        "lang.lower_s": own.get("lang.lower", 0.0),
        "lang.tokens_per_s": ratio(counts["lang.tokens"],
                                   own.get("lang.lex", 0.0)),
        "cfg.build_s": own.get("cfg.build", 0.0),
        "pointer.analyze_s": own.get("pointer.analyze", 0.0),
        "inference.solve_s": own.get("inference.solve", 0.0),
        "inference.transform_s": own.get("inference.transform", 0.0),
    })
    return row


def median_dicts(rows: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Key-wise median of per-pass metric dicts."""
    return {key: median(row[key] for row in rows) for key in rows[0]}


def finish(rows: List[Dict[str, float]], walls: Dict[bool, List[float]],
           import_s: float) -> Dict[str, float]:
    """Every per-layer metric: the median traced row, the overhead and the
    import probe; 0 for layers the workload does not reach."""
    out = {name: 0.0 for name in PER_LAYER}
    out.update(median_dicts(rows))
    out["trace.overhead_s"] = median(walls[True]) - median(walls[False])
    out["import.cli_s"] = import_s
    out["import.self_s"] = import_s
    return out
