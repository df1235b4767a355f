"""In-memory span recorder for the traced run.

Each span has a name, start, end, parent span and request id. The
workloads open spans only around their own calls into a layer's public
functions, so a span name is ``<layer>.<operation>`` and the layer is
everything before the operation. Spans are kept in memory and written out
once, when the run ends.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# Span-name prefix -> layer (module of src/repro) it times.
LAYER_OF_PREFIX = {
    "lang": "lang",
    "cfg": "cfg",
    "pointer": "pointer",
    "inference": "inference",
    "bench": "bench.harness",
    "sim": "sim",
    "serve": "serve",
}

_NULL = contextlib.nullcontext()


class Spans:
    """Span recorder; a disabled recorder opens no spans at all."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: List[Dict[str, object]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def span(self, name: str, request: Optional[str] = None):
        if not self.enabled:
            return _NULL
        return self._span(name, request)

    @contextlib.contextmanager
    def _span(self, name: str, request: Optional[str]):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent["request"]
        record = {"id": next(self._ids), "name": name, "start": 0.0,
                  "end": 0.0, "parent": parent["id"] if parent else None,
                  "request": request}
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.records.append(record)

    def clear(self) -> List[Dict[str, object]]:
        """Hand back the recorded spans and start a fresh list."""
        with self._lock:
            records, self.records = self.records, []
        return records

    @staticmethod
    def write(path: str, records: Iterable[Dict[str, object]]) -> None:
        with open(path, "w") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def layer_of(name: str) -> str:
    return LAYER_OF_PREFIX[name.split(".", 1)[0]]


def self_times(records: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """Per span name: summed duration minus the part its children cover."""
    child_time: Dict[int, float] = {}
    for rec in records:
        if rec["parent"] is not None:
            child_time[rec["parent"]] = (child_time.get(rec["parent"], 0.0)
                                         + rec["end"] - rec["start"])
    out: Dict[str, float] = {}
    for rec in records:
        own = rec["end"] - rec["start"] - child_time.get(rec["id"], 0.0)
        out[rec["name"]] = out.get(rec["name"], 0.0) + own
    return out


def covered(records: Sequence[Dict[str, object]]) -> float:
    """Length of the union of all span intervals (threads may overlap)."""
    intervals: List[Tuple[float, float]] = sorted(
        (rec["start"], rec["end"]) for rec in records)
    total = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
