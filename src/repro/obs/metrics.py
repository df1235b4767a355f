"""Metrics registry: labeled counter and histogram families.

The analysis server is the one component that keeps a registry: its
``status`` reply carries :meth:`MetricsRegistry.snapshot` (per-kind request
latency histograms plus request, provenance and error counters).  Every
other component — the inference engine, the simulator, the lock manager,
the disk cache — owns its counters as plain fields or plain dicts.
"""

from __future__ import annotations

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Histogram",
    "DEFAULT_BUCKETS",
]

# Upper bounds of the default histogram buckets (seconds-flavoured, but any
# unit works); a final +inf bucket is implicit.
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0)

_KINDS = ("counter", "histogram")


class Counter:
    """Monotone scalar; one sample of a counter family."""

    __slots__ = ("_values", "_key")

    def __init__(self, values, key):
        self._values = values
        self._key = key
        values.setdefault(key, 0)

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError("counters only go up")
        self._values[self._key] = self._values.get(self._key, 0) + amount

    @property
    def value(self):
        return self._values.get(self._key, 0)


class Histogram:
    """Fixed-bucket histogram."""

    __slots__ = ("bounds", "counts", "total", "count", "min", "max")

    def __init__(self, bounds=DEFAULT_BUCKETS):
        bounds = tuple(sorted(float(b) for b in bounds))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.count = 0
        self.min = None
        self.max = None

    def observe(self, value):
        value = float(value)
        lo, hi = 0, len(self.bounds)
        while lo < hi:  # first bound >= value (bisect, no import needed)
            mid = (lo + hi) // 2
            if self.bounds[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        self.counts[lo] += 1
        self.total += value
        self.count += 1
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def to_dict(self):
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "total": self.total,
            "count": self.count,
            "min": self.min,
            "max": self.max,
        }

    def __repr__(self):
        return (f"Histogram(count={self.count}, total={self.total:.6g}, "
                f"buckets={len(self.bounds) + 1})")


class Family:
    """A named group of samples distinguished by label values.

    ``label_names`` with exactly one entry keys ``values`` directly by the
    label value; more than one keys by tuple; zero uses the key ``None``
    (a scalar family).
    """

    __slots__ = ("name", "kind", "label_names", "help", "values", "buckets")

    def __init__(self, name, kind, label_names=(), help="",  # noqa: A002
                 buckets=DEFAULT_BUCKETS):
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.label_names = tuple(label_names)
        self.help = help
        self.buckets = tuple(buckets)
        self.values = {}

    def _key(self, label_values):
        if len(label_values) != len(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {label_values!r}")
        if not label_values:
            return None
        if len(label_values) == 1:
            return label_values[0]
        return tuple(label_values)

    def labels(self, *label_values):
        key = self._key(label_values)
        if self.kind == "counter":
            return Counter(self.values, key)
        hist = self.values.get(key)
        if hist is None:
            hist = self.values[key] = Histogram(self.buckets)
        return hist

    def data(self):
        """Snapshot of the family's samples (histograms as dicts)."""
        if self.kind == "histogram":
            return {key: hist.to_dict() for key, hist in self.values.items()}
        return dict(self.values)


class MetricsRegistry:
    """Process-local registry of metric families."""

    def __init__(self):
        self._families = {}

    def _family(self, name, kind, labels, help,  # noqa: A002
                buckets=DEFAULT_BUCKETS):
        existing = self._families.get(name)
        if existing is not None:
            if existing.kind != kind or existing.label_names != tuple(labels):
                raise ValueError(
                    f"metric {name!r} re-registered with a different shape")
            return existing
        family = Family(name, kind, labels, help, buckets)
        self._families[name] = family
        return family

    def counter(self, name, labels=(), help=""):  # noqa: A002
        return self._family(name, "counter", labels, help)

    def histogram(self, name, labels=(), help="",  # noqa: A002
                  buckets=DEFAULT_BUCKETS):
        return self._family(name, "histogram", labels, help, buckets)

    def snapshot(self):
        """``{family name: {kind, labels, values}}`` with plain-data values."""
        out = {}
        for name, family in sorted(self._families.items()):
            out[name] = {
                "kind": family.kind,
                "labels": list(family.label_names),
                "values": {_label_key(k): v for k, v in family.data().items()},
            }
        return out


def _label_key(key):
    """Render a sample key as a stable JSON-safe string."""
    if key is None:
        return ""
    if isinstance(key, tuple):
        return ",".join(str(part) for part in key)
    return str(key)
