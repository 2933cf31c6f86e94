"""Deterministic metrics: counters, gauges, and fixed-bucket histograms.

The registry is the engineering view the stations' logfiles never gave the
Glacsweb team: per-subsystem counts, energy gauges, and latency/size
distributions, keyed by name + label set the way Prometheus does it.

Determinism contract (see ``docs/observability.md``):

- values must derive from *simulated* quantities only (sim time, modelled
  bytes, modelled joules) — never the host clock or host memory addresses;
- label values must come from bounded sets (station names, result enums),
  never per-reading identifiers;
- exports render metrics sorted by ``(name, labels)`` with repr-stable
  number formatting, so two same-seed missions produce byte-identical
  dumps regardless of creation order.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

#: Canonical, sorted ``((key, value), ...)`` form of a label set.
LabelItems = Tuple[Tuple[str, str], ...]

#: Generic decade buckets for histograms created without an explicit spec.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0,
)


def label_items(labels: Mapping[str, object]) -> LabelItems:
    """Normalise a label mapping to its canonical sorted tuple form."""
    return tuple(sorted((str(key), str(value)) for key, value in labels.items()))


def format_value(value: float) -> str:
    """Render a sample value byte-stably (integers without a trailing .0)."""
    number = float(value)
    if number.is_integer() and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


class Metric:
    """Base class: a named sample (or sample family member) with labels."""

    kind = "untyped"

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels

    def label_dict(self) -> Dict[str, str]:
        """The labels as a plain dict (for JSON export)."""
        return dict(self.labels)

    def sort_key(self) -> Tuple[str, LabelItems]:
        """Deterministic ordering key used by every exporter."""
        return (self.name, self.labels)


class Counter(Metric):
    """A monotonically increasing count (events, bytes, joules)."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelItems) -> None:
        super().__init__(name, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (amount={amount})")
        self.value += amount


class Gauge(Metric):
    """A point-in-time value that can move both ways (SoC, volts, depth)."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelItems) -> None:
        super().__init__(name, labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = float(value)

    def add(self, delta: float) -> None:
        """Shift the gauge by ``delta``."""
        self.value += delta


class Histogram(Metric):
    """Fixed-bucket distribution with Prometheus ``le`` semantics.

    Buckets are upper bounds; an implicit ``+Inf`` bucket always exists.
    Bucket bounds are pinned at first creation of the metric name, so every
    label set of one histogram family shares the same bounds.
    """

    kind = "histogram"

    def __init__(self, name: str, labels: LabelItems,
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, labels)
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram {name} buckets must be strictly increasing")
        self.buckets = bounds
        self.counts = [0] * len(bounds)
        self.inf_count = 0
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float, times: int = 1) -> None:
        """Record ``times`` samples of ``value`` with one bucket search.

        The sum still adds once per sample, so it is bitwise equal to
        ``times`` separate observations.
        """
        total = self.sum
        for _ in range(times):
            total += value
        self.sum = total
        self.count += times
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += times
                return
        self.inf_count += times

    def cumulative(self) -> List[Tuple[str, int]]:
        """``(le, cumulative_count)`` pairs, ending with ``+Inf``."""
        total = 0
        rows: List[Tuple[str, int]] = []
        for bound, count in zip(self.buckets, self.counts):
            total += count
            rows.append((format_value(bound), total))
        rows.append(("+Inf", total + self.inf_count))
        return rows

    def mean(self) -> float:
        """Average of all observed samples (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

class MetricsRegistry:
    """Get-or-create store of metrics keyed by name + label set.

    Each metric *name* is pinned to one kind (and, for histograms, one
    bucket spec) at first use; a later access with a conflicting kind
    raises — silent type confusion would corrupt exports.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelItems], Metric] = {}
        self._kinds: Dict[str, str] = {}
        self._buckets: Dict[str, Tuple[float, ...]] = {}

    # ------------------------------------------------------------------
    # Get-or-create accessors
    # ------------------------------------------------------------------
    def _get(self, cls, name: str, labels: Mapping[str, object]):
        pinned = self._kinds.get(name)
        if pinned is not None and pinned != cls.kind:
            raise TypeError(f"metric {name!r} is a {pinned}, not a {cls.kind}")
        key = (name, label_items(labels))
        metric = self._metrics.get(key)
        if metric is None:
            if cls is Histogram:
                metric = Histogram(name, key[1],
                                   buckets=self._buckets.get(name, DEFAULT_BUCKETS))
            else:
                metric = cls(name, key[1])
            self._metrics[key] = metric
            self._kinds[name] = cls.kind
        return metric

    def counter(self, name: str, **labels: object) -> Counter:
        """The counter for ``name`` + ``labels``, created on first use."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge for ``name`` + ``labels``, created on first use."""
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, buckets: Optional[Sequence[float]] = None,
                  **labels: object) -> Histogram:
        """The histogram for ``name`` + ``labels``.

        ``buckets`` given on first use of ``name`` pins the family's bucket
        bounds; later calls may omit it (a conflicting spec raises).
        """
        if buckets is not None:
            bounds = tuple(float(b) for b in buckets)
            pinned = self._buckets.setdefault(name, bounds)
            if pinned != bounds:
                raise ValueError(f"histogram {name!r} already pinned to buckets {pinned}")
        return self._get(Histogram, name, labels)

    # ------------------------------------------------------------------
    # Convenience mutators (the instrumentation call sites use these)
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0, **labels: object) -> None:
        """Increment the counter ``name{labels}`` by ``amount``."""
        self.counter(name, **labels).inc(amount)

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """Set the gauge ``name{labels}`` to ``value``."""
        self.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float,
                buckets: Optional[Sequence[float]] = None, **labels: object) -> None:
        """Record ``value`` into the histogram ``name{labels}``."""
        self.histogram(name, buckets=buckets, **labels).observe(value)

    # ------------------------------------------------------------------
    # Snapshot (the fleet rollup contract)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """The registry as a JSON-safe document, in canonical order.

        Floats survive a JSON round-trip exactly (``repr`` round-trips),
        so a snapshot folded from a cache hit is indistinguishable from
        one folded off the live registry — the property the sweep
        rollup's byte-identity guarantee rests on.
        """
        entries: List[Dict[str, object]] = []
        for metric in self.metrics():
            entry: Dict[str, object] = {
                "name": metric.name,
                "kind": metric.kind,
                "labels": metric.label_dict(),
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
                entry["counts"] = list(metric.counts)
                entry["inf_count"] = metric.inf_count
                entry["sum"] = metric.sum
                entry["count"] = metric.count
            else:
                entry["value"] = metric.value
            entries.append(entry)
        return {"version": 1, "metrics": entries}

    @classmethod
    def from_snapshot(cls, snapshot: Mapping[str, object]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`snapshot` output."""
        registry = cls()
        for entry in snapshot["metrics"]:  # type: ignore[index]
            name = entry["name"]
            labels = entry["labels"]
            kind = entry["kind"]
            if kind == "counter":
                registry.counter(name, **labels).inc(float(entry["value"]))
            elif kind == "gauge":
                registry.gauge(name, **labels).set(float(entry["value"]))
            elif kind == "histogram":
                histogram = registry.histogram(name, buckets=entry["buckets"],
                                               **labels)
                histogram.counts = [int(c) for c in entry["counts"]]
                histogram.inf_count = int(entry["inf_count"])
                histogram.sum = float(entry["sum"])
                histogram.count = int(entry["count"])
            else:
                raise ValueError(f"unknown metric kind {kind!r} in snapshot")
        return registry

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def metrics(self) -> List[Metric]:
        """Every registered metric, sorted by ``(name, labels)``."""
        return sorted(self._metrics.values(), key=Metric.sort_key)

    def families(self) -> "Dict[str, List[Metric]]":
        """Metrics grouped by name, names sorted, members label-sorted."""
        grouped: Dict[str, List[Metric]] = {}
        for metric in self.metrics():
            grouped.setdefault(metric.name, []).append(metric)
        return grouped

    def kind_of(self, name: str) -> Optional[str]:
        """The pinned kind of metric ``name`` (None if never used)."""
        return self._kinds.get(name)

    def __iter__(self) -> Iterator[Metric]:
        return iter(self.metrics())

    def __len__(self) -> int:
        return len(self._metrics)
