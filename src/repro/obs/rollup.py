"""Streaming fleet metric rollup: order-independent fold of job snapshots.

The ROADMAP's campaign-orchestration item requires million-run sweeps
that never hold all results in memory.  Each sweep job serialises its
final :class:`~repro.obs.metrics.MetricsRegistry` via ``snapshot()``;
the runner folds snapshots into one :class:`RollupAggregate` as futures
complete and drops the per-run copy.  The aggregate's JSON rendering is
**byte-identical** regardless of ``--jobs``, cache state, or completion
order:

- counters accumulate through :class:`ExactSum` (Shewchuk's error-free
  partial sums, finalised with ``math.fsum``), so float addition order
  cannot leak into the result;
- gauges keep the value from the largest fold key (config digest, fault
  plan, seed) — "last by deterministic key", not "last to arrive" — and
  the winning key is recorded in the JSON so shard merges re-apply the
  same rule;
- histograms merge bucket-wise (integer counts; sums via ExactSum).

Shards produced by independent sweep invocations merge with
:func:`merge_rollups` (the ``repro-sim rollup`` subcommand); overlapping
fold keys across shards raise rather than silently double-count.

Inside one sweep the chunked executor ships **partial** aggregates from
worker processes instead (:meth:`RollupAggregate.to_partial_doc` /
:meth:`RollupAggregate.absorb_partial`).  Partials carry the raw
Shewchuk partial sums — lossless, unlike the correctly-rounded values a
final rollup JSON records — so the parent's merged total is the exact
sum of every raw increment regardless of how jobs were partitioned into
chunks.  Rounding a shard's counter and then summing the rounded values
is *not* partition-independent; shipping partials is what keeps the
rollup byte-identical across ``--jobs``, chunk sizes, and shared-dir
drainers.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry

#: A fold key: ``(config_digest, fault_plan_json_or_empty, seed)``.
FoldKey = Tuple[str, str, int]

#: A metric identity inside the aggregate: ``(name, sorted label items)``.
_MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


class ExactSum:
    """Error-free float accumulator (Shewchuk partials, fsum finalise).

    ``add`` maintains a list of non-overlapping partial sums whose exact
    mathematical total equals the running sum; ``value`` collapses them
    with ``math.fsum``, which is correctly rounded.  The result therefore
    depends only on the *multiset* of added values — never their order —
    which is what makes the rollup byte-identical across completion
    orders.
    """

    __slots__ = ("_partials",)

    def __init__(self) -> None:
        self._partials: List[float] = []

    def add(self, value: float) -> None:
        """Fold one value into the accumulator."""
        partials = self._partials
        count = 0
        for partial in partials:
            if abs(value) < abs(partial):
                value, partial = partial, value
            high = value + partial
            low = partial - (high - value)
            if low:
                partials[count] = low
                count += 1
            value = high
        partials[count:] = [value]

    def value(self) -> float:
        """The correctly-rounded sum of everything added so far."""
        return math.fsum(self._partials)

    def partials(self) -> List[float]:
        """The non-overlapping partials — a lossless copy of the state.

        Their exact mathematical sum equals the running sum, so feeding
        them one by one into another accumulator transfers the state
        without any rounding step in between.
        """
        return list(self._partials)

    def add_partials(self, values: Iterable[float]) -> None:
        """Fold another accumulator's :meth:`partials` into this one."""
        for value in values:
            self.add(float(value))


class _HistAccumulator:
    __slots__ = ("buckets", "counts", "inf_count", "sum", "count")

    def __init__(self, buckets: Sequence[float]) -> None:
        self.buckets = tuple(buckets)
        self.counts = [0] * len(self.buckets)
        self.inf_count = 0
        self.sum = ExactSum()
        self.count = 0


class RollupAggregate:
    """Incremental, order-independent fold of metric snapshots."""

    def __init__(self) -> None:
        self._keys: set = set()
        self._kinds: Dict[str, str] = {}
        self._counters: Dict[_MetricKey, ExactSum] = {}
        #: gauge -> (winning fold key, value); larger fold key wins.
        self._gauges: Dict[_MetricKey, Tuple[FoldKey, float]] = {}
        self._hists: Dict[_MetricKey, _HistAccumulator] = {}

    @property
    def runs(self) -> int:
        """Number of distinct fold keys absorbed so far."""
        return len(self._keys)

    # ------------------------------------------------------------------
    # Folding
    # ------------------------------------------------------------------
    def fold(self, key: FoldKey, snapshot: Mapping[str, object]) -> bool:
        """Fold one job's ``MetricsRegistry.snapshot()`` under ``key``.

        Returns False (and folds nothing) when ``key`` was already seen —
        a duplicate fold key means an identical job digest, hence an
        identical snapshot, so skipping keeps the aggregate exact.
        """
        key = (str(key[0]), str(key[1]), int(key[2]))
        if key in self._keys:
            return False
        self._keys.add(key)
        for entry in snapshot["metrics"]:  # type: ignore[index]
            name = entry["name"]
            kind = entry["kind"]
            pinned = self._kinds.setdefault(name, kind)
            if pinned != kind:
                raise ValueError(
                    f"metric {name!r} is a {pinned} in one run and a {kind} "
                    f"in another — snapshots disagree")
            metric_key = (name, tuple(sorted(
                (str(k), str(v)) for k, v in entry["labels"].items())))
            if kind == "counter":
                self._counters.setdefault(metric_key, ExactSum()).add(
                    float(entry["value"]))
            elif kind == "gauge":
                candidate = (key, float(entry["value"]))
                current = self._gauges.get(metric_key)
                if current is None or candidate[0] > current[0]:
                    self._gauges[metric_key] = candidate
            elif kind == "histogram":
                buckets = tuple(float(b) for b in entry["buckets"])
                hist = self._hists.get(metric_key)
                if hist is None:
                    hist = self._hists[metric_key] = _HistAccumulator(buckets)
                elif hist.buckets != buckets:
                    raise ValueError(
                        f"histogram {name!r} bucket specs disagree across "
                        f"runs: {hist.buckets} vs {buckets}")
                for index, count in enumerate(entry["counts"]):
                    hist.counts[index] += int(count)
                hist.inf_count += int(entry["inf_count"])
                hist.sum.add(float(entry["sum"]))
                hist.count += int(entry["count"])
            else:
                raise ValueError(f"unknown metric kind {kind!r} in snapshot")
        return True

    # ------------------------------------------------------------------
    # Worker partials (intra-sweep IPC)
    # ------------------------------------------------------------------
    #: Wire-format marker for worker partial documents.
    PARTIAL_VERSION = "rollup-partial-1"

    def to_partial_doc(self) -> Dict[str, object]:
        """The aggregate as a lossless partial for parent-side merging.

        Counter values and histogram sums ship as raw Shewchuk partials
        (:meth:`ExactSum.partials`), not rounded floats: the parent adds
        them straight into its own accumulators, so the merged total is
        the exact sum of every underlying increment no matter how the
        sweep's jobs were cut into chunks.  Gauges ship with their
        winning fold key so last-by-key survives the hop.  JSON-safe by
        construction (``repr`` round-trips floats exactly).
        """
        counters = [
            {"name": name, "labels": dict(labels), "partials": acc.partials()}
            for (name, labels), acc in self._counters.items()
        ]
        gauges = [
            {"name": name, "labels": dict(labels), "key": list(key),
             "value": value}
            for (name, labels), (key, value) in self._gauges.items()
        ]
        hists = [
            {"name": name, "labels": dict(labels),
             "buckets": list(hist.buckets), "counts": list(hist.counts),
             "inf_count": hist.inf_count,
             "sum_partials": hist.sum.partials(), "count": hist.count}
            for (name, labels), hist in self._hists.items()
        ]
        return {
            "version": self.PARTIAL_VERSION,
            "keys": [list(key) for key in sorted(self._keys)],
            "kinds": dict(self._kinds),
            "counters": counters,
            "gauges": gauges,
            "histograms": hists,
        }

    def absorb_partial(self, doc: Mapping[str, object]) -> None:
        """Merge one worker's :meth:`to_partial_doc` into this aggregate.

        Overlapping fold keys raise — inside a sweep every job belongs to
        exactly one chunk, so a shared key means the executor dispatched
        a job twice and the counters would double-count.
        """
        version = doc.get("version")
        if version != self.PARTIAL_VERSION:
            raise ValueError(f"unsupported rollup partial version {version!r}")
        keys = {(str(k[0]), str(k[1]), int(k[2]))
                for k in doc["keys"]}  # type: ignore[union-attr]
        overlap = keys & self._keys
        if overlap:
            sample = sorted(overlap)[0]
            raise ValueError(
                f"rollup partials overlap on fold key {sample!r} "
                f"({len(overlap)} shared keys) — a job was folded twice")
        for name, kind in doc["kinds"].items():  # type: ignore[union-attr]
            pinned = self._kinds.setdefault(name, kind)
            if pinned != kind:
                raise ValueError(
                    f"metric {name!r} is a {pinned} in one partial and a "
                    f"{kind} in another")
        for entry in doc["counters"]:  # type: ignore[index]
            self._counters.setdefault(
                _entry_key(entry), ExactSum()).add_partials(entry["partials"])
        for entry in doc["gauges"]:  # type: ignore[index]
            key = entry["key"]
            candidate = ((str(key[0]), str(key[1]), int(key[2])),
                         float(entry["value"]))
            metric_key = _entry_key(entry)
            current = self._gauges.get(metric_key)
            if current is None or candidate[0] > current[0]:
                self._gauges[metric_key] = candidate
        for entry in doc["histograms"]:  # type: ignore[index]
            buckets = tuple(float(b) for b in entry["buckets"])
            metric_key = _entry_key(entry)
            hist = self._hists.get(metric_key)
            if hist is None:
                hist = self._hists[metric_key] = _HistAccumulator(buckets)
            elif hist.buckets != buckets:
                raise ValueError(
                    f"histogram {entry['name']!r} bucket specs disagree "
                    f"across partials: {hist.buckets} vs {buckets}")
            for index, count in enumerate(entry["counts"]):
                hist.counts[index] += int(count)
            hist.inf_count += int(entry["inf_count"])
            hist.sum.add_partials(entry["sum_partials"])
            hist.count += int(entry["count"])
        self._keys.update(keys)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def to_doc(self) -> Dict[str, object]:
        """The aggregate as a canonical JSON-safe document."""
        entries: List[Dict[str, object]] = []
        for (name, labels), acc in self._counters.items():
            entries.append({
                "name": name, "kind": "counter", "labels": dict(labels),
                "value": acc.value(),
            })
        for (name, labels), (key, value) in self._gauges.items():
            entries.append({
                "name": name, "kind": "gauge", "labels": dict(labels),
                "value": value, "key": list(key),
            })
        for (name, labels), hist in self._hists.items():
            entries.append({
                "name": name, "kind": "histogram", "labels": dict(labels),
                "buckets": list(hist.buckets), "counts": list(hist.counts),
                "inf_count": hist.inf_count, "sum": hist.sum.value(),
                "count": hist.count,
            })
        entries.sort(key=lambda e: (e["name"], sorted(e["labels"].items())))
        return {
            "version": 1,
            "runs": self.runs,
            "keys": [list(key) for key in sorted(self._keys)],
            "metrics": entries,
        }

    def to_json(self) -> str:
        """Canonical JSON text (the byte-identity surface)."""
        return json.dumps(self.to_doc(), indent=2, sort_keys=True) + "\n"

    def to_registry(self) -> MetricsRegistry:
        """Materialise the aggregate as a plain registry (for exporters)."""
        registry = MetricsRegistry()
        for entry in self.to_doc()["metrics"]:  # type: ignore[index]
            labels = entry["labels"]
            if entry["kind"] == "counter":
                registry.counter(entry["name"], **labels).inc(entry["value"])
            elif entry["kind"] == "gauge":
                registry.gauge(entry["name"], **labels).set(entry["value"])
            else:
                hist = registry.histogram(entry["name"],
                                          buckets=entry["buckets"], **labels)
                hist.counts = [int(c) for c in entry["counts"]]
                hist.inf_count = int(entry["inf_count"])
                hist.sum = float(entry["sum"])
                hist.count = int(entry["count"])
        return registry


def _entry_key(entry: Mapping[str, object]) -> _MetricKey:
    """The aggregate-internal identity of a partial-doc metric entry."""
    return (entry["name"], tuple(sorted(
        (str(k), str(v))
        for k, v in entry["labels"].items())))  # type: ignore[union-attr]


def merge_rollups(docs: Iterable[Mapping[str, object]]) -> Dict[str, object]:
    """Merge rollup shard documents from independent sweep invocations.

    Counters and histograms add (ExactSum over shard values); gauges
    re-apply last-by-fold-key using each shard's recorded winning key.
    Overlapping fold keys across shards raise — the same run folded into
    two shards would double-count every counter.
    """
    merged = RollupAggregate()
    for doc in docs:
        version = doc.get("version")
        if version != 1:
            raise ValueError(f"unsupported rollup version {version!r}")
        shard_keys = {tuple(key) for key in doc["keys"]}  # type: ignore[index]
        overlap = {(k[0], k[1], k[2]) for k in shard_keys} & merged._keys
        if overlap:
            sample = sorted(overlap)[0]
            raise ValueError(
                f"rollup shards overlap on fold key {sample!r} "
                f"({len(overlap)} shared keys) — refusing to double-count")
        for entry in doc["metrics"]:  # type: ignore[index]
            name = entry["name"]
            kind = entry["kind"]
            pinned = merged._kinds.setdefault(name, kind)
            if pinned != kind:
                raise ValueError(
                    f"metric {name!r} is a {pinned} in one shard and a "
                    f"{kind} in another")
            metric_key = (name, tuple(sorted(
                (str(k), str(v)) for k, v in entry["labels"].items())))
            if kind == "counter":
                merged._counters.setdefault(metric_key, ExactSum()).add(
                    float(entry["value"]))
            elif kind == "gauge":
                key = entry["key"]
                candidate = ((str(key[0]), str(key[1]), int(key[2])),
                             float(entry["value"]))
                current = merged._gauges.get(metric_key)
                if current is None or candidate[0] > current[0]:
                    merged._gauges[metric_key] = candidate
            else:
                buckets = tuple(float(b) for b in entry["buckets"])
                hist = merged._hists.get(metric_key)
                if hist is None:
                    hist = merged._hists[metric_key] = _HistAccumulator(buckets)
                elif hist.buckets != buckets:
                    raise ValueError(
                        f"histogram {name!r} bucket specs disagree across "
                        f"shards: {hist.buckets} vs {buckets}")
                for index, count in enumerate(entry["counts"]):
                    hist.counts[index] += int(count)
                hist.inf_count += int(entry["inf_count"])
                hist.sum.add(float(entry["sum"]))
                hist.count += int(entry["count"])
        merged._keys.update((str(k[0]), str(k[1]), int(k[2]))
                            for k in shard_keys)
    return merged.to_doc()
