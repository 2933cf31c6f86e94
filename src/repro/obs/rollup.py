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
:meth:`RollupAggregate.absorb_partial`).  A partial has the same metric
entries as a rollup document, but its counters and histogram sums carry
the raw Shewchuk partial sums — lossless, unlike the correctly-rounded
values a final rollup JSON records — so the parent's merged total is the
exact sum of every raw increment regardless of how jobs were partitioned
into chunks.  Rounding a shard's counter and then summing the rounded values
is *not* partition-independent; shipping partials is what keeps the
rollup byte-identical across ``--jobs``, chunk sizes, and shared-dir
drainers.

Folding a snapshot, absorbing a partial and merging a shard all run the
same merge body; they differ only in where a gauge's fold key comes from
and in what a repeated fold key means.
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
        """Fold values, such as another accumulator's :meth:`partials`, in."""
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
    # Merging
    # ------------------------------------------------------------------
    def fold(self, key: FoldKey, snapshot: Mapping[str, object]) -> bool:
        """Fold one job's ``MetricsRegistry.snapshot()`` under ``key``.

        Returns False (and folds nothing) when ``key`` was already seen —
        a duplicate fold key means an identical job digest, hence an
        identical snapshot, so skipping keeps the aggregate exact.
        """
        key = _fold_key(key)
        if key in self._keys:
            return False
        self._keys.add(key)
        self._merge(snapshot["metrics"], key)  # type: ignore[index]
        return True

    #: Wire-format marker for worker partial documents.
    PARTIAL_VERSION = "rollup-partial-2"

    def absorb_partial(self, doc: Mapping[str, object]) -> None:
        """Merge one worker's :meth:`to_partial_doc` into this aggregate.

        Overlapping fold keys raise — inside a sweep every job belongs to
        exactly one chunk, so a shared key means the executor dispatched
        a job twice and the counters would double-count.
        """
        self._absorb(doc, self.PARTIAL_VERSION)

    def _absorb(self, doc: Mapping[str, object], version: object) -> None:
        """Merge a partial or rollup document whose keys must all be new."""
        if doc.get("version") != version:
            raise ValueError(
                f"unsupported rollup version {doc.get('version')!r}")
        keys = {_fold_key(key) for key in doc["keys"]}  # type: ignore[union-attr]
        overlap = keys & self._keys
        if overlap:
            raise ValueError(
                f"rollup documents overlap on fold key {sorted(overlap)[0]!r} "
                f"({len(overlap)} shared keys) — a job was folded twice")
        self._merge(doc["metrics"], None)  # type: ignore[index]
        self._keys.update(keys)

    def _merge(self, entries: Iterable[Mapping], key: Optional[FoldKey]) -> None:
        """Add metric entries into the aggregate: the one merge body.

        A counter value, or a histogram sum, arrives either as one float
        (``value`` / ``sum``) or as raw Shewchuk partials (``partials`` /
        ``sum_partials``).  A gauge competes under ``key`` when folding a
        snapshot, else under the winning key its entry recorded.
        """
        kinds = self._kinds
        counters = self._counters
        gauges = self._gauges
        hists = self._hists
        for entry in entries:
            name = entry["name"]
            kind = entry["kind"]
            pinned = kinds.setdefault(name, kind)
            if pinned != kind:
                raise ValueError(
                    f"metric {name!r} is a {pinned} in one run and a {kind} "
                    f"in another — documents disagree")
            metric_key = _entry_key(entry)
            if kind == "counter":
                counter = counters.get(metric_key)
                if counter is None:
                    counter = counters[metric_key] = ExactSum()
                partials = entry.get("partials")
                if partials is None:
                    counter.add(float(entry["value"]))
                else:
                    counter.add_partials(partials)
            elif kind == "gauge":
                candidate = (key if key is not None else _fold_key(entry["key"]),
                             float(entry["value"]))
                current = gauges.get(metric_key)
                if current is None or candidate[0] > current[0]:
                    gauges[metric_key] = candidate
            elif kind == "histogram":
                buckets = tuple(float(b) for b in entry["buckets"])
                hist = hists.get(metric_key)
                if hist is None:
                    hist = hists[metric_key] = _HistAccumulator(buckets)
                elif hist.buckets != buckets:
                    raise ValueError(
                        f"histogram {name!r} bucket specs disagree across "
                        f"runs: {hist.buckets} vs {buckets}")
                for index, count in enumerate(entry["counts"]):
                    hist.counts[index] += int(count)
                hist.inf_count += int(entry["inf_count"])
                partials = entry.get("sum_partials")
                if partials is None:
                    hist.sum.add(float(entry["sum"]))
                else:
                    hist.sum.add_partials(partials)
                hist.count += int(entry["count"])
            else:
                raise ValueError(f"unknown metric kind {kind!r} in snapshot")

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def _doc(self, version: object, lossless: bool) -> Dict[str, object]:
        """The aggregate's fold keys and metric entries.

        ``lossless`` ships counter values and histogram sums as raw partials
        (``partials`` / ``sum_partials``), not rounded ``value`` / ``sum``,
        and skips the canonical (name, sorted labels) order the merge does
        not need; metric keys hold their labels sorted, so they sort so.
        """
        total = ExactSum.partials if lossless else ExactSum.value
        value, hist_sum = (("partials", "sum_partials") if lossless
                           else ("value", "sum"))
        metrics: List[Tuple[_MetricKey, Dict[str, object]]] = []
        for metric_key, acc in self._counters.items():
            metrics.append((metric_key, {
                "name": metric_key[0], "kind": "counter",
                "labels": dict(metric_key[1]), value: total(acc),
            }))
        for metric_key, (key, gauge) in self._gauges.items():
            metrics.append((metric_key, {
                "name": metric_key[0], "kind": "gauge",
                "labels": dict(metric_key[1]), "value": gauge, "key": list(key),
            }))
        for metric_key, hist in self._hists.items():
            metrics.append((metric_key, {
                "name": metric_key[0], "kind": "histogram",
                "labels": dict(metric_key[1]), "buckets": list(hist.buckets),
                "counts": list(hist.counts), "inf_count": hist.inf_count,
                hist_sum: total(hist.sum), "count": hist.count,
            }))
        if not lossless:
            metrics.sort(key=lambda pair: pair[0])
        return {
            "version": version,
            "runs": self.runs,
            "keys": [list(key) for key in sorted(self._keys)],
            "metrics": [entry for _metric_key, entry in metrics],
        }

    def to_doc(self) -> Dict[str, object]:
        """The aggregate as a canonical JSON-safe document."""
        return self._doc(1, lossless=False)

    def to_partial_doc(self) -> Dict[str, object]:
        """The aggregate as a lossless partial for parent-side merging.

        :meth:`to_doc`'s entries, with raw :meth:`ExactSum.partials` in
        place of rounded counter values and histogram sums (see the module
        docstring); gauges keep their winning fold key.  JSON-safe.
        """
        return self._doc(self.PARTIAL_VERSION, lossless=True)

    def to_json(self) -> str:
        """Canonical JSON text (the byte-identity surface)."""
        return json.dumps(self.to_doc(), indent=2, sort_keys=True) + "\n"

    def to_registry(self) -> MetricsRegistry:
        """Materialise the aggregate as a plain registry (for exporters)."""
        return MetricsRegistry.from_snapshot(self.to_doc())


def _fold_key(raw: Sequence) -> FoldKey:
    """A fold key in canonical form (JSON turns its tuple into a list)."""
    return (str(raw[0]), str(raw[1]), int(raw[2]))


def _entry_key(entry: Mapping[str, object]) -> _MetricKey:
    """The aggregate-internal identity of a metric entry."""
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
        merged._absorb(doc, 1)
    return merged.to_doc()
