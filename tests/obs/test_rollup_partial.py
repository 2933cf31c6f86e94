"""Worker partial-rollup shipping: lossless, partition-independent merges."""

import json

import pytest

from repro.obs.rollup import ExactSum, RollupAggregate

#: Values chosen so that per-chunk rounding would lose the small terms:
#: the exact total is 2.0, but any scheme that rounds each chunk before
#: summing can land elsewhere depending on how the chunks are cut.
PATHOLOGICAL = [1e16, 1.0, -1e16, 1.0, 1e-9, -1e-9]


def counter_snapshot(value, name="acc_total"):
    return {"version": 1, "metrics": [
        {"name": name, "kind": "counter", "labels": {}, "value": value}]}


def key(i):
    return (f"cfg{i:04d}", "", i)


def folded(values, start=0):
    agg = RollupAggregate()
    for i, value in enumerate(values):
        agg.fold(key(start + i), counter_snapshot(value))
    return agg


def wire(doc):
    """Round-trip a partial through JSON, as the pool IPC does."""
    return json.loads(json.dumps(doc))


class TestExactSumPartials:
    def test_partials_transfer_state_losslessly(self):
        a = ExactSum()
        for value in PATHOLOGICAL:
            a.add(value)
        b = ExactSum()
        b.add_partials(a.partials())
        assert b.value() == a.value() == 2.0

    def test_partials_returns_a_copy(self):
        acc = ExactSum()
        acc.add(1.0)
        acc.partials().append(100.0)
        assert acc.value() == 1.0


class TestPartialDocMerge:
    def merge_chunked(self, values, cuts):
        parent = RollupAggregate()
        start = 0
        for size in cuts:
            chunk = values[start:start + size]
            parent.absorb_partial(wire(folded(chunk, start).to_partial_doc()))
            start += size
        assert start == len(values)
        return parent

    @pytest.mark.parametrize("cuts", [(6,), (1, 5), (2, 2, 2), (3, 3),
                                      (1, 1, 1, 1, 1, 1), (5, 1)])
    def test_byte_identical_across_chunkings(self, cuts):
        direct = folded(PATHOLOGICAL)
        merged = self.merge_chunked(PATHOLOGICAL, cuts)
        assert merged.to_json() == direct.to_json()

    def test_exact_total_survives_the_hop(self):
        merged = self.merge_chunked(PATHOLOGICAL, (2, 2, 2))
        doc = merged.to_doc()
        (entry,) = doc["metrics"]
        assert entry["value"] == 2.0

    def test_runs_count_accumulates(self):
        merged = self.merge_chunked(PATHOLOGICAL, (4, 2))
        assert merged.runs == len(PATHOLOGICAL)

    def test_overlapping_fold_keys_rejected(self):
        parent = folded([1.0, 2.0])
        with pytest.raises(ValueError, match="folded twice"):
            parent.absorb_partial(wire(folded([3.0]).to_partial_doc()))

    def test_unknown_version_rejected(self):
        doc = folded([1.0]).to_partial_doc()
        doc["version"] = "rollup-partial-99"
        with pytest.raises(ValueError, match="version"):
            RollupAggregate().absorb_partial(doc)

    def test_kind_conflict_rejected(self):
        parent = RollupAggregate()
        parent.fold(key(0), counter_snapshot(1.0, name="soc"))
        child = RollupAggregate()
        child.fold(key(1), {"version": 1, "metrics": [
            {"name": "soc", "kind": "gauge", "labels": {}, "value": 0.5}]})
        with pytest.raises(ValueError, match="gauge"):
            parent.absorb_partial(wire(child.to_partial_doc()))


class TestGaugeAndHistogramPartials:
    def gauge_snapshot(self, value):
        return {"version": 1, "metrics": [
            {"name": "soc", "kind": "gauge", "labels": {}, "value": value}]}

    def hist_snapshot(self, value):
        return {"version": 1, "metrics": [
            {"name": "latency", "kind": "histogram", "labels": {},
             "buckets": [1.0, 10.0], "counts": [1 if value <= 1.0 else 0,
                                                1 if 1.0 < value <= 10.0 else 0],
             "inf_count": 1 if value > 10.0 else 0,
             "sum": value, "count": 1}]}

    def test_gauge_max_by_fold_key_across_partials(self):
        # The winning gauge is the one under the largest fold key, no
        # matter which chunk carried it or the absorb order.
        direct = RollupAggregate()
        for i, value in enumerate([0.9, 0.2, 0.5]):
            direct.fold(key(i), self.gauge_snapshot(value))
        merged = RollupAggregate()
        for i in (2, 0, 1):  # absorb out of order
            child = RollupAggregate()
            child.fold(key(i), self.gauge_snapshot([0.9, 0.2, 0.5][i]))
            merged.absorb_partial(wire(child.to_partial_doc()))
        assert merged.to_json() == direct.to_json()

    def test_histogram_counts_and_sum_merge(self):
        values = [0.5, 5.0, 50.0, 0.1]
        direct = RollupAggregate()
        for i, value in enumerate(values):
            direct.fold(key(i), self.hist_snapshot(value))
        merged = RollupAggregate()
        for start, size in ((0, 2), (2, 2)):
            child = RollupAggregate()
            for i in range(start, start + size):
                child.fold(key(i), self.hist_snapshot(values[i]))
            merged.absorb_partial(wire(child.to_partial_doc()))
        assert merged.to_json() == direct.to_json()

    def test_bucket_mismatch_rejected(self):
        parent = RollupAggregate()
        parent.fold(key(0), self.hist_snapshot(0.5))
        child = RollupAggregate()
        child.fold(key(1), {"version": 1, "metrics": [
            {"name": "latency", "kind": "histogram", "labels": {},
             "buckets": [2.0, 20.0], "counts": [0, 0], "inf_count": 0,
             "sum": 0.0, "count": 0}]})
        with pytest.raises(ValueError, match="bucket"):
            parent.absorb_partial(wire(child.to_partial_doc()))
