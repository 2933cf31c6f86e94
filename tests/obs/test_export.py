"""Exporter formats and the golden byte-stability guarantee.

The stability tests run the same tiny mission twice (same seed) and
require the Prometheus text and Chrome trace JSON to match byte for byte
— the property that makes metric dumps diffable across runs and CI.
"""

import json

from repro.core import Deployment, DeploymentConfig
from repro.obs.export import (
    metrics_to_json,
    metrics_to_prometheus,
    spans_to_chrome_trace,
    spans_to_ndjson,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder
from repro.sim.simtime import SimClock


def small_registry():
    reg = MetricsRegistry()
    reg.inc("frames_total", 2, result="ok")
    reg.inc("frames_total", result="crc_fail")
    reg.set_gauge("soc", 0.75, station="base")
    reg.observe("size_bytes", 42, buckets=(10, 100))
    return reg


def small_spans():
    clock = SimClock()
    rec = SpanRecorder(clock)
    with rec.span("run", track="base", day=1):
        clock.advance_to(30.0)
        with rec.span("upload", track="base"):
            clock.advance_to(90.0)
    rec.instant("tick", track="kernel", queue_depth=2)
    return rec


class TestPrometheus:
    def test_rendering(self):
        text = metrics_to_prometheus(small_registry())
        assert "# TYPE frames_total counter" in text
        assert 'frames_total{result="crc_fail"} 1' in text
        assert 'frames_total{result="ok"} 2' in text
        assert 'soc{station="base"} 0.75' in text
        assert '# TYPE size_bytes histogram' in text
        assert 'size_bytes_bucket{le="10"} 0' in text
        assert 'size_bytes_bucket{le="100"} 1' in text
        assert 'size_bytes_bucket{le="+Inf"} 1' in text
        assert "size_bytes_sum 42" in text
        assert "size_bytes_count 1" in text
        assert text.endswith("\n")

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.inc("weird_total", detail='say "hi"\nback\\slash')
        text = metrics_to_prometheus(reg)
        assert r'detail="say \"hi\"\nback\\slash"' in text

    def test_empty_registry_renders_zero_bytes(self):
        # Not a lone "\n": scrapers treat a blank line as a malformed
        # family, and the golden diff should be empty for an empty registry.
        assert metrics_to_prometheus(MetricsRegistry()) == ""

    def test_golden_exposition_bytes(self):
        """The full exposition text, byte for byte (the S1 audit pin)."""
        assert metrics_to_prometheus(small_registry()) == (
            "# TYPE frames_total counter\n"
            'frames_total{result="crc_fail"} 1\n'
            'frames_total{result="ok"} 2\n'
            "# TYPE size_bytes histogram\n"
            'size_bytes_bucket{le="10"} 0\n'
            'size_bytes_bucket{le="100"} 1\n'
            'size_bytes_bucket{le="+Inf"} 1\n'
            "size_bytes_sum 42\n"
            "size_bytes_count 1\n"
            "# TYPE soc gauge\n"
            'soc{station="base"} 0.75\n'
        )


class TestJson:
    def test_round_trips(self):
        doc = json.loads(metrics_to_json(small_registry()))
        assert doc["version"] == 1
        by_name = {}
        for entry in doc["metrics"]:
            by_name.setdefault(entry["name"], []).append(entry)
        assert by_name["soc"][0]["value"] == 0.75
        assert by_name["size_bytes"][0]["buckets"][-1] == {"le": "+Inf", "count": 1}


class TestChromeTrace:
    def test_structure(self):
        doc = json.loads(spans_to_chrome_trace(small_spans()))
        events = doc["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        # Tracks sorted alphabetically -> base gets tid 1, kernel tid 2.
        assert [(m["tid"], m["args"]["name"]) for m in metas] == [
            (1, "base"), (2, "kernel"),
        ]
        upload = next(e for e in spans if e["name"] == "upload")
        assert upload["ts"] == 30e6 and upload["dur"] == 60e6
        tick = next(e for e in spans if e["name"] == "tick")
        assert tick["dur"] == 0 and tick["args"]["queue_depth"] == 2


class TestNdjson:
    def test_one_record_per_line(self):
        lines = spans_to_ndjson(small_spans()).splitlines()
        assert len(lines) == 3
        first = json.loads(lines[0])
        assert first == {"attrs": {}, "depth": 1, "end": 90.0, "name": "upload",
                         "start": 30.0, "track": "base"}

    def test_empty(self):
        assert spans_to_ndjson(SpanRecorder()) == ""

    def test_accepts_plain_record_iterables(self):
        records = list(small_spans().records)
        assert spans_to_ndjson(records) == spans_to_ndjson(small_spans())
        assert spans_to_ndjson(iter(records)) == spans_to_ndjson(records)

    def test_non_ascii_attrs_round_trip(self):
        clock = SimClock()
        rec = SpanRecorder(clock)
        rec.instant("note", track="base", text="glaciær ↯ \"quoted\"")
        line = spans_to_ndjson(rec).splitlines()[0]
        assert json.loads(line)["attrs"]["text"] == 'glaciær ↯ "quoted"'


class TestExporterEdgeCases:
    def test_chrome_trace_empty_recorder_is_valid_json(self):
        doc = json.loads(spans_to_chrome_trace(SpanRecorder()))
        assert doc == {"displayTimeUnit": "ms", "traceEvents": []}

    def test_chrome_trace_zero_duration_instant(self):
        clock = SimClock()
        rec = SpanRecorder(clock)
        clock.advance_to(12.5)
        rec.instant("mark", track="kernel")
        doc = json.loads(spans_to_chrome_trace(rec))
        event = next(e for e in doc["traceEvents"] if e["ph"] == "X")
        assert event["ts"] == 12.5e6 and event["dur"] == 0

    def test_chrome_trace_sub_microsecond_times_stay_finite_precision(self):
        clock = SimClock()
        rec = SpanRecorder(clock)
        clock.advance_to(1e-7)
        rec.instant("tiny", track="t")
        doc = json.loads(spans_to_chrome_trace(rec))
        event = next(e for e in doc["traceEvents"] if e["ph"] == "X")
        assert event["ts"] == 0.1  # rounded to 3 decimals of a microsecond

    def test_chrome_trace_track_ids_follow_sorted_names(self):
        clock = SimClock()
        rec = SpanRecorder(clock)
        rec.instant("b", track="zeta")
        rec.instant("a", track="alpha")
        doc = json.loads(spans_to_chrome_trace(rec))
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert [(m["tid"], m["args"]["name"]) for m in metas] == [
            (1, "alpha"), (2, "zeta"),
        ]


def run_tiny_mission(seed=7, days=1.0):
    deployment = Deployment(DeploymentConfig(seed=seed))
    deployment.sim.obs.enable_kernel_spans()
    deployment.run_days(days)
    deployment.sim.obs.collect(deployment.sim)
    return deployment.sim.obs


class TestGoldenStability:
    def test_prometheus_byte_stable_across_same_seed_runs(self):
        first = metrics_to_prometheus(run_tiny_mission().metrics)
        second = metrics_to_prometheus(run_tiny_mission().metrics)
        assert first == second
        assert "battery_soc" in first and "kernel_events_processed" in first

    def test_chrome_trace_byte_stable_across_same_seed_runs(self):
        first = spans_to_chrome_trace(run_tiny_mission().spans)
        second = spans_to_chrome_trace(run_tiny_mission().spans)
        assert first == second
        doc = json.loads(first)
        assert any(e["name"] == "daily_run" for e in doc["traceEvents"])
