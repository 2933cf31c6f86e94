"""Simulation-wide observability: metrics, spans, and telemetry export.

The paper's operational story is told through logfiles; :mod:`repro.sim.trace`
reproduces those.  This package reproduces the *engineering view* the
Glacsweb team never had in the field: per-subsystem counters and gauges
(:mod:`repro.obs.metrics`), sim-time span trees (:mod:`repro.obs.spans`),
and stable Prometheus / JSON / Chrome-trace / NDJSON exporters
(:mod:`repro.obs.export`).

Mission/fleet-scale accountability rides on top: the data-provenance
ledger (:mod:`repro.obs.provenance`) tracks every science artifact from
creation to the Southampton archive and closes the mission with a
conservation check; the streaming rollup (:mod:`repro.obs.rollup`) folds
per-run metric snapshots into one order-independent campaign aggregate;
the alert engine (:mod:`repro.obs.alerts`) evaluates declarative SLO
rules against the trace stream.  See ``docs/telemetry_rollup.md``.

Entry points: every :class:`~repro.sim.kernel.Simulation` owns an
:class:`Observability` as ``sim.obs``; the ``repro-sim metrics`` subcommand
and the ``--metrics-out`` / ``--spans-out`` flags dump a mission's
telemetry.  Conventions and determinism rules: ``docs/observability.md``.
"""

from repro.obs.alerts import AlertEngine, AlertFiring
from repro.obs.export import (
    metrics_to_json,
    metrics_to_prometheus,
    spans_to_chrome_trace,
    spans_to_ndjson,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricsRegistry,
)
from repro.obs.observability import Observability, owner_process_name
from repro.obs.provenance import ConservationReport, ProvenanceLedger
from repro.obs.rollup import ExactSum, RollupAggregate, merge_rollups
from repro.obs.spans import SpanRecord, SpanRecorder

__all__ = [
    "AlertEngine",
    "AlertFiring",
    "ConservationReport",
    "Counter",
    "DEFAULT_BUCKETS",
    "ExactSum",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "Observability",
    "ProvenanceLedger",
    "RollupAggregate",
    "SpanRecord",
    "SpanRecorder",
    "merge_rollups",
    "metrics_to_json",
    "metrics_to_prometheus",
    "owner_process_name",
    "spans_to_chrome_trace",
    "spans_to_ndjson",
]
