"""The per-simulation observability hub: metrics, spans and alerts.

One :class:`Observability` instance hangs off every
:class:`~repro.sim.kernel.Simulation` (as ``sim.obs``), the way ``Trace``
does.  Subsystems reach it through the kernel — ``sim.obs.metrics.inc(...)``,
``with sim.obs.span(...)`` — so nothing above the kernel imports this
package directly and the layering rule (architecture.md §7) holds.

Capability tiers, cheapest first:

1. **metrics + explicit spans** — always on.  Counters/gauges fed by the
   instrumented subsystems; :meth:`Observability.collect` adds the kernel
   gauges and ``trace_records_total{source,kind}`` (every
   :class:`~repro.sim.trace.TraceRecord` counted by source and kind) at
   export time, so no metrics code runs per record.
2. **alerts** (``arm_alerts`` / ``--alerts``) — declarative SLO rules
   evaluated against the trace stream and settled by :meth:`finalise`.
3. **kernel spans** (``enable_kernel_spans`` / ``--spans-out``) — one
   instant span per processed event with the owning process name and the
   queue depth; the raw material for Chrome traces.  The kernel picks its
   per-event observer once per ``run()`` call, so enable spans before
   running.

Everything here runs on simulated time; host-time profiling lives in the
``bench`` harness (``python -m bench trace``) and never enters a digest.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Optional

from repro.obs.alerts import AlertEngine
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import ConservationReport, ProvenanceLedger
from repro.obs.spans import SpanRecorder, _OpenSpan

if TYPE_CHECKING:  # pragma: no cover - break the sim <-> obs import cycle
    from repro.sim.simtime import SimClock


def owner_process_name(event) -> str:
    """Name of the process an event will resume, or "" if unowned.

    A process waits on an event by appending its bound ``_resume`` method
    to the event's callbacks; the callback's ``__self__`` is the process.
    Must be called *before* the event's callbacks run (they are consumed).
    Reads the raw ``_callbacks`` storage so a callback-free event is not
    forced to materialise a list just to be inspected.
    """
    for callback in getattr(event, "_callbacks", None) or ():
        owner = getattr(callback, "__self__", None)
        if owner is not None and hasattr(owner, "_generator"):
            name = getattr(owner, "name", "")
            if name:
                return name
    return ""


class Observability:
    """Metrics registry + span recorder + provenance ledger + alerts."""

    def __init__(self, clock: "Optional[SimClock]" = None) -> None:
        self.clock = clock
        self.metrics = MetricsRegistry()
        self.spans = SpanRecorder(clock)
        #: Data-provenance ledger (artifact lifecycle accounting); shares
        #: the metrics registry so its counters ride every export.
        self.provenance: ProvenanceLedger = ProvenanceLedger(self.metrics)
        #: Alert engine armed by :meth:`arm_alerts` (None = no rules).
        self.alerts: Optional[AlertEngine] = None
        #: Read by the kernel when a ``run()`` call picks its observer.
        self.kernel_spans = False

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def enable_kernel_spans(self) -> None:
        """Record an instant span for every kernel event from the next run."""
        self.kernel_spans = True

    def arm_alerts(self, rules_doc, trace) -> AlertEngine:
        """Evaluate a parsed alert-rules document against ``trace``.

        Raises ValueError on malformed rules.  Firings count into this
        hub's metrics and echo back onto the trace; :meth:`finalise`
        settles the end-of-run conditions.
        """
        self.alerts = AlertEngine(rules_doc, metrics=self.metrics)
        self.alerts.attach(trace)
        return self.alerts

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(self, name: str, track: str = "sim", **attrs: object) -> _OpenSpan:
        """Open an explicit span (see :meth:`SpanRecorder.span`)."""
        return self.spans.span(name, track=track, **attrs)

    # ------------------------------------------------------------------
    # Trace subscription
    # ------------------------------------------------------------------
    def attach_trace(self, trace) -> None:
        """Subscribe the provenance ledger to a :class:`Trace`."""
        self.provenance.attach(trace)

    # ------------------------------------------------------------------
    # Kernel hook
    # ------------------------------------------------------------------
    def kernel_step(self, event, when: float, queue_depth: int) -> None:
        """Instrument one kernel step, just before its callbacks run.

        The span is recorded with the pre-callback state (owner, queue
        depth); callbacks run in zero simulated time, so kernel event
        spans are instants.
        """
        self.metrics.inc("kernel_events_total", type=type(event).__name__)
        self.spans.instant(
            event.name or type(event).__name__,
            track=owner_process_name(event) or "kernel",
            when=when,
            queue_depth=queue_depth,
        )

    # ------------------------------------------------------------------
    # Export-time collection
    # ------------------------------------------------------------------
    def collect(self, sim) -> None:
        """Snapshot kernel gauges and trace record counts from ``sim``.

        Called just before an export so the dump always carries the kernel
        family and ``trace_records_total{source,kind}`` without any
        per-event or per-record instrumentation.  Repeat calls raise each
        counter to the trace's current count.
        """
        self.metrics.set_gauge("kernel_events_processed", float(sim.events_processed))
        self.metrics.set_gauge("kernel_events_scheduled", float(sim.events_scheduled))
        self.metrics.set_gauge("kernel_queue_depth", float(sim.queue_depth))
        self.metrics.set_gauge("kernel_sim_time_seconds", sim.now)
        self.metrics.set_gauge("dispatch_batches_total", float(sim.dispatch_batches))
        self._on_trace_record(sim.trace.records)

    def _on_trace_record(self, records) -> None:
        """Raise ``trace_records_total{source,kind}`` to the counts in ``records``.

        Runs once per :meth:`collect`, never per record.  The name is the
        obs entry point that ``bench/tracer.py`` attributes host time to.
        """
        counts = Counter((record.source, record.kind) for record in records)
        for (source, kind), count in counts.items():
            counter = self.metrics.counter(
                "trace_records_total", source=source, kind=kind)
            counter.inc(count - counter.value)

    def finalise(self, sim) -> ConservationReport:
        """Mission-close collection: kernel gauges, record counts, provenance, alerts.

        Idempotent (the ledger caches its report and the alert engine
        settles once), so CLI exports and the mission report can both
        finalise without double-counting.  Collects again after the alerts
        settle, so the ``alert_fired`` records of end-of-run firings are
        counted too.  Returns the conservation report.
        """
        self.collect(sim)
        report = self.provenance.finish(sim.now)
        if self.alerts is not None:
            self.alerts.finish(sim.now)
            self.collect(sim)
        return report
