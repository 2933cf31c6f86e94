"""The per-simulation observability hub: metrics, spans and alerts.

One :class:`Observability` instance hangs off every
:class:`~repro.sim.kernel.Simulation` (as ``sim.obs``), the way ``Trace``
does.  Subsystems reach it through the kernel — ``sim.obs.metrics.inc(...)``,
``with sim.obs.span(...)`` — so nothing above the kernel imports this
package directly and the layering rule (architecture.md §7) holds.

Capability tiers, cheapest first:

1. **metrics + explicit spans** — always on.  Counters/gauges fed by the
   instrumented subsystems, plus a trace bridge counting every
   :class:`~repro.sim.trace.TraceRecord` by source and kind.
2. **alerts** (``arm_alerts`` / ``--alerts``) — declarative SLO rules
   evaluated against the trace stream and settled by :meth:`finalise`.
3. **kernel spans** (``enable_kernel_spans`` / ``--spans-out``) — one
   instant span per processed event with the owning process name and the
   queue depth; the raw material for Chrome traces.

Everything here runs on simulated time; host-time profiling lives in the
``bench`` harness (``python -m bench trace``) and never enters a digest.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

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

    def __init__(
        self,
        clock: "Optional[SimClock]" = None,
        kernel_spans: bool = False,
        trace_bridge: bool = True,
        provenance: bool = True,
    ) -> None:
        self.clock = clock
        self.metrics = MetricsRegistry()
        self.spans = SpanRecorder(clock)
        #: Data-provenance ledger (artifact lifecycle accounting); shares
        #: the metrics registry so its counters ride every export.
        self.provenance: Optional[ProvenanceLedger] = (
            ProvenanceLedger(self.metrics) if provenance else None
        )
        #: Alert engine armed by :meth:`arm_alerts` (None = no rules).
        self.alerts: Optional[AlertEngine] = None
        self.kernel_spans = kernel_spans
        #: Fast-path flag consulted when the kernel (re)selects its per-step
        #: dispatch; True only when per-event work (kernel spans) is
        #: actually wanted.
        self.kernel_active = kernel_spans
        self._trace_bridge = trace_bridge
        #: ``(source, kind) -> Counter`` — cached trace-bridge handles.
        self._trace_counters: dict = {}
        #: Callbacks to re-select cached kernel dispatch when flags change
        #: (the kernel registers :meth:`Simulation._refresh_dispatch` here,
        #: so the run loop never re-reads ``kernel_active`` per event).
        self._dispatch_listeners: list = []

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def _add_dispatch_listener(self, callback: Callable[[], None]) -> None:
        self._dispatch_listeners.append(callback)

    def _remove_dispatch_listener(self, callback: Callable[[], None]) -> None:
        if callback in self._dispatch_listeners:
            self._dispatch_listeners.remove(callback)

    def _notify_dispatch(self) -> None:
        for callback in list(self._dispatch_listeners):
            callback()

    def enable_kernel_spans(self) -> None:
        """Record an instant span for every kernel event from now on."""
        self.kernel_spans = True
        self.kernel_active = True
        self._notify_dispatch()

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
    # Trace bridge
    # ------------------------------------------------------------------
    def attach_trace(self, trace) -> None:
        """Subscribe the metrics layer to a :class:`Trace`.

        Every trace record increments ``trace_records_total{source,kind}``
        — the cheap, zero-config coverage layer underneath the explicit
        subsystem metrics.
        """
        if self._trace_bridge:
            trace.subscribe(self._on_trace_record)
        if self.provenance is not None:
            self.provenance.attach(trace)

    def _on_trace_record(self, record) -> None:
        # Runs for *every* trace record — cache the counter handle per
        # (source, kind) instead of re-resolving labels each time.
        key = (record.source, record.kind)
        counter = self._trace_counters.get(key)
        if counter is None:
            counter = self.metrics.counter(
                "trace_records_total", source=record.source, kind=record.kind)
            self._trace_counters[key] = counter
        counter.inc()

    # ------------------------------------------------------------------
    # Kernel hook
    # ------------------------------------------------------------------
    def kernel_step(self, event, when: float, queue_depth: int,
                    run_callbacks: Callable[[], None]) -> None:
        """Instrument one kernel step (called only while ``kernel_active``).

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
        run_callbacks()

    # ------------------------------------------------------------------
    # Export-time collection
    # ------------------------------------------------------------------
    def collect_kernel(self, sim) -> None:
        """Snapshot kernel health gauges from ``sim`` into the registry.

        Called just before an export so the dump always carries the kernel
        family even when per-event instrumentation is off.
        """
        self.metrics.set_gauge("kernel_events_processed", float(sim.events_processed))
        self.metrics.set_gauge("kernel_events_scheduled", float(sim.events_scheduled))
        self.metrics.set_gauge("kernel_queue_depth", float(sim.queue_depth))
        self.metrics.set_gauge("kernel_sim_time_seconds", sim.now)
        self.metrics.set_gauge("dispatch_batches_total", float(sim.dispatch_batches))

    def finalise(self, sim) -> "Optional[ConservationReport]":
        """Mission-close collection: kernel gauges, provenance, alerts.

        Idempotent (the ledger caches its report and the alert engine
        settles once), so CLI exports and the mission report can both
        finalise without double-counting.  Returns the conservation
        report, or None when provenance is disabled.
        """
        self.collect_kernel(sim)
        report = None
        if self.provenance is not None:
            report = self.provenance.finish(sim.now)
        if self.alerts is not None:
            self.alerts.finish(sim.now)
        return report
