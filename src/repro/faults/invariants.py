"""Recovery invariants, checked live against the trace stream.

The paper's robustness story is a set of *properties*, not features: a
server override can never force a station dark, a reset clock is always
either restored or retried, a browned-out station comes back by itself.
:class:`InvariantChecker` subscribes to the simulation trace and checks
those properties record-by-record while any fault plan runs:

- **override floor** — every ``override_applied`` must satisfy the
  Section III clamps: effective ≤ local, and a station whose local state
  allows comms (≥ 1) is never overridden to 0;
- **state monotonicity** — ``state_applied`` never exceeds the local
  (battery-allowed) state, and state 0 is only applied when the local
  decision was 0 or a clock recovery just parked the station deliberately;
- **clock custody** — every ``rtc_untrusted`` is followed, before the
  station does any science, by ``clock_recovered`` or
  ``clock_recovery_failed`` (a failed attempt is retried on the next wake
  because the clock stays distrusted);
- **power custody** — a browned-out station emits nothing until the bus
  raises its ``recovery`` edge.

Alongside the hard invariants, the checker tracks each injected fault to
its observed outcome (the station reconnecting after an outage window, a
drain shock absorbed or ridden out through brown-out, a reset clock
restored) and counts ``fault_recoveries_total{kind,result}``.  Faults
still open when the run ends are reported as *pending*, never as
violations — a 2-day sim that ends mid-outage proved nothing either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.sim.kernel import Simulation
from repro.sim.trace import TraceRecord

from repro.faults.injectors import TRACE_SOURCE


@dataclass
class Violation:
    """One hard invariant breach."""

    time: float
    station: str
    invariant: str
    message: str

    def __str__(self) -> str:
        return f"[t={self.time:.0f}s] {self.station}: {self.invariant}: {self.message}"


@dataclass
class FaultOutcome:
    """One injected fault occurrence tracked to its observed outcome."""

    kind: str
    station: str
    injected_at: float
    until: Optional[float] = None
    result: Optional[str] = None  # None while pending
    resolved_at: Optional[float] = None


@dataclass
class InvariantReport:
    """What the checker saw: violations, per-fault outcomes, leftovers."""

    violations: List[Violation] = field(default_factory=list)
    outcomes: List[FaultOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def pending(self) -> List[FaultOutcome]:
        return [o for o in self.outcomes if o.result is None]

    @property
    def resolved(self) -> List[FaultOutcome]:
        return [o for o in self.outcomes if o.result is not None]

    def format(self) -> str:
        lines = [
            f"invariants: {'OK' if self.ok else 'VIOLATED'}"
            f" ({len(self.violations)} violation(s),"
            f" {len(self.resolved)} fault(s) resolved,"
            f" {len(self.pending)} pending)"
        ]
        for violation in self.violations:
            lines.append(f"  VIOLATION {violation}")
        for outcome in self.outcomes:
            status = outcome.result or "pending"
            lines.append(
                f"  fault {outcome.kind} @ {outcome.station}"
                f" t={outcome.injected_at:.0f}s -> {status}"
            )
        return "\n".join(lines)


class _StationState:
    """Per-station bookkeeping for the clock/state/power invariants."""

    __slots__ = ("last_local", "clock_pending", "untrusted_this_run",
                 "powered_down")

    def __init__(self) -> None:
        self.last_local: Optional[int] = None
        # None | "awaiting_outcome" | "awaiting_retry"
        self.clock_pending: Optional[str] = None
        self.untrusted_this_run = False
        self.powered_down = False


class InvariantChecker:
    """Subscribe to a simulation's trace and check recovery invariants.

    Construct it before ``run`` (it must see every record), then call
    :meth:`finish` afterwards for the :class:`InvariantReport`.  The
    checker only *observes* — it draws no randomness and emits no trace
    records, so enabling it cannot perturb the run it is checking.  Its
    only write path is the ``fault_recoveries_total{kind,result}`` counter
    it keeps as outcomes resolve.
    """

    def __init__(self, sim: Simulation) -> None:
        self.sim = sim
        self._stations: Dict[str, _StationState] = {}
        self._outcomes: List[FaultOutcome] = []
        self._violations: List[Violation] = []
        self._finished = False
        sim.trace.subscribe(self._on_record)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def finish(self) -> InvariantReport:
        """Stop observing and return the report (idempotent)."""
        if not self._finished:
            self._finished = True
            self.sim.trace.unsubscribe(self._on_record)
        return InvariantReport(violations=list(self._violations),
                               outcomes=list(self._outcomes))

    # ------------------------------------------------------------------
    # Record dispatch
    # ------------------------------------------------------------------
    def _station(self, name: str) -> _StationState:
        state = self._stations.get(name)
        if state is None:
            state = self._stations[name] = _StationState()
        return state

    def _violate(self, time: float, station: str, invariant: str,
                 message: str) -> None:
        self._violations.append(Violation(time, station, invariant, message))

    def _on_record(self, record: TraceRecord) -> None:
        source = record.source
        kind = record.kind
        if source == TRACE_SOURCE:
            if kind == "fault_injected":
                self._outcomes.append(FaultOutcome(
                    kind=record.detail.get("fault", "?"),
                    station=record.detail.get("station", "?"),
                    injected_at=record.time,
                    until=record.detail.get("until"),
                ))
            return

        if kind in ("override_served", "sync_session"):
            # A server (shard) answering a station after its outage window
            # proves that shard is back; ``source`` is its name ("server"
            # in a fleet of one, "server0"... in a larger fleet), which the
            # per-shard announcements use as their station label.
            self._resolve("server-outage", source, record.time, "reconnected")
            return

        station_name = source.split(".")[0]
        if "." not in source:
            self._on_station_record(station_name, record)
        elif source.endswith(".power"):
            self._on_power_record(station_name, record)
        elif source.endswith(".gprs") and kind == "connected":
            self._resolve("gprs-outage", station_name, record.time, "reconnected")

    # ------------------------------------------------------------------
    # Station-level invariants
    # ------------------------------------------------------------------
    def _on_station_record(self, station_name: str, record: TraceRecord) -> None:
        state = self._station(station_name)
        kind = record.kind
        time = record.time

        if kind == "run_start":
            if state.clock_pending == "awaiting_outcome":
                # Previous recovery attempt was cut (brown-out / watchdog
                # kill before an outcome record): the reboot retries
                # detection, which is exactly the "scheduled retry" the
                # invariant demands.
                state.clock_pending = "awaiting_retry"
            state.untrusted_this_run = False
            if state.powered_down:
                self._violate(time, station_name, "power-custody",
                              "daily run started while browned out")
        elif kind == "rtc_untrusted":
            state.clock_pending = "awaiting_outcome"
            state.untrusted_this_run = True
        elif kind == "clock_recovered":
            state.clock_pending = None
            self._resolve("rtc-reset", station_name, time, "clock_recovered")
        elif kind == "clock_recovery_failed":
            state.clock_pending = "awaiting_retry"
            self._resolve("rtc-reset", station_name, time, "recovery_failed_retry")
        elif kind == "local_state":
            if state.untrusted_this_run:
                self._violate(time, station_name, "clock-custody",
                              "station proceeded to science with a distrusted"
                              " RTC and no recovery outcome")
            if state.clock_pending == "awaiting_retry":
                # The clock passes the trust check again without an explicit
                # recovery — possible only when the last-run evidence was
                # itself destroyed (e.g. a storage fault).  Tolerated, but
                # recorded distinctly.
                state.clock_pending = None
                self._resolve("rtc-reset", station_name, time, "implicit")
            else:
                # A trusted local-state decision after an rtc fault that
                # never tripped detection: the skew was small enough to
                # tolerate (a hard reset always trips detection first).
                self._resolve("rtc-reset", station_name, time, "tolerated")
            state.last_local = record.detail.get("state")
            if state.powered_down:
                self._violate(time, station_name, "power-custody",
                              "local state decided while browned out")
            # A decided local state is battery-allowed by construction;
            # drain shocks that never browned the station out are absorbed.
            self._resolve("battery-drain", station_name, time, "absorbed")
            self._resolve("probe-loss-spike", station_name, time, "rode_through")
            self._resolve("storage-corruption", station_name, time, "rode_through")
        elif kind == "override_applied":
            local = record.detail.get("local")
            effective = record.detail.get("effective")
            if local is not None and effective is not None:
                if effective > local:
                    self._violate(time, station_name, "override-floor",
                                  f"override raised state above local"
                                  f" ({effective} > {local})")
                if local >= 1 and effective < 1:
                    self._violate(time, station_name, "override-floor",
                                  f"override forced state 0 from local {local}")
        elif kind == "state_applied":
            applied = record.detail.get("state")
            if state.powered_down:
                self._violate(time, station_name, "power-custody",
                              "state applied while browned out")
            if applied is not None and state.last_local is not None:
                if applied > state.last_local:
                    self._violate(time, station_name, "state-monotonic",
                                  f"applied state {applied} exceeds local"
                                  f" {state.last_local}")
                if applied == 0 and state.last_local > 0:
                    # Legitimate only as the deliberate post-clock-recovery
                    # parking (Section IV): the run that just recovered the
                    # clock applies S0 and waits for the next wake.
                    if not state.untrusted_this_run:
                        self._violate(time, station_name, "state-monotonic",
                                      f"state 0 applied with local state"
                                      f" {state.last_local} and no recovery"
                                      f" in progress")

    def _on_power_record(self, station_name: str, record: TraceRecord) -> None:
        state = self._station(station_name)
        if record.kind == "brownout":
            state.powered_down = True
        elif record.kind == "recovery":
            if state.powered_down:
                self._resolve("battery-drain", station_name, record.time,
                              "recovered_after_brownout")
            state.powered_down = False

    # ------------------------------------------------------------------
    # Fault outcome resolution
    # ------------------------------------------------------------------
    def _resolve(self, kind: str, station: str, time: float, result: str) -> None:
        """Resolve the oldest matching open fault, if its window is over."""
        for outcome in self._outcomes:
            if outcome.result is not None:
                continue
            if outcome.kind != kind:
                continue
            if station != "*" and outcome.station not in ("*", station):
                continue
            if outcome.until is not None and time < outcome.until:
                continue  # still inside the fault window; not a recovery yet
            outcome.result = result
            outcome.resolved_at = time
            self.sim.obs.metrics.inc("fault_recoveries_total",
                                     kind=kind, result=result)
            return
