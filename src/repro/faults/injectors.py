"""Fault injectors: small wrappers that make existing components fail.

Every injector follows the same discipline:

- it **wraps or hooks** the live component (swaps a callable attribute,
  schedules a method call) rather than subclassing or forking it, so the
  component under fault is byte-for-byte the production code;
- window faults are **pure functions of time** — the wrapper consults its
  window list on every call, so installing it never mutates component
  state and the component behaves normally outside every window;
- each occurrence announces itself on the trace (``fault_injected`` /
  ``fault_cleared`` from source ``"faults"``) and bumps
  ``faults_injected_total{station,kind}``, which makes fault activity
  part of the deterministic trace digest the replay harness compares.

Injectors are armed by :class:`repro.faults.harness.FaultEngine`; nothing
here imports ``repro.core`` — injectors receive the concrete components
they wrap.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Sequence, Tuple

from repro.comms.link import LinkDown, Modem
from repro.comms.probe_radio import LossFn, ProbeRadioLink
from repro.energy.bus import PowerBus
from repro.hardware.rtc import RealTimeClock
from repro.hardware.storage import CompactFlashCard
from repro.server.server import SouthamptonServer
from repro.sim.kernel import Simulation

TRACE_SOURCE = "faults"

#: ``SouthamptonServer`` entry points that stop answering during an outage.
#: Everything a station calls mid-session is covered, so an outage window
#: looks exactly like the uplink dying at the far end.
SERVER_OUTAGE_METHODS = (
    "upload_power_state",
    "get_override_state",
    "sync_session",
    "upload_data",
    "get_special",
    "get_release",
    "report_checksum",
)

Window = Tuple[float, float]


def _announce(sim: Simulation, station: str, kind: str, window: Window) -> None:
    """Emit the injection edge records/metrics for one occurrence."""
    start, end = window

    def _inject() -> None:
        sim.trace.emit(TRACE_SOURCE, "fault_injected", station=station,
                       fault=kind, until=end if end > start else None)
        sim.obs.metrics.inc("faults_injected_total", station=station, kind=kind)

    sim.call_at(start, _inject)
    if end > start:
        sim.call_at(end, lambda: sim.trace.emit(
            TRACE_SOURCE, "fault_cleared", station=station, fault=kind))


class GprsOutageInjector:
    """Blackhole a station's GPRS uplink during the given windows.

    Wraps ``modem.available`` (connects fail with :class:`LinkDown`) and
    ``modem.drop_hazard_per_s`` (hazard 1.0 guarantees any transfer already
    in flight drops at its next chunk boundary) — the same failure surface
    the weather-driven outages use, so every station-side handler is
    exercised unmodified.
    """

    kind = "gprs-outage"

    def __init__(self, sim: Simulation, station: str, modem: Modem,
                 windows: Sequence[Window]) -> None:
        self.sim = sim
        self.station = station
        self.modem = modem
        self.windows = sorted(windows)
        self._orig_available = modem.available
        self._orig_hazard = modem.drop_hazard_per_s
        modem.available = self._available  # type: ignore[method-assign]
        modem.drop_hazard_per_s = self._hazard  # type: ignore[method-assign]
        for window in self.windows:
            _announce(sim, station, self.kind, window)

    def _in_window(self, time: float) -> bool:
        return any(start <= time < end for start, end in self.windows)

    def _available(self, time: float) -> bool:
        if self._in_window(time):
            return False
        return self._orig_available(time)

    def _hazard(self, time: float) -> float:
        if self._in_window(time):
            return 1.0
        return self._orig_hazard(time)


class ProbeLossInjector:
    """Raise probe-radio packet loss during the given windows.

    Wraps each link's ``loss_fn`` column with an additive spike (clamped
    at 1.0) applied per instant, modelling the paper's wet-ice degradation
    at scripted severity.  A window that opens mid-burst raises the loss of
    exactly the packets that arrive inside it.  The link's own RNG stream
    still decides each packet's fate, so the spike changes probabilities,
    never draw order.
    """

    kind = "probe-loss-spike"

    def __init__(self, sim: Simulation, station: str,
                 links: Iterable[ProbeRadioLink],
                 windows: Sequence[Tuple[float, float, float]]) -> None:
        self.sim = sim
        self.station = station
        self.windows = sorted(windows)  # (start, end, extra_loss)
        for link in links:
            link.loss_fn = self._wrap(link.loss_fn)
        for start, end, _extra in self.windows:
            _announce(sim, station, self.kind, (start, end))

    def _extra(self, time: float) -> float:
        extra = 0.0
        for start, end, spike in self.windows:
            if start <= time < end:
                extra = max(extra, spike)
        return extra

    def _wrap(self, original: LossFn) -> LossFn:
        def lossy(times: Sequence[float]) -> List[float]:
            return [min(1.0, loss + self._extra(time))
                    for loss, time in zip(original(times), times)]

        return lossy


class ServerOutageInjector:
    """Make the Southampton server unreachable during the given windows.

    Wraps every station-facing entry point to raise :class:`LinkDown`
    inside a window — indistinguishable, from the station's side, from
    the session dropping mid-call, which is exactly the failure the Fig 4
    handlers (``comms_dropped``, ``override_fetch_failed``) are for.

    ``shards`` are the server shards that go dark together.  A per-shard
    outage passes one shard and its name (``"server0"``) as ``station`` on
    the announcement records, so the invariant checker can track each
    shard's outage separately; a fleet-wide outage passes every shard with
    the classic ``"*"`` label — one announcement, all shards dark.
    """

    kind = "server-outage"

    def __init__(self, sim: Simulation, shards: Sequence[SouthamptonServer],
                 windows: Sequence[Window], station: str = "*") -> None:
        self.sim = sim
        self.servers = list(shards)
        self.windows = sorted(windows)
        for target in self.servers:
            for method_name in SERVER_OUTAGE_METHODS:
                setattr(target, method_name, self._wrap(getattr(target, method_name)))
        for window in self.windows:
            _announce(sim, station, self.kind, window)

    def _in_window(self, time: float) -> bool:
        return any(start <= time < end for start, end in self.windows)

    def _wrap(self, original: Callable) -> Callable:
        def unreachable(*args, **kwargs):
            if self._in_window(self.sim.now):
                raise LinkDown("server unreachable (injected outage)")
            return original(*args, **kwargs)

        return unreachable


# ----------------------------------------------------------------------
# Event faults: one-shot mutations scheduled on the kernel.
# ----------------------------------------------------------------------
def inject_rtc_fault(sim: Simulation, station: str, rtc: RealTimeClock,
                     at_s: float, skew_s=None) -> None:
    """Schedule an RTC reset (1970) or skew at ``at_s``."""

    def fire() -> None:
        if skew_s is None:
            rtc.reset()
        else:
            rtc.set_from_true_time(offset_s=skew_s)
        sim.trace.emit(TRACE_SOURCE, "fault_injected", station=station,
                       fault="rtc-reset", skew_s=skew_s)
        sim.obs.metrics.inc("faults_injected_total", station=station,
                            kind="rtc-reset")

    sim.call_at(at_s, fire)


def inject_battery_drain(sim: Simulation, station: str, bus: PowerBus,
                         at_s: float, energy_j: float) -> None:
    """Schedule a lump external drain (rodent-chewed insulation, shorted
    rail, a thief with a kettle) through the sync-bracketed bus path."""

    def fire() -> None:
        bus.drain_j(energy_j)
        sim.trace.emit(TRACE_SOURCE, "fault_injected", station=station,
                       fault="battery-drain", energy_j=energy_j)
        sim.obs.metrics.inc("faults_injected_total", station=station,
                            kind="battery-drain")

    sim.call_at(at_s, fire)


def inject_storage_corruption(sim: Simulation, station: str,
                              card: CompactFlashCard, at_s: float,
                              files: Sequence[str] = (),
                              recover_after_s=None) -> None:
    """Schedule CF-card damage at ``at_s``.

    With ``files``: the named files are destroyed outright (missing-file
    errors downstream).  Without: the card's corruption flag is raised —
    reads and listings fail until :meth:`CompactFlashCard.recover`, which
    ``recover_after_s`` can schedule (the paper's field-trip repair).
    """

    def fire() -> None:
        destroyed = []
        if files:
            for name in files:
                if card.exists(name):
                    card.delete(name)
                    destroyed.append(name)
        else:
            card.corrupted = True
        sim.trace.emit(TRACE_SOURCE, "fault_injected", station=station,
                       fault="storage-corruption",
                       files=list(destroyed) if files else None)
        sim.obs.metrics.inc("faults_injected_total", station=station,
                            kind="storage-corruption")

    sim.call_at(at_s, fire)
    if recover_after_s is not None and not files:
        def repair() -> None:
            card.recover()
            sim.trace.emit(TRACE_SOURCE, "fault_cleared", station=station,
                           fault="storage-corruption")

        sim.call_at(at_s + recover_after_s, repair)
