"""The Norway-era relay architecture, runnable (Section II).

Before the dual-GPRS redesign, the Glacsweb deployment relayed everything
through the reference station: the base pushed its data over a 466 MHz
radio-modem PPP link to the café, whose always-powered system forwarded it
over the fixed uplink.  The paper rejects this design for Iceland on three
grounds, all of which this module makes measurable:

1. **energy** — the radio modem is slower *and* hungrier than GPRS, and
   base data crosses the air twice;
2. **coupled failure** — "if the reference station failed in any way then
   all communication with the base station would also cease";
3. **disconnect ambiguity** — a battery-powered PPP endpoint must burn a
   reconnect-hold after every unexplained drop (Section II's
   interference-vs-finished problem).

:class:`RadioRelayDeployment` wires two simplified stations around a PPP
relay so the E7 architecture benches can compare *simulated* energy and
delivery against the dual-GPRS :class:`~repro.core.deployment.Deployment`,
not just Table I arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.comms.link import LinkDown
from repro.comms.radio import DisconnectReason, PppLink, RadioModem
from repro.energy.battery import Battery, BatteryConfig
from repro.energy.bus import PowerBus
from repro.energy.components import GPRS_MODEM, DeviceSpec
from repro.energy.sources import ConstantSource, SolarPanel, WindTurbine
from repro.environment.weather import IcelandWeather, WeatherConfig
from repro.server.fleet import ServerFleet
from repro.server.server import SouthamptonServer
from repro.sim.kernel import Simulation
from repro.sim.simtime import DAY, HOUR, next_time_of_day

#: The Norway café's ADSL line, modelled as a device: fast and cheap to
#: drive (the modem is mains-powered; only the relaying computer's power
#: matters at the café, and the café has mains anyway).
ADSL_UPLINK = DeviceSpec("ADSL", power_w=5.0, transfer_rate_bps=256_000.0)


@dataclass
class RelayConfig:
    """Settings for the legacy relay deployment."""

    seed: int = 0
    #: Daily data produced at the base station, bytes.
    base_daily_bytes: int = 2_200_000
    #: Daily data produced at the reference station, bytes.
    reference_daily_bytes: int = 2_030_000
    #: Communication window start, hours UTC.
    comms_hour: float = 12.0
    #: Maximum session time per day (the same 2-hour safety bound).
    window_s: float = 2 * HOUR
    #: Reconnect attempts after a dropped PPP session within the window.
    max_reconnects: int = 3
    #: The reference's uplink device ("adsl" as in Norway, or "gprs").
    uplink: str = "adsl"
    #: Whether the café has mains power year-round (true in Norway).
    reference_has_mains: bool = True
    battery: BatteryConfig = field(default_factory=BatteryConfig)


class _RelayStation:
    """Shared scaffolding: a battery bus with solar/wind charging."""

    def __init__(self, sim: Simulation, name: str, weather: IcelandWeather,
                 config: RelayConfig, wind: bool) -> None:
        self.sim = sim
        self.name = name
        self.config = config
        self.bus = PowerBus(sim, Battery(config.battery, soc=0.9), name=f"{name}.power")
        self.bus.add_source(SolarPanel(weather, rated_w=10.0, name=f"{name}.solar"))
        if wind:
            self.bus.add_source(WindTurbine(weather, rated_w=50.0, name=f"{name}.wind"))
        self.alive = True

    def comms_energy_wh(self) -> float:
        """Energy spent on communication loads so far, Wh."""
        self.bus.sync()
        return sum(
            load.energy_j / 3600.0
            for load in self.bus.loads
            if "radio" in load.name or "uplink" in load.name
        )


class RelayBaseStation(_RelayStation):
    """The on-ice end of the PPP relay."""

    def __init__(self, sim, weather, config, reference: "RelayReferenceStation") -> None:
        super().__init__(sim, "legacy.base", weather, config, wind=True)
        self.reference = reference
        self.radio = RadioModem(sim, self.bus, name=f"{self.name}.radio",
                                environment="glacier", seed=config.seed)
        self.ppp = PppLink(sim, self.radio, name=f"{self.name}.ppp")
        self.bytes_delivered_to_reference = 0
        self.days_failed = 0
        self.reconnect_hold_s_total = 0.0
        sim.process(self._daily(), name=f"{self.name}.daily")

    def _daily(self):
        while True:
            yield self.sim.timeout(
                next_time_of_day(self.sim.now, self.config.comms_hour) - self.sim.now
            )
            if not self.alive:
                continue
            yield from self._session()

    def _session(self):
        """One daily window: push the day's data across the PPP link."""
        deadline = self.sim.now + self.config.window_s
        payload = self.config.base_daily_bytes
        attempts = 0
        delivered = False
        # The reference must power its radio endpoint for the session.
        receiving = self.reference.begin_receiving()
        try:
            while self.sim.now < deadline and attempts <= self.config.max_reconnects:
                attempts += 1
                reason = yield self.sim.process(self.ppp.run_session(payload, label="relay"))
                if reason is DisconnectReason.FINISHED:
                    delivered = True
                    break
                # The Section II ambiguity cost: stay powered for a
                # reconnect window after an unexplained drop.
                hold = self.ppp.recommended_hold_s(reason)
                self.reconnect_hold_s_total += hold
                self.bus.loads.switch_on(self.radio.name)
                yield self.sim.timeout(min(hold, max(0.0, deadline - self.sim.now)))
                self.bus.loads.switch_off(self.radio.name)
        finally:
            self.reference.end_receiving(receiving)
        if delivered and self.reference.alive:
            self.bytes_delivered_to_reference += payload
            self.reference.relay_inbox += payload
            self.sim.trace.emit(self.name, "relay_delivered", nbytes=payload)
        else:
            self.days_failed += 1
            self.sim.trace.emit(self.name, "relay_failed", attempts=attempts)


class RelayReferenceStation(_RelayStation):
    """The café end: PPP peer + uplink forwarder."""

    def __init__(self, sim, weather, config, server: SouthamptonServer) -> None:
        super().__init__(sim, "legacy.reference", weather, config, wind=False)
        self.server = server
        if config.reference_has_mains:
            self.bus.add_source(ConstantSource(40.0, name=f"{self.name}.mains"))
        # The PPP peer radio: powered whenever a session is in progress.
        self.radio_load = self.bus.add_load(f"{self.name}.radio", 3.960)
        uplink_spec = ADSL_UPLINK if config.uplink == "adsl" else GPRS_MODEM
        self.uplink_load = self.bus.add_load(f"{self.name}.uplink", uplink_spec.power_w)
        self.uplink_spec = uplink_spec
        self.relay_inbox = 0
        self.bytes_forwarded = 0
        self._receive_depth = 0
        sim.process(self._daily_forward(), name=f"{self.name}.forward")

    # -- PPP peer power accounting (driven by the base's sessions) --------
    def begin_receiving(self) -> bool:
        """The base opened a session: power the peer radio (if alive)."""
        if not self.alive:
            return False
        self._receive_depth += 1
        self.bus.loads.switch_on(self.radio_load.name)
        return True

    def end_receiving(self, token: bool) -> None:
        """Session over: release the peer radio."""
        if not token:
            return
        self._receive_depth = max(0, self._receive_depth - 1)
        if self._receive_depth == 0:
            self.bus.loads.switch_off(self.radio_load.name)

    # -- forwarding --------------------------------------------------------
    def _daily_forward(self):
        while True:
            yield self.sim.timeout(
                next_time_of_day(self.sim.now, self.config.comms_hour + 2.5) - self.sim.now
            )
            if not self.alive:
                continue
            total = self.relay_inbox + self.config.reference_daily_bytes
            self.relay_inbox = 0
            self.bus.loads.switch_on(self.uplink_load.name)
            yield self.sim.timeout(self.uplink_spec.transfer_seconds(total))
            self.bus.loads.switch_off(self.uplink_load.name)
            self.bytes_forwarded += total
            self.server.upload_data("legacy.reference", total, kind="relay")


class RadioRelayDeployment:
    """Two stations joined by the legacy PPP relay."""

    def __init__(self, config: Optional[RelayConfig] = None) -> None:
        self.config = config if config is not None else RelayConfig()
        self.sim = Simulation(seed=self.config.seed)
        self.weather = IcelandWeather(WeatherConfig(), seed=self.config.seed)
        self.server = ServerFleet(self.sim, 1).shard(0)
        self.reference = RelayReferenceStation(self.sim, self.weather, self.config,
                                               self.server)
        self.base = RelayBaseStation(self.sim, self.weather, self.config, self.reference)

    def run_days(self, days: float) -> None:
        """Advance the simulation."""
        self.sim.run_days(days)

    def fail_reference(self) -> None:
        """The coupled-failure scenario: the café system dies."""
        self.reference.alive = False
        self.sim.trace.emit("legacy.reference", "station_failed")

    def comms_energy_wh(self) -> float:
        """Whole-system communication energy so far, Wh."""
        return self.base.comms_energy_wh() + self.reference.comms_energy_wh()

    def delivered_bytes(self) -> int:
        """Base-station bytes that actually reached Southampton."""
        # Base data reaches the server only via the reference's forwards.
        forwarded = self.server.received_bytes(station="legacy.reference", kind="relay")
        own = self.config.reference_daily_bytes
        # Subtract the reference's own contribution per forwarding day.
        days = sum(
            1 for u in self.server.uploads if u.station == "legacy.reference"
        )
        return max(0, forwarded - days * own)
