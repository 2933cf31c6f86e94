"""The long-range radio modem and the PPP session over it.

The Norway-era architecture ran a point-to-point-protocol IP link over
500 mW 466 MHz radio modems.  Lab testing found it "very unreliable with
frequent drop outs and a very low data rate", with reliability varying by
time of day — implying local interference.  Because the battery-powered
reference station must decide whether a PPP disconnect means *finished*
(power the radio off now) or *interference* (stay powered for a reconnect
attempt), the session model separates the true disconnect cause from what
the observer can see (Section II).
"""

from __future__ import annotations

import enum
import math
from typing import Optional

from repro.comms.link import LinkDown, Modem
from repro.energy.bus import PowerBus
from repro.energy.components import RADIO_MODEM
from repro.environment.weather import _smooth_noise
from repro.sim.kernel import Simulation
from repro.sim.simtime import HOUR, fraction_of_day


class DisconnectReason(enum.Enum):
    """Why a PPP session ended."""

    FINISHED = "finished"  # transfer complete; the peer hung up cleanly
    INTERFERENCE = "interference"  # the link dropped mid-session
    NEVER_CONNECTED = "never_connected"


class RadioModem(Modem):
    """466 MHz long-range modem with diurnal interference.

    ``environment`` selects the interference profile: the lab sits amid
    urban noise sources (bad, worst in working hours); the glacier is
    radio-quiet (better — as the initial on-glacier testing suggested).
    """

    #: Peak drop hazard per second in the lab profile.
    LAB_HAZARD = 1.6e-3
    #: Peak drop hazard per second on the glacier.
    GLACIER_HAZARD = 2.0e-4

    def __init__(
        self,
        sim: Simulation,
        bus: PowerBus,
        name: str = "radio",
        environment: str = "glacier",
        seed: int = 0,
    ) -> None:
        if environment not in ("lab", "glacier"):
            raise ValueError(f"unknown environment {environment!r}")
        super().__init__(sim, bus, name, RADIO_MODEM, connect_s=15.0,
                         chunk_s=15.0)
        self.environment = environment
        self.seed = seed

    def interference_factor(self, time: float) -> float:
        """0-1 interference level; diurnal (peaks in the working day)."""
        diurnal = 0.5 * (1.0 + math.sin(2.0 * math.pi * (fraction_of_day(time) - 0.3)))
        texture = 0.5 + 0.5 * _smooth_noise(self.seed, f"{self.name}:interference", time)
        return diurnal * texture

    def drop_hazard_per_s(self, time: float) -> float:
        peak = self.LAB_HAZARD if self.environment == "lab" else self.GLACIER_HAZARD
        return peak * self.interference_factor(time)

    def available(self, time: float) -> bool:
        # Connecting fails when interference is near its peak.
        return self.interference_factor(time) < 0.9


class PppLink:
    """A PPP session over a radio modem, with observable-cause ambiguity.

    The reference-station side cannot directly see why the session ended;
    :meth:`run_session` records the true cause in :attr:`last_reason`, and
    :meth:`recommended_hold_s` implements the paper's policy: stay powered
    for a reconnect window after an interference drop, power off
    immediately after a clean finish.
    """

    #: How long to stay powered after an unexplained drop (reconnect window).
    RECONNECT_HOLD_S = 15.0 * 60.0

    def __init__(self, sim: Simulation, modem: RadioModem, name: str = "ppp") -> None:
        self.sim = sim
        self.modem = modem
        self.name = name
        self.last_reason: Optional[DisconnectReason] = None
        self.sessions = 0
        self.failed_sessions = 0

    def run_session(self, nbytes: int, label: str = "ppp"):
        """Process: connect, move ``nbytes``, disconnect.

        Returns the :class:`DisconnectReason`; never raises — the caller's
        job is to react to the reason, exactly like the deployed control
        script.
        """
        self.sessions += 1
        try:
            yield self.sim.process(self.modem.connect())
        except LinkDown:
            self.failed_sessions += 1
            self.last_reason = DisconnectReason.NEVER_CONNECTED
            self.modem.disconnect()
            return self.last_reason
        try:
            yield self.sim.process(self.modem.send(nbytes, label=label))
        except LinkDown:
            self.failed_sessions += 1
            self.last_reason = DisconnectReason.INTERFERENCE
            self.modem.disconnect()
            return self.last_reason
        self.last_reason = DisconnectReason.FINISHED
        self.modem.disconnect()
        return self.last_reason

    def recommended_hold_s(self, reason: DisconnectReason) -> float:
        """Power policy after a disconnect (Section II).

        A clean finish powers off immediately; anything else holds the radio
        powered for a reconnect window — the power cost of the ambiguity.
        """
        if reason is DisconnectReason.FINISHED:
            return 0.0
        return self.RECONNECT_HOLD_S
