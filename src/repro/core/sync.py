"""Server-mediated power-state synchronisation (Section III).

The stations never talk to each other; each uploads its local state and
later downloads an override — the server's min-rule answer.  Two safety
layers run *on the station*:

- the override may lower but never raise the state above what the local
  battery allows;
- the station can never be forced into state 0 from outside (state 0 does
  no communications, so a forced 0 would be unrecoverable remotely);
- if fetching the override fails for any reason, the station "will just
  rely on its local state".
"""

from __future__ import annotations

from typing import Optional

from repro.core.power_policy import PowerState
from repro.sim.events import Interrupt
from repro.sim.kernel import Simulation


def clamp_override(local_state: PowerState, override: Optional[int]) -> PowerState:
    """Apply the station-side safety rules to a server override.

    - ``override is None`` (fetch failed / nothing known): local state wins.
    - The override is floored at state 1: no remote force into state 0.
    - The result never exceeds the local (battery-allowed) state.
    """
    if override is None:
        return local_state
    floored = max(int(override), int(PowerState.S1))
    return PowerState(min(int(local_state), floored))


class StateSynchronizer:
    """The station's client side of the sync protocol.

    All methods assume the caller already holds a connected modem session;
    reaching the server costs a small request's airtime through it.
    """

    #: Size of a state upload / override request on the wire.
    REQUEST_BYTES = 256

    def __init__(self, sim: Simulation, station_name: str, server, modem) -> None:
        self.sim = sim
        self.station_name = station_name
        self.server = server
        self.modem = modem
        self.override_fetch_failures = 0

    def upload_state(self, state: PowerState):
        """Process: report the local state.  Raises LinkDown on failure."""
        yield self.sim.process(self.modem.send(self.REQUEST_BYTES, label="power_state"))
        self.server.upload_power_state(self.station_name, int(state))

    def fetch_override(self, local_state: PowerState):
        """Process: download the override and apply the safety clamps.

        Never raises: any failure means "rely on the local state".
        Returns ``(effective_state, override_or_None)``.
        """
        try:
            yield self.sim.process(self.modem.send(self.REQUEST_BYTES, label="override"))
            override = self.server.get_override_state(self.station_name)
        except Interrupt:
            raise
        except Exception as exc:  # noqa: BLE001 - "never raises" means *any* failure
            self._note_fetch_failure(exc)
            return local_state, None
        self.sim.obs.metrics.inc("sync_override_fetches_total",
                                 station=self.station_name, result="ok")
        return self._apply(local_state, override), override

    def batched_sync(self, local_state: PowerState):
        """Process: the fleet's single-request session — upload the local
        state, fetch the override, and drain one special command in one
        modem round-trip (``server.sync_session``).

        Never raises, like :meth:`fetch_override`: any failure means the
        station relies on its local state and skips the drained special.
        Returns ``(effective_state, override_or_None, special_or_None,
        loads_or_None)`` — ``loads`` is the fleet's piggybacked per-shard
        load hint, None only when the request failed.
        """
        try:
            yield self.sim.process(
                self.modem.send(self.REQUEST_BYTES, label="sync_session")
            )
            response = self.server.sync_session(self.station_name, int(local_state))
        except Interrupt:
            raise
        except Exception as exc:  # noqa: BLE001 - same contract as fetch_override
            self._note_fetch_failure(exc)
            return local_state, None, None, None
        self.sim.obs.metrics.inc("sync_override_fetches_total",
                                 station=self.station_name, result="ok")
        override = response["override"]
        effective = self._apply(local_state, override)
        return effective, override, response["special"], response["loads"]

    def _note_fetch_failure(self, exc: Exception) -> None:
        self.override_fetch_failures += 1
        self.sim.obs.metrics.inc("sync_override_fetches_total",
                                 station=self.station_name, result="failed")
        self.sim.trace.emit(self.station_name, "override_fetch_failed",
                            error=type(exc).__name__)

    def _apply(self, local_state: PowerState, override: Optional[int]) -> PowerState:
        effective = clamp_override(local_state, override)
        self.sim.trace.emit(
            self.station_name,
            "override_applied",
            local=int(local_state),
            override=override,
            effective=int(effective),
        )
        return effective
