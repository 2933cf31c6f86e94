"""Station-side upload-target selection against a server fleet.

"The Beauty of the Commons" has clients hop between base stations to keep
any one of them from melting down; here each station owns a
:class:`FleetClient` — a thin proxy that satisfies the single-server
surface the station and :class:`~repro.core.sync.StateSynchronizer`
already speak, while routing every call to the shard the active policy
picked at session start.

Policies are deliberately deterministic (no RNG): the choice depends only
on the session count and the load hints the previous responses piggybacked,
so same-seed missions replay byte-identically.

- ``static``: never leave the home shard (the paper's behaviour, sharded).
- ``round-robin``: rotate shards once per session, ignoring load.
- ``hop``: pick the shard minimising ``load_hint x cost``, with a
  hysteresis margin so a marginal improvement doesn't cause flapping.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.server.fleet import ServerFleet
from repro.sim.kernel import Simulation

#: Recognised upload-target policies, in CLI/docs order.
POLICIES = ("static", "round-robin", "hop")

#: ``hop`` only moves when the best shard's score undercuts the current
#: shard's by this fraction — the commons paper's anti-flap margin.
HOP_HYSTERESIS = 0.1


class FleetClient:
    """One station's policy-driven view of a :class:`ServerFleet`.

    Exposes the :class:`~repro.server.server.SouthamptonServer` surface the
    station code calls during a session; every call lands on the shard
    chosen by :meth:`begin_session`.  Load hints arrive piggybacked on
    ``sync_session`` / ``get_override_state`` responses and steer the next
    session's choice — stations never get a side channel to live state.
    """

    def __init__(
        self,
        sim: Simulation,
        station_name: str,
        fleet: ServerFleet,
        policy: str = "static",
        home: int = 0,
        costs: Optional[List[float]] = None,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(f"unknown server policy {policy!r}, want one of {POLICIES}")
        if costs is not None and len(costs) != len(fleet.shards):
            raise ValueError(
                f"server_costs needs {len(fleet.shards)} entries, got {len(costs)}"
            )
        self.sim = sim
        self.station_name = station_name
        self.fleet = fleet
        self.policy = policy
        self.home = home % len(fleet.shards)
        self.costs = list(costs) if costs is not None else [1.0] * len(fleet.shards)
        self.current = self.home
        self.sessions = 0
        self.hops = 0
        #: Last piggybacked per-shard load hints, by shard name.
        self.load_hints: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Policy
    # ------------------------------------------------------------------
    def begin_session(self) -> None:
        """Re-run the policy at the top of a comms session.

        Stations call this once per contact (before any server call), so a
        whole session sticks to one shard — hopping mid-upload would split
        a day's files across archives for no modelling gain.
        """
        target = self._choose()
        # Shard indexes are ints; the tie-break is deterministic.
        if target != self.current:  # repro-lint: disable=float-equality
            self.hops += 1
            self.sim.obs.metrics.inc(
                "fleet_hops_total",
                station=self.station_name,
                **{"from": self.fleet.shards[self.current].name,
                   "to": self.fleet.shards[target].name},
            )
            self.sim.trace.emit(
                self.station_name, "fleet_hop",
                src=self.fleet.shards[self.current].name,
                dst=self.fleet.shards[target].name,
                policy=self.policy,
            )
            self.current = target
        self.sessions += 1

    def _choose(self) -> int:
        if self.policy == "static":
            return self.home
        if self.policy == "round-robin":
            return (self.home + self.sessions) % len(self.fleet.shards)
        return self._choose_hop()

    def _choose_hop(self) -> int:
        if not self.load_hints:
            return self.current
        scores = [
            self.load_hints.get(shard.name, 0) * self.costs[index]
            for index, shard in enumerate(self.fleet.shards)
        ]
        best = min(range(len(scores)), key=lambda index: (scores[index], index))
        # Hysteresis: only move for a clear win over the current shard.
        if scores[best] >= scores[self.current] * (1.0 - HOP_HYSTERESIS):
            return self.current
        return best

    @property
    def shard(self):
        """The shard this session is pinned to."""
        return self.fleet.shards[self.current]

    # ------------------------------------------------------------------
    # SouthamptonServer surface (station-facing), routed to the shard
    # ------------------------------------------------------------------
    def upload_power_state(self, station: str, state: int) -> None:
        self.shard.upload_power_state(station, state)

    def get_override_state(self, station: str) -> Optional[int]:
        override = self.shard.get_override_state(station)
        self.load_hints = self.fleet.load_hints()
        return override

    def sync_session(self, station: str, state: int) -> Dict:
        response = self.shard.sync_session(station, state)
        self.load_hints = response["loads"]
        return response

    def upload_data(self, station: str, nbytes: int, kind: str, payload=None,
                    name: Optional[str] = None) -> None:
        self.shard.upload_data(station, nbytes, kind, payload=payload, name=name)

    def get_special(self, station: str):
        return self.shard.get_special(station)

    def get_release(self, name: str):
        return self.shard.get_release(name)

    def report_checksum(self, station: str, release_name: str, md5: str) -> None:
        self.shard.report_checksum(station, release_name, md5)

    @property
    def releases(self):
        """The fleet-shared release registry (read by the auto-updater)."""
        return self.fleet.releases

