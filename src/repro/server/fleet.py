"""A fleet of Southampton server shards behind one station-facing surface.

"The Beauty of the Commons" shows stations hopping between base stations
to balance load; here the Southampton end grows the matching shape — N
:class:`~repro.server.server.SouthamptonServer` shards that share the
*control plane* (power-state store, special-command queues, code releases,
id sequencers) while keeping independent *data planes* (per-shard archive
indexes, upload logs, load accounting).  A station may carry any session
to any shard: the override it receives and the specials it drains are the
same everywhere, while the bytes it uploads land on — and load — only the
shard it chose.

Operators talk to the fleet object; stations talk to a shard picked by
their :class:`~repro.core.targets.FleetClient` policy.
"""

from __future__ import annotations

import heapq
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.server.deployment import CodeRelease
from repro.server.server import DataUpload, SouthamptonServer, SpecialCommand
from repro.server.state_store import PowerStateStore, Sequencer
from repro.sim.kernel import Simulation


def tenant_map(station_names: Sequence[str], tenant_size: int) -> Callable[[str], str]:
    """Group ``station_names`` into tenants of ``tenant_size`` by position.

    Unknown stations (late joiners, tests poking the store directly) fall
    back to a tenant of their own, which keeps the min rule harmless.
    """
    mapping = {
        name: f"tenant{index // tenant_size}"
        for index, name in enumerate(station_names)
    }

    def tenant_of(station: str) -> str:
        return mapping.get(station, station)

    return tenant_of


class ServerFleet:
    """N server shards sharing one control plane.

    Every deployment's server side is a fleet; the paper's single
    Southampton box is a fleet of one, whose shard keeps the name
    ``"server"`` — shards are called ``server{i}`` only when there are two
    or more.  ``tenant_of`` confines the shared power-state store's min rule
    to each station's tenant (see
    :class:`~repro.server.state_store.PowerStateStore`); without it the
    fleet applies the paper's single global minimum.
    """

    def __init__(
        self,
        sim: Simulation,
        count: int,
        *,
        tenant_of: Optional[Callable[[str], str]] = None,
    ) -> None:
        if count < 1:
            raise ValueError(f"fleet needs at least one shard, got {count}")
        self.sim = sim
        self.power_states = PowerStateStore(tenant_of)
        self.specials: Dict[str, List[SpecialCommand]] = {}
        self.releases: Dict[str, CodeRelease] = {}
        self.command_ids = Sequencer()
        self.ingest_seq = Sequencer()
        self.seen_names: set = set()
        names = ["server"] if count == 1 else [f"server{index}" for index in range(count)]
        self.shards: List[SouthamptonServer] = [
            SouthamptonServer(sim, self, name) for name in names
        ]

    def __len__(self) -> int:
        return len(self.shards)

    def shard(self, index: int) -> SouthamptonServer:
        """The shard at ``index`` (stations index shards, not names)."""
        return self.shards[index]

    # ------------------------------------------------------------------
    # Shared control plane (operator-facing)
    # ------------------------------------------------------------------
    def set_manual_override(self, state: Optional[int]) -> None:
        """Operator override, visible through every shard."""
        self.power_states.set_manual_override(state)

    def stage_special(self, station: str, script: Callable[[], str]) -> int:
        """Queue a one-shot command; the station drains it from any shard."""
        return self.shards[0].stage_special(station, script)

    def publish_release(self, release: CodeRelease) -> None:
        """Publish to the shared registry (downloadable from any shard)."""
        self.shards[0].publish_release(release)

    def get_release(self, name: str) -> Optional[CodeRelease]:
        """Fetch a release descriptor by name."""
        return self.shards[0].get_release(name)

    def last_checksum_report(self, release_name: str) -> Optional[Tuple[float, str, str, str]]:
        """Most recent checksum report for a release across all shards."""
        matching = [
            report
            for shard in self.shards
            for report in shard.reported_checksums
            if report[2] == release_name
        ]
        if not matching:
            return None
        matching.sort(key=lambda report: report[0])
        return matching[-1]

    # ------------------------------------------------------------------
    # Data-plane aggregation (analysis-facing)
    # ------------------------------------------------------------------
    def received_bytes(self, station: Optional[str] = None, kind: Optional[str] = None,
                       unique: bool = False) -> int:
        """Total payload received across the fleet, optionally filtered."""
        return sum(
            shard.received_bytes(station=station, kind=kind, unique=unique)
            for shard in self.shards
        )

    @property
    def uploads(self) -> List[DataUpload]:
        """Every shard's uploads, in time order (ties by shard order)."""
        return list(heapq.merge(*(shard.uploads for shard in self.shards),
                                key=attrgetter("time")))

    @property
    def retransfers(self) -> int:
        """Duplicate-file uploads absorbed across the fleet."""
        return sum(shard.retransfers for shard in self.shards)

    def load_hints(self) -> Dict[str, int]:
        """Per-shard trailing-window load, as advertised to stations."""
        return {shard.name: shard.recent_load() for shard in self.shards}
