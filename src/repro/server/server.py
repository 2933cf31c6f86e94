"""The in-process model of the project server in Southampton.

Every method is a plain synchronous call: the *time and failure* of
reaching the server belong to the station's modem session, not to the
server itself.  Station code must only call these while its GPRS session is
up — the clients in :mod:`repro.core.sync` and :mod:`repro.core.station`
enforce that.

Every server is one shard of a :class:`~repro.server.fleet.ServerFleet`
(the paper's single Southampton box is a fleet of one): shards share the
fleet's control plane (power states, special queues, releases, id
sequencers) but keep their own data-plane archives, so a station may
upload to any shard and still see one coherent service.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.server.deployment import CodeRelease
from repro.server.index import ArchiveIndex
from repro.server.state_store import Sequencer
from repro.sim.kernel import Simulation
from repro.sim.simtime import DAY

if TYPE_CHECKING:  # pragma: no cover - fleet.py imports this module
    from repro.server.fleet import ServerFleet


@dataclass
class SpecialCommand:
    """A one-shot command script staged for a station.

    ``script`` is a callable executed on the station; whatever string it
    returns is the command's output, which reaches Southampton via the
    normal log upload — i.e. a day later (the Section VI 24/48-hour lesson).
    """

    command_id: int
    script: Callable[[], str]
    staged_at: float


@dataclass
class DataUpload:
    """One received station upload."""

    station: str
    time: float
    nbytes: int
    kind: str
    payload: Any = None
    name: Optional[str] = None


#: How far back :meth:`SouthamptonServer.recent_load` looks when computing
#: the load hint piggybacked on responses for the station-side hop policy.
LOAD_WINDOW_S = DAY


class SouthamptonServer:
    """State sync + data ingest + special commands + code releases."""

    def __init__(self, sim: Simulation, fleet: ServerFleet, name: str) -> None:
        self.sim = sim
        #: The :class:`~repro.server.fleet.ServerFleet` this shard belongs to;
        #: its control plane is shared by reference.
        self.fleet = fleet
        self.name = name
        self.power_states = fleet.power_states
        self.uploads: List[DataUpload] = []
        self.index = ArchiveIndex()
        self._specials: Dict[str, List[SpecialCommand]] = fleet.specials
        self._command_ids: Sequencer = fleet.command_ids
        self._ingest_seq: Sequencer = fleet.ingest_seq
        self.releases: Dict[str, CodeRelease] = fleet.releases
        self.reported_checksums: List[Tuple[float, str, str, str]] = []
        # Shared across the fleet: a re-upload is a retransfer no matter
        # which shard first archived the file.
        self._seen_names: set = fleet.seen_names
        self.retransfers = 0
        self.state_uploads = 0
        self._load_events: List[Tuple[float, int]] = []
        self._load_start = 0
        self._load_total = 0
        # A fleet of one keeps the paper's single-server label sets (and
        # trace source "server") byte-for-byte; only the shards of a larger
        # fleet add the label and the load gauge.
        self._metric_labels: Dict[str, str] = {} if name == "server" else {"server": name}

    # ------------------------------------------------------------------
    # Power-state sync (Section III)
    # ------------------------------------------------------------------
    def upload_power_state(self, station: str, state: int) -> None:
        """A station reports its locally-computed power state."""
        self.power_states.upload(station, state, time=self.sim.now)
        self.state_uploads += 1
        self.sim.trace.emit(self.name, "power_state_upload", station=station, state=state)

    def get_override_state(self, station: str) -> Optional[int]:
        """The min-rule override for ``station`` (None if nothing known)."""
        override = self.power_states.override_for(station)
        self.sim.trace.emit(self.name, "override_served", station=station, override=override)
        return override

    def sync_session(self, station: str, state: int) -> Dict[str, Any]:
        """One batched request: upload state, fetch override, drain a special.

        The paper's stations spend three modem round-trips per contact on
        state sync alone; at fleet scale that is the dominant server load,
        so this endpoint folds them into a single request.  The response
        piggybacks the fleet's per-shard ``loads`` hints that feed the
        station-side hop policy.
        """
        self.upload_power_state(station, state)
        override = self.get_override_state(station)
        special = self.get_special(station)
        loads = self.fleet.load_hints()
        self.sim.trace.emit(
            self.name, "sync_session",
            station=station, state=state, override=override,
            special=special is not None,
        )
        self.sim.obs.metrics.inc(
            "server_sync_sessions_total", station=station, **self._metric_labels
        )
        return {"server": self.name, "override": override, "special": special,
                "loads": loads}

    # ------------------------------------------------------------------
    # Data ingest
    # ------------------------------------------------------------------
    def upload_data(self, station: str, nbytes: int, kind: str, payload: Any = None,
                    name: Optional[str] = None) -> None:
        """Receive one upload (GPS files, probe data, logs...).

        ``name`` (the station-side file name) marks a *tracked* artifact
        reaching the archive; nameless uploads (priority summaries,
        ad-hoc blobs) carry derived data and stay outside the provenance
        ledger.  A named file seen before (the station's delete failed, so
        it re-uploaded) is a *retransfer*: it is archived again but kept
        out of the unique-byte accounting and the provenance "archived"
        stream, which treats a second archive of one artifact as an anomaly.
        """
        retransfer = False
        if name is not None:
            seen_key = (station, name)
            retransfer = seen_key in self._seen_names
            self._seen_names.add(seen_key)
        self.uploads.append(
            DataUpload(station=station, time=self.sim.now, nbytes=nbytes, kind=kind,
                       payload=payload, name=name)
        )
        self.index.ingest(station=station, kind=kind, nbytes=nbytes, payload=payload,
                          seq=self._ingest_seq.next(), retransfer=retransfer)
        self._load_events.append((self.sim.now, nbytes))
        self._load_total += nbytes
        metrics = self.sim.obs.metrics
        metrics.inc("server_uploads_total", station=station, kind=kind,
                    **self._metric_labels)
        metrics.inc("server_upload_bytes_total", nbytes, station=station, kind=kind,
                    **self._metric_labels)
        if retransfer:
            self.retransfers += 1
            metrics.inc("server_retransfers_total", station=station, kind=kind,
                        **self._metric_labels)
            self.sim.trace.emit("prov", "retransferred", station=station,
                                file=name, file_kind=kind, bytes=nbytes)
        elif name is not None:
            self.sim.trace.emit("prov", "archived", station=station,
                                file=name, file_kind=kind, bytes=nbytes)
        if self._metric_labels:
            metrics.set_gauge("server_load", self.recent_load(), server=self.name)

    def received_bytes(self, station: Optional[str] = None, kind: Optional[str] = None,
                       unique: bool = False) -> int:
        """Total payload received, optionally filtered.

        ``unique=True`` excludes re-transferred files, i.e. counts each
        tracked artifact's bytes once no matter how many delete-failure
        retries it took to get them off the station.
        """
        return self.index.total_bytes(station=station, kind=kind, unique=unique)

    def recent_load(self) -> int:
        """Payload bytes received in the trailing :data:`LOAD_WINDOW_S`.

        This is the hint a shard advertises to hopping stations; a rolling
        sum so the cost stays O(evicted events), not O(history).
        """
        cutoff = self.sim.now - LOAD_WINDOW_S
        events = self._load_events
        while self._load_start < len(events) and events[self._load_start][0] < cutoff:
            self._load_total -= events[self._load_start][1]
            self._load_start += 1
        return self._load_total

    # ------------------------------------------------------------------
    # Special commands (Section VI)
    # ------------------------------------------------------------------
    def stage_special(self, station: str, script: Callable[[], str]) -> int:
        """Queue a one-shot command for the station's next contact."""
        command = SpecialCommand(
            command_id=self._command_ids.next(), script=script, staged_at=self.sim.now
        )
        self._specials.setdefault(station, []).append(command)
        return command.command_id

    def get_special(self, station: str) -> Optional[SpecialCommand]:
        """Hand the oldest staged command to the station (removing it)."""
        queue = self._specials.get(station, [])
        if not queue:
            return None
        return queue.pop(0)

    # ------------------------------------------------------------------
    # Code releases (Section VI)
    # ------------------------------------------------------------------
    def publish_release(self, release: CodeRelease) -> None:
        """Make a code release available for download."""
        self.releases[release.name] = release

    def get_release(self, name: str) -> Optional[CodeRelease]:
        """Fetch a release descriptor by name."""
        return self.releases.get(name)

    def report_checksum(self, station: str, release_name: str, md5: str) -> None:
        """The station's immediate HTTP-GET checksum report.

        This is the paper's workaround for the 24-hour log delay: "the
        script ... uploads the MD5sum that it has calculated using a HTTP
        GET ... this enables researchers to know immediately if the
        transfer was successful."
        """
        self.reported_checksums.append((self.sim.now, station, release_name, md5))
        self.sim.trace.emit(
            self.name, "checksum_reported", station=station, release=release_name, md5=md5
        )
