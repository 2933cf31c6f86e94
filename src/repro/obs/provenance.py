"""Data-provenance ledger: per-artifact lifecycle accounting.

The paper's operational story is *accountability under scarcity* — every
probe reading and dGPS observation file must eventually reach the
Southampton server despite watchdog-bounded comms windows and multi-day
backlog drains.  The ledger makes that accountable: every science
artifact gets a deterministic causal ID at creation, lifecycle edges are
derived purely from trace records, and mission close runs the
conservation check

    created == archived + in_flight + lost

with ``lost`` attributed to the injected fault that destroyed the data.

Artifact ID scheme (all components are simulated identifiers, never host
state, so IDs are byte-stable across replays and tie-break policies):

- ``reading:{probe_id}:{task_id}:{seq}`` — one probe sensor record, born
  when its task snapshot freezes a sequence number onto it;
- ``gps:{filename}`` — one dGPS observation file on a receiver card
  (e.g. ``gps:gps/base.gps/000001234.obs``);
- ``file:{station}:{name}`` — one staged outbox file on a station card
  (e.g. ``file:base:outbox/logs/000001``).

A staged file may *contain* readings or a gps artifact (its children);
archiving the file archives its children, losing it loses them — unless
a child already reached the server through another copy.

Stage model (ranks; edges never move an artifact backwards):

    created(0) -> stored(1) -> queued(2) -> transferred(3) -> archived(4)
                                                   `-> lost (terminal)

``transferred`` may repeat (a server-side ingest failure makes the comms
layer re-send the file) — that is idempotent, not an anomaly.  A second
``archived`` for the same artifact, or any edge after ``lost``, is an
anomaly: it means the simulation double-ingested or resurrected data,
and the conservation report flags it.

The ledger is a pure trace subscriber: it never emits records, never
touches the RNG, and never changes ``trace.byte_size`` sums (all
provenance records use the dedicated ``"prov"`` source, which no station
log-volume query matches), so attaching it cannot perturb the mission.
"""

from __future__ import annotations

from array import array
from collections import Counter
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry

#: Trace sources the ledger consumes.
PROV_SOURCE = "prov"
FAULT_SOURCE = "faults"
BULK_SOURCE = "protocol.bulk"
STOPWAIT_SOURCE = "protocol.stopwait"

#: Stage ranks; ``lost`` is terminal and handled out-of-band.
STAGES: Tuple[str, ...] = ("created", "stored", "queued", "transferred", "archived")
_RANK: Dict[str, int] = {stage: rank for rank, stage in enumerate(STAGES)}
#: Per target stage, the ranks an artifact advances from as a plain
#: forward edge: any earlier stage, plus ``transferred`` itself (a repeat
#: transfer is idempotent).  Anything else is an anomaly or a re-transfer.
_FORWARD: Dict[str, frozenset] = {
    stage: frozenset(range(rank)) | (
        {rank} if stage == "transferred" else frozenset())
    for rank, stage in enumerate(STAGES)
}
#: Stage rank of a row no ``created`` record has filled.
_ABSENT = 255
_ARCHIVED = _RANK["archived"]

#: Sim-time latency buckets: 1 min, 10 min, 1 h, 6 h, 1 d, 2 d, 7 d, 30 d.
LATENCY_BUCKETS: Tuple[float, ...] = (
    60.0, 600.0, 3600.0, 21600.0, 86400.0, 172800.0, 604800.0, 2592000.0,
)


class _Rows:
    """One group of ledger rows, held as columns (internal).

    A reading group holds the readings of one ``(probe, task)``: row
    ``seq`` is reading ``reading:{probe}:{task}:{seq}``.  The ``file`` and
    ``gps`` groups hold every artifact of their class, one row per
    artifact ID (:meth:`row`), and ``names`` gives each row's ID back for
    anomaly messages.  Each row has a stage rank (:data:`_ABSENT` until
    created), the sim time it reached that stage and the ``file:``
    artifact carrying it; lost causes are sparse.
    """

    __slots__ = ("key", "cls", "ids", "names", "stages", "times",
                 "containers", "lost")

    def __init__(self, key: Hashable, cls: str) -> None:
        self.key = key
        self.cls = cls
        named = cls != "reading"
        #: Artifact ID -> row, and row -> artifact ID, in a named group.
        self.ids: Optional[Dict[str, int]] = {} if named else None
        self.names: Optional[List[str]] = [] if named else None
        self.stages = bytearray()
        self.times = array("d")
        self.containers: List[Optional[str]] = []
        #: row -> the fault that destroyed the artifact.
        self.lost: Dict[int, str] = {}

    def grow(self, size: int) -> None:
        """Make room for rows below ``size``."""
        extra = size - len(self.stages)
        if extra > 0:
            self.stages.extend(bytes((_ABSENT,)) * extra)
            self.times.frombytes(bytes(8 * extra))
            self.containers.extend([None] * extra)

    def row(self, artifact_id: str) -> int:
        """The row of an artifact ID in a named group, made on first use.

        A new row stays :data:`_ABSENT` until a ``created`` record fills
        it, so an edge for an unknown artifact still finds its name.
        """
        row = self.ids.get(artifact_id)
        if row is None:
            row = self.ids[artifact_id] = len(self.names)
            self.names.append(artifact_id)
            self.stages.append(_ABSENT)
            self.times.append(0.0)
            self.containers.append(None)
        return row

    def name(self, row: int) -> str:
        """The artifact ID of ``row``."""
        if self.names is not None:
            return self.names[row]
        return "reading:{}:{}:{}".format(*self.key, row)


#: A file's child: a group and the rows of it that the file carries.
_Child = Tuple[_Rows, Sequence[int]]


class ConservationReport:
    """Mission-close accounting: created == archived + in_flight + lost."""

    def __init__(self, created: int, archived: int, in_flight: int, lost: int,
                 lost_by_cause: Dict[str, int],
                 by_class: Dict[str, Dict[str, int]],
                 anomalies: List[str]) -> None:
        self.created = created
        self.archived = archived
        self.in_flight = in_flight
        self.lost = lost
        self.lost_by_cause = lost_by_cause
        self.by_class = by_class
        self.anomalies = anomalies

    @property
    def conserved(self) -> bool:
        """Does the conservation identity hold?"""
        return self.created == self.archived + self.in_flight + self.lost

    @property
    def ok(self) -> bool:
        """Conservation holds and no anomalous edges were seen."""
        return self.conserved and not self.anomalies

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe summary (canonical key order left to the serialiser)."""
        return {
            "created": self.created,
            "archived": self.archived,
            "in_flight": self.in_flight,
            "lost": self.lost,
            "lost_by_cause": dict(sorted(self.lost_by_cause.items())),
            "by_class": {cls: dict(sorted(stages.items()))
                         for cls, stages in sorted(self.by_class.items())},
            "anomalies": list(self.anomalies),
            "conserved": self.conserved,
            "ok": self.ok,
        }

    def format(self) -> str:
        """Human-readable block for mission reports and the CLI."""
        verdict = "OK" if self.ok else "VIOLATED"
        lines = [
            f"conservation: {verdict} "
            f"(created={self.created} = archived={self.archived} "
            f"+ in_flight={self.in_flight} + lost={self.lost})",
        ]
        for cls, stages in sorted(self.by_class.items()):
            detail = ", ".join(f"{stage}={count}"
                               for stage, count in sorted(stages.items()))
            lines.append(f"  {cls}: {detail}")
        for cause, count in sorted(self.lost_by_cause.items()):
            lines.append(f"  lost[{cause}]: {count}")
        for anomaly in self.anomalies:
            lines.append(f"  anomaly: {anomaly}")
        return "\n".join(lines)


class ProvenanceLedger:
    """Trace-fed artifact lifecycle tracker with a conservation close-out.

    Attach with :meth:`attach` (done by :class:`~repro.obs.observability.
    Observability` for every simulation); call :meth:`finish` at
    mission close for the :class:`ConservationReport`.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._files = _Rows("file", "file")
        self._gps = _Rows("gps", "gps")
        #: Every row group: ``file``, ``gps`` and one per ``(probe, task)``.
        self._groups: Dict[Hashable, _Rows] = {"file": self._files,
                                               "gps": self._gps}
        #: ``file:`` artifact id -> the children it carries.
        self._children: Dict[str, List[_Child]] = {}
        self._anomalies: List[str] = []
        self._trace = None
        self._report: Optional[ConservationReport] = None
        # Cached metric handles: re-resolving name+labels per edge through
        # the registry would dominate the ledger's cost.
        self._edge_counters: Dict[Tuple[str, str], object] = {}
        self._latency_hists: Dict[Tuple[str, str], object] = {}
        self._anomaly_counter = self.metrics.counter("provenance_anomalies_total")

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, trace) -> None:
        """Subscribe to a :class:`~repro.sim.trace.Trace`."""
        self._trace = trace
        trace.subscribe(self.observe)

    def detach(self) -> None:
        """Unsubscribe (used by the provenance-off benchmark arm)."""
        if self._trace is not None:
            self._trace.unsubscribe(self.observe)
            self._trace = None

    # ------------------------------------------------------------------
    # Record dispatch
    # ------------------------------------------------------------------
    def observe(self, record) -> None:
        """Consume one trace record (the subscriber entry point)."""
        source = record.source
        if source == PROV_SOURCE:
            self._on_prov(record)
        elif source == FAULT_SOURCE:
            self._on_fault(record)
        elif source == BULK_SOURCE or source == STOPWAIT_SOURCE:
            self._on_fetch(record)

    def _on_prov(self, record) -> None:
        kind = record.kind
        detail = record.detail
        now = record.time
        if kind == "created":
            cls = detail.get("cls", "")
            if cls == "reading":
                rows = self._group((detail["probe"], detail["task"]))
                first_seq = detail["first_seq"]
                end = first_seq + detail["count"]
                rows.grow(end)
                self._create(rows, range(first_seq, end), now)
            elif cls == "gps":
                gps = self._gps
                self._create(gps, (gps.row(detail["artifact"]),), now)
        elif kind == "stored":
            gps = self._gps
            self._advance(gps, (gps.row(detail["artifact"]),), "stored", now)
        elif kind == "queued":
            self._on_queued(detail, now)
        elif kind == "transferred" or kind == "archived":
            self._cascade(f"file:{detail['station']}:{detail['file']}", kind, now)

    def _on_queued(self, detail, now: float) -> None:
        file_id = f"file:{detail['station']}:{detail['file']}"
        files = self._files
        row = (files.row(file_id),)
        self._create(files, row, now)
        self._advance(files, row, "queued", now)
        children = self._children.setdefault(file_id, [])
        artifact = detail.get("artifact")
        if artifact is not None:
            children.append((self._gps, (self._gps.row(artifact),)))
        probe = detail.get("probe")
        if probe is not None:
            children.append((self._group((probe, detail["task"])),
                             detail.get("seqs", ())))
        for rows, members in children:
            self._advance(rows, members, "queued", now, claim=file_id)

    def _on_fetch(self, record) -> None:
        """Protocol fetch completion: delivered readings reach ``stored``."""
        if record.kind != "fetch_done":
            return
        detail = record.detail
        probe = detail.get("probe")
        task = detail.get("task")
        if probe is None or task is None:
            return
        seqs = detail.get("new_seqs", detail.get("delivered_seqs", ()))
        self._advance(self._group((probe, task)), seqs, "stored", record.time)
        rerequested = detail.get("rerequested", 0)
        if rerequested:
            self.metrics.inc("provenance_edges_total", amount=rerequested,
                             stage="rerequested", cls="reading")

    def _on_fault(self, record) -> None:
        if record.kind != "fault_injected":
            return
        detail = record.detail
        station = detail.get("station", "")
        cause = detail.get("fault", "fault")
        for name in detail.get("files") or ():
            file_id = f"file:{station}:{name}"
            row = self._files.ids.get(file_id)  # untracked files are ignored
            # The fault destroyed the file: it and its riding children are lost.
            if row is not None and self._lose(self._files, (row,), cause):
                for rows, members in self._children.get(file_id, ()):
                    self._lose(rows, members, cause, riding=file_id)

    # ------------------------------------------------------------------
    # Ledger mutations
    # ------------------------------------------------------------------
    def _group(self, key: Tuple[int, int]) -> _Rows:
        """The reading group of one ``(probe, task)``, made on first use."""
        rows = self._groups.get(key)
        if rows is None:
            rows = self._groups[key] = _Rows(key, "reading")
        return rows

    def _create(self, rows: _Rows, members: Iterable[int], now: float) -> None:
        """Register a batch of existing rows born at ``now``: one counter bump.

        A second create is an anomaly, except for a file: a station may
        queue the same outbox file again.
        """
        stages = rows.stages
        times = rows.times
        created = 0
        for row in members:
            if stages[row] != _ABSENT:
                if rows.cls != "file":
                    self._anomaly(f"duplicate create for {rows.name(row)}")
                continue
            stages[row] = 0
            times[row] = now
            created += 1
        if created:
            self._edge("created", rows.cls, created)

    def _advance(self, rows: _Rows, members: Iterable[int], stage: str,
                 now: float, riding: Optional[str] = None,
                 claim: Optional[str] = None) -> int:
        """Move rows ``members`` to ``stage``, in order; returns how many moved.

        Each run of rows sharing a latency costs one edge counter bump and
        one histogram bucket search.  Runs follow the batch order, so every
        histogram sum still adds its samples one by one in per-artifact
        order.  An edge that is not a plain forward move goes to
        :meth:`_refuse`, which never observes a latency.  With ``riding``
        set, only rows whose container is that file move, and rows the
        ledger never saw are skipped silently.  With ``claim`` set, every
        row the ledger saw, moved or not, now rides that file.
        """
        stages = rows.stages
        times = rows.times
        containers = rows.containers
        lost = rows.lost
        size = len(stages)
        forward = _FORWARD[stage]
        rank = _RANK[stage]
        moved = 0
        run_latency = None
        run_length = 0
        for row in members:
            prior = stages[row] if 0 <= row < size else _ABSENT
            if riding is not None and (prior == _ABSENT
                                       or containers[row] != riding):
                continue
            if claim is not None and prior != _ABSENT:
                containers[row] = claim
            if prior not in forward or (lost and row in lost):
                self._refuse(rows, row, prior, stage)
                continue
            latency = now - times[row]
            if latency != run_latency:
                if run_length:
                    self._moved(stage, rows.cls, run_latency, run_length)
                    moved += run_length
                run_latency = latency
                run_length = 0
            run_length += 1
            stages[row] = rank
            times[row] = now
        if run_length:
            self._moved(stage, rows.cls, run_latency, run_length)
        return moved + run_length

    def _refuse(self, rows: _Rows, row: int, prior: int, stage: str) -> None:
        """An edge that does not move ``row`` (now at rank ``prior``) forward.

        It is an anomaly, a counted re-transfer, or an ignored repeat.
        """
        if prior == _ABSENT:
            # A trace record referenced data the ledger never saw created
            # (possible in unit rigs exercising one subsystem in isolation).
            self._anomaly(f"{stage} edge for unknown artifact {rows.name(row)}")
        elif row in rows.lost:
            self._anomaly(f"{stage} edge for lost artifact {rows.name(row)}")
        elif stage == "archived":
            self._anomaly(f"duplicate archive of {rows.name(row)}")
        elif _RANK[stage] < prior:
            # Re-transfer after a failed ingest is idempotent (a forward
            # edge); everything else repeating or regressing means the
            # edge feed is broken.
            if stage == "transferred" and prior == _ARCHIVED:
                # The station's post-upload delete failed, so it sent a
                # file the server already archived: data is safe, the
                # airtime was wasted.  Counted, not an anomaly.
                self.metrics.inc("provenance_edges_total",
                                 stage="retransferred", cls=rows.cls)
            else:
                self._anomaly(f"backwards edge {STAGES[prior]}->{stage} "
                              f"for {rows.name(row)}")

    def _cascade(self, file_id: str, stage: str, now: float) -> None:
        """Advance a file and, if it moved, the children riding it."""
        if self._advance(self._files, (self._files.row(file_id),), stage, now):
            # Cascade only to children still riding *this* copy — a
            # reading re-fetched into a newer file belongs to that one.
            for rows, members in self._children.get(file_id, ()):
                self._advance(rows, members, stage, now, riding=file_id)

    def _lose(self, rows: _Rows, members: Iterable[int], cause: str,
              riding: Optional[str] = None) -> int:
        """A fault destroyed rows ``members``; returns how many were lost.

        A row already lost, already archived (the server has it, so
        destroying the local copy is not data loss) or never created is
        skipped, and so is one not riding ``riding`` when that is set.
        """
        stages = rows.stages
        containers = rows.containers
        lost = rows.lost
        size = len(stages)
        count = 0
        for row in members:
            if (not 0 <= row < size or stages[row] >= _ARCHIVED or row in lost
                    or (riding is not None and containers[row] != riding)):
                continue
            lost[row] = cause
            self._lost(rows.cls, cause)
            count += 1
        return count

    def _lost(self, cls: str, cause: str) -> None:
        self._edge("lost", cls)
        self.metrics.inc("provenance_lost_total", cls=cls, cause=cause)

    def _edge(self, stage: str, cls: str, count: int = 1) -> None:
        counter = self._edge_counters.get((stage, cls))
        if counter is None:
            counter = self.metrics.counter("provenance_edges_total",
                                           stage=stage, cls=cls)
            self._edge_counters[(stage, cls)] = counter
        counter.inc(count)

    def _moved(self, stage: str, cls: str, latency: float, count: int) -> None:
        """``count`` artifacts of one class reached ``stage`` after ``latency``."""
        self._edge(stage, cls, count)
        hist = self._latency_hists.get((stage, cls))
        if hist is None:
            hist = self.metrics.histogram("provenance_stage_latency_seconds",
                                          buckets=LATENCY_BUCKETS,
                                          stage=stage, cls=cls)
            self._latency_hists[(stage, cls)] = hist
        hist.observe(latency, count)

    def _anomaly(self, message: str) -> None:
        self._anomalies.append(message)
        self._anomaly_counter.inc()

    # ------------------------------------------------------------------
    # Close-out
    # ------------------------------------------------------------------
    def _tally(self) -> Counter:
        """Artifact count per ``(cls, lost cause or None, stage)``."""
        tally: Counter = Counter()
        for rows in self._groups.values():
            cls = rows.cls
            stages = rows.stages
            for rank, stage in enumerate(STAGES):
                tally[cls, None, stage] += stages.count(rank)
            for row, cause in rows.lost.items():
                stage = STAGES[stages[row]]
                tally[cls, None, stage] -= 1
                tally[cls, cause, stage] += 1
        return tally

    def finish(self, now: float) -> ConservationReport:
        """Run the conservation check and pin the result into the metrics.

        Idempotent: the first call computes and caches the report; later
        calls return the same object, so report sections and CLI exports
        can both close the ledger without double-counting.
        """
        if self._report is not None:
            return self._report
        created = archived = in_flight = lost = 0
        lost_by_cause: Dict[str, int] = {}
        by_class: Dict[str, Dict[str, int]] = {}
        for (cls, cause, stage), count in self._tally().items():
            if not count:
                continue
            created += count
            if cause is not None:
                lost += count
                lost_by_cause[cause] = lost_by_cause.get(cause, 0) + count
                stage = "lost"
            elif stage == "archived":
                archived += count
            else:
                in_flight += count
            stages = by_class.setdefault(cls, {})
            stages[stage] = stages.get(stage, 0) + count
        report = ConservationReport(
            created, archived, in_flight, lost, lost_by_cause, by_class,
            list(self._anomalies))
        self.metrics.set_gauge("provenance_created", float(created))
        self.metrics.set_gauge("provenance_archived", float(archived))
        self.metrics.set_gauge("provenance_in_flight", float(in_flight))
        self.metrics.set_gauge("provenance_lost", float(lost))
        self.metrics.set_gauge("provenance_conserved",
                               1.0 if report.conserved else 0.0)
        for cls, stages in sorted(by_class.items()):
            for stage, count in sorted(stages.items()):
                self.metrics.set_gauge("provenance_artifacts", float(count),
                                       cls=cls, stage=stage)
        self._report = report
        return report
