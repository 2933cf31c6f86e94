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
  when its task snapshot freezes a sequence number onto it (held
  internally as row ``seq`` of its ``(probe_id, task_id)`` columns; the
  string form appears only in anomaly messages);
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
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, Union

from repro.obs.metrics import MetricsRegistry

#: Trace sources the ledger consumes.
PROV_SOURCE = "prov"
FAULT_SOURCE = "faults"
BULK_SOURCE = "protocol.bulk"
STOPWAIT_SOURCE = "protocol.stopwait"

#: Stage ranks; ``lost`` is terminal and handled out-of-band.
STAGES: Tuple[str, ...] = ("created", "stored", "queued", "transferred", "archived")
_RANK: Dict[str, int] = {stage: rank for rank, stage in enumerate(STAGES)}
#: Per target stage, the stages an artifact advances from as a plain
#: forward edge: any earlier stage, plus ``transferred`` itself (a repeat
#: transfer is idempotent).  Anything else is an anomaly or a re-transfer.
_FORWARD_FROM: Dict[str, frozenset] = {
    stage: frozenset(STAGES[:rank] + (("transferred",) if stage == "transferred" else ()))
    for rank, stage in enumerate(STAGES)
}
#: :data:`_FORWARD_FROM` as stage ranks, for the reading columns.
_FORWARD_RANKS: Dict[str, frozenset] = {
    stage: frozenset(_RANK[source] for source in sources)
    for stage, sources in _FORWARD_FROM.items()
}
#: Stage rank of a reading row no ``created`` record has filled.
_ABSENT = 255

#: Sim-time latency buckets: 1 min, 10 min, 1 h, 6 h, 1 d, 2 d, 7 d, 30 d.
LATENCY_BUCKETS: Tuple[float, ...] = (
    60.0, 600.0, 3600.0, 21600.0, 86400.0, 172800.0, 604800.0, 2592000.0,
)


def _name(key: Hashable) -> str:
    """The artifact ID of a ledger key (a reading's is ``(probe, task, seq)``)."""
    if isinstance(key, tuple):
        return "reading:{}:{}:{}".format(*key)
    return key


#: A file's child: a gps artifact ID, or the ``(probe, task, seqs)`` readings.
_Child = Union[str, Tuple[int, int, Sequence[int]]]


class _Artifact:
    """Mutable ledger row of one file or gps artifact (internal)."""

    __slots__ = ("cls", "stage", "stage_time", "lost_cause", "container")

    def __init__(self, cls: str, now: float) -> None:
        self.cls = cls
        self.stage = "created"
        self.stage_time = now
        self.lost_cause: Optional[str] = None
        #: The ``file:`` artifact currently carrying this one, if any.
        self.container: Optional[str] = None


class _ReadingRows:
    """Ledger rows of one ``(probe, task)``'s readings, as columns (internal).

    Row ``seq`` is reading ``reading:{probe}:{task}:{seq}``: its stage rank
    (:data:`_ABSENT` until created), the sim time it reached that stage,
    and the ``file:`` artifact carrying it.  Lost causes are sparse.
    """

    __slots__ = ("stages", "times", "containers", "lost")

    def __init__(self) -> None:
        self.stages = bytearray()
        self.times = array("d")
        self.containers: List[Optional[str]] = []
        #: seq -> the fault that destroyed the reading.
        self.lost: Dict[int, str] = {}

    def grow(self, size: int) -> None:
        """Make room for seqs below ``size``."""
        extra = size - len(self.stages)
        if extra > 0:
            self.stages.extend(bytes((_ABSENT,)) * extra)
            self.times.extend(array("d", bytes(8 * extra)))
            self.containers.extend([None] * extra)

    def stage_of(self, seq: int) -> Optional[str]:
        """The stage name of row ``seq``, or ``None`` if never created."""
        if 0 <= seq < len(self.stages) and self.stages[seq] != _ABSENT:
            return STAGES[self.stages[seq]]
        return None


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
        #: ``file:`` / ``gps:`` artifact id -> row.
        self._artifacts: Dict[str, _Artifact] = {}
        #: ``(probe, task)`` -> the rows of that task's readings.
        self._readings: Dict[Tuple[int, int], _ReadingRows] = {}
        #: ``file:`` artifact id -> the children it carries.
        self._children: Dict[str, List[_Child]] = {}
        self._anomalies: List[str] = []
        self._trace = None
        self._report: Optional[ConservationReport] = None
        # Cached metric handles: every reading pays an edge counter and a
        # latency histogram per stage, so re-resolving name+labels through
        # the registry each time dominates the ledger's cost (the <10%
        # overhead budget is the constraint here, not clarity).
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
                self._create_readings(detail["probe"], detail["task"],
                                      detail["first_seq"], detail["count"], now)
            elif cls == "gps":
                self._create((detail["artifact"],), "gps", now)
        elif kind == "stored":
            self._advance((detail["artifact"],), "stored", now)
        elif kind == "queued":
            self._on_queued(record)
        elif kind == "transferred":
            file_id = f"file:{detail['station']}:{detail['file']}"
            self._cascade(file_id, "transferred", now)
        elif kind == "archived":
            file_id = f"file:{detail['station']}:{detail['file']}"
            self._cascade(file_id, "archived", now)

    def _on_queued(self, record) -> None:
        detail = record.detail
        now = record.time
        file_id = f"file:{detail['station']}:{detail['file']}"
        self._create((file_id,), "file", now)
        self._advance((file_id,), "queued", now)
        children = self._children.setdefault(file_id, [])
        artifact = detail.get("artifact")
        if artifact is not None:
            children.append(artifact)
        probe = detail.get("probe")
        if probe is not None:
            children.append((probe, detail["task"], detail.get("seqs", ())))
        for child in children:
            if isinstance(child, str):
                row = self._artifacts.get(child)
                if row is not None:
                    row.container = file_id
                continue
            probe, task, seqs = child
            rows = self._readings.get((probe, task))
            if rows is None:
                continue
            stages = rows.stages
            containers = rows.containers
            size = len(stages)
            for seq in seqs:
                if 0 <= seq < size and stages[seq] != _ABSENT:
                    containers[seq] = file_id
        self._advance_children(children, "queued", now)

    def _on_fetch(self, record) -> None:
        """Protocol fetch completion: delivered readings reach ``stored``."""
        if record.kind != "fetch_done":
            return
        detail = record.detail
        probe = detail.get("probe")
        task = detail.get("task")
        if probe is None or task is None:
            return
        now = record.time
        seqs = detail.get("new_seqs", detail.get("delivered_seqs", ()))
        self._advance_readings(probe, task, seqs, "stored", now)
        rerequested = detail.get("rerequested", 0)
        if rerequested:
            self.metrics.inc("provenance_edges_total", amount=rerequested,
                             stage="rerequested", cls="reading")

    def _on_fault(self, record) -> None:
        if record.kind != "fault_injected":
            return
        detail = record.detail
        files = detail.get("files")
        if not files:
            return
        station = detail.get("station", "")
        cause = detail.get("fault", "fault")
        for name in files:
            file_id = f"file:{station}:{name}"
            if file_id in self._artifacts:
                self._lose(file_id, cause)

    # ------------------------------------------------------------------
    # Ledger mutations
    # ------------------------------------------------------------------
    def _create(self, keys: Iterable[str], cls: str, now: float) -> None:
        """Register a batch of artifacts born at ``now``: one counter bump."""
        artifacts = self._artifacts
        created = 0
        for key in keys:
            if key in artifacts:
                if cls != "file":
                    self._anomaly(f"duplicate create for {key}")
                continue
            artifacts[key] = _Artifact(cls, now)
            created += 1
        if created:
            self._edge("created", cls, created)

    def _create_readings(self, probe: int, task: int, first_seq: int,
                         count: int, now: float) -> None:
        """Register readings ``first_seq .. first_seq + count - 1`` of a task."""
        rows = self._readings.get((probe, task))
        if rows is None:
            rows = self._readings[(probe, task)] = _ReadingRows()
        end = first_seq + count
        rows.grow(end)
        stages = rows.stages
        times = rows.times
        created = 0
        for seq in range(first_seq, end):
            if stages[seq] != _ABSENT:
                self._anomaly(f"duplicate create for {_name((probe, task, seq))}")
                continue
            stages[seq] = 0
            times[seq] = now
            created += 1
        if created:
            self._edge("created", "reading", created)

    def _advance(self, keys: Iterable[str], stage: str, now: float) -> int:
        """Move a batch of file/gps artifacts to ``stage``; returns how many moved.

        Each run of artifacts sharing a class and a latency costs one edge
        counter bump and one histogram bucket search.  Runs follow the
        batch order, so every histogram sum still adds its samples one by
        one in per-artifact order.  An edge that is not a plain forward
        move goes to :meth:`_refuse`, which never observes a latency.
        """
        artifacts = self._artifacts
        forward = _FORWARD_FROM[stage]
        moved = 0
        run_cls = ""
        run_latency = None
        run_length = 0
        for key in keys:
            artifact = artifacts.get(key)
            if artifact is None:
                self._refuse(key, "", None, False, stage)
                continue
            if artifact.lost_cause is not None or artifact.stage not in forward:
                self._refuse(key, artifact.cls, artifact.stage,
                             artifact.lost_cause is not None, stage)
                continue
            cls = artifact.cls
            latency = now - artifact.stage_time
            if latency != run_latency or cls != run_cls:
                if run_length:
                    self._moved(stage, run_cls, run_latency, run_length)
                    moved += run_length
                run_cls = cls
                run_latency = latency
                run_length = 0
            run_length += 1
            artifact.stage = stage
            artifact.stage_time = now
        if run_length:
            self._moved(stage, run_cls, run_latency, run_length)
        return moved + run_length

    def _advance_readings(self, probe: int, task: int, seqs: Iterable[int],
                          stage: str, now: float,
                          riding: Optional[str] = None) -> None:
        """:meth:`_advance` for readings ``seqs`` of one task, in the given order.

        With ``riding`` set, only readings whose container is that file
        move, and readings the ledger never saw are skipped silently.
        """
        rows = self._readings.get((probe, task))
        if rows is None:
            if riding is None:
                for seq in seqs:
                    self._refuse((probe, task, seq), "reading", None, False, stage)
            return
        stages = rows.stages
        times = rows.times
        containers = rows.containers
        lost = rows.lost
        size = len(stages)
        forward = _FORWARD_RANKS[stage]
        rank = _RANK[stage]
        run_latency = None
        run_length = 0
        for seq in seqs:
            if riding is not None and not (0 <= seq < size
                                           and containers[seq] == riding):
                continue
            current = stages[seq] if 0 <= seq < size else _ABSENT
            if current not in forward or (lost and seq in lost):
                self._refuse((probe, task, seq), "reading", rows.stage_of(seq),
                             seq in lost, stage)
                continue
            latency = now - times[seq]
            if latency != run_latency:
                if run_length:
                    self._moved(stage, "reading", run_latency, run_length)
                run_latency = latency
                run_length = 0
            run_length += 1
            stages[seq] = rank
            times[seq] = now
        if run_length:
            self._moved(stage, "reading", run_latency, run_length)

    def _advance_children(self, children: Iterable[_Child], stage: str,
                          now: float, riding: Optional[str] = None) -> None:
        """Advance a file's children in order (see :meth:`_advance_readings`)."""
        for child in children:
            if not isinstance(child, str):
                self._advance_readings(*child, stage, now, riding)
            elif riding is None or getattr(self._artifacts.get(child),
                                           "container", None) == riding:
                self._advance((child,), stage, now)

    def _refuse(self, key: Hashable, cls: str, prior: Optional[str],
                lost: bool, stage: str) -> None:
        """An edge that does not move ``key`` (now at ``prior``) forward.

        It is an anomaly, a counted re-transfer, or an ignored repeat.
        """
        if prior is None:
            # A trace record referenced data the ledger never saw created
            # (possible in unit rigs exercising one subsystem in isolation).
            self._anomaly(f"{stage} edge for unknown artifact {_name(key)}")
        elif lost:
            self._anomaly(f"{stage} edge for lost artifact {_name(key)}")
        elif stage == "archived":
            self._anomaly(f"duplicate archive of {_name(key)}")
        elif _RANK[stage] < _RANK[prior]:
            # Re-transfer after a failed ingest is idempotent (a forward
            # edge); everything else repeating or regressing means the
            # edge feed is broken.
            if stage == "transferred" and prior == "archived":
                # The station's post-upload delete failed, so it sent a
                # file the server already archived: data is safe, the
                # airtime was wasted.  Counted, not an anomaly.
                self.metrics.inc("provenance_edges_total",
                                 stage="retransferred", cls=cls)
            else:
                self._anomaly(
                    f"backwards edge {prior}->{stage} for {_name(key)}")

    def _cascade(self, file_id: str, stage: str, now: float) -> None:
        """Advance a file and, if it moved, the children riding it."""
        if not self._advance((file_id,), stage, now):
            return
        # Cascade only to children still riding *this* copy — a reading
        # re-fetched into a newer file belongs to that one.
        self._advance_children(self._children.get(file_id, ()), stage, now,
                               riding=file_id)

    def _lose(self, file_id: str, cause: str) -> None:
        """A fault destroyed ``file_id``: it and the children riding it are lost."""
        for child in self._lose_one(file_id, cause):
            if isinstance(child, str):
                row = self._artifacts.get(child)
                if row is not None and row.container == file_id:
                    self._lose_one(child, cause)
                continue
            probe, task, seqs = child
            rows = self._readings.get((probe, task))
            if rows is None:
                continue
            size = len(rows.stages)
            for seq in seqs:
                if (0 <= seq < size and rows.containers[seq] == file_id
                        and seq not in rows.lost
                        and rows.stages[seq] != _RANK["archived"]):
                    rows.lost[seq] = cause
                    self._lost("reading", cause)

    def _lose_one(self, artifact_id: str, cause: str) -> Sequence[_Child]:
        """Mark one file or gps artifact lost; returns the children it strands."""
        artifact = self._artifacts[artifact_id]
        if artifact.lost_cause is not None or artifact.stage == "archived":
            # Already gone, or the server has it: destroying the local copy
            # is not data loss.
            return ()
        artifact.lost_cause = cause
        self._lost(artifact.cls, cause)
        return self._children.get(artifact_id, ())

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
        tally = Counter((artifact.cls, artifact.lost_cause, artifact.stage)
                        for artifact in self._artifacts.values())
        for rows in self._readings.values():
            stages = rows.stages
            for rank, stage in enumerate(STAGES):
                tally["reading", None, stage] += stages.count(rank)
            for seq, cause in rows.lost.items():
                stage = STAGES[stages[seq]]
                tally["reading", None, stage] -= 1
                tally["reading", cause, stage] += 1
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
