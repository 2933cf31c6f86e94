"""The paper's NACK-free bulk transfer protocol (Section V).

Phases of one fetch session, run from the base-station side:

1. **Task query** — a control exchange discovers the probe's outstanding
   task and its reading count.
2. **Stream** — on the first contact (or when too much is missing), the
   probe streams every reading without acknowledgements; the base records
   which sequence numbers arrived.
3. **Selective refetch** — otherwise the base requests each missing
   reading individually.  Requests and responses can themselves be lost;
   each consumes airtime and a retry budget.  This is the phase that "was
   never considered in the testing phase" and buckled under ~400 misses.
4. **Completion** — only when the base holds every reading does it send a
   COMPLETE, letting the probe retire the task.  If the session runs out
   of window first, received sequence numbers persist on the base and the
   fetch resumes on a later day.

The choice between phases 2 and 3 is the refetch-all heuristic: request
individually "unless there were so many that it would be as efficient to
request them all again".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, List, Optional, Set, Tuple

from repro.comms.probe_radio import ProbeRadioLink
from repro.protocol.framing import (
    ACK_BYTES,
    DATA_HEADER_BYTES,
    REQUEST_BYTES,
    Reading,
    TaskSnapshot,
)
from repro.sim.events import Interrupt
from repro.sim.kernel import Simulation


class FetchStrategy(enum.Enum):
    """Which recovery strategy a session used."""

    STREAM = "stream"  # full NACK-free stream
    SELECTIVE = "selective"  # individual refetch of missing readings
    NONE = "none"  # session failed before any data moved


@dataclass
class FetchResult:
    """Outcome of one fetch session against one probe."""

    task_id: Optional[int] = None
    probe_id: Optional[int] = None
    total: int = 0
    received_new: int = 0
    missing_after: int = 0
    complete: bool = False
    strategy: FetchStrategy = FetchStrategy.NONE
    duration_s: float = 0.0
    airtime_bytes: int = 0
    interrupted: bool = False
    #: Sequence numbers newly delivered this session (provenance feed).
    new_seqs: List[int] = field(default_factory=list)
    #: How many previously-missing readings this session re-requested.
    rerequested: int = 0


class BulkFetcher:
    """Base-station side of the NACK-free protocol, with per-probe memory.

    Parameters
    ----------
    sim:
        Kernel.
    refetch_all_fraction:
        If more than this fraction of the task is missing, stream the whole
        task again instead of requesting readings one by one.
    request_retries:
        Attempts per missing reading in the selective phase.
    control_retries:
        Attempts for control exchanges (task query, complete).
    response_timeout_s:
        Wait for a DATA response to a REQUEST before retrying.
    """

    def __init__(
        self,
        sim: Simulation,
        refetch_all_fraction: float = 0.5,
        request_retries: int = 3,
        control_retries: int = 5,
        response_timeout_s: float = 0.5,
        request_batch_size: int = 1,
    ) -> None:
        if not 0.0 < refetch_all_fraction <= 1.0:
            raise ValueError("refetch_all_fraction must be in (0, 1]")
        if request_batch_size < 1:
            raise ValueError("request_batch_size must be >= 1")
        self.sim = sim
        self.refetch_all_fraction = refetch_all_fraction
        self.request_retries = request_retries
        self.control_retries = control_retries
        self.response_timeout_s = response_timeout_s
        #: Missing seqs per REQUEST packet.  1 is the deployed behaviour
        #: (the one that buckled at ~400 misses); larger batches amortise
        #: the request overhead — one of the "different strategies for
        #: retrieving data" the team could push remotely (Section V).
        self.request_batch_size = request_batch_size
        #: (probe_id, task_id) -> set of received seqs; survives across days.
        self.received: Dict[Tuple[int, int], Set[int]] = {}
        #: (probe_id, task_id) -> {seq: Reading} actually held, in arrival order.
        self.store: Dict[Tuple[int, int], Dict[int, Reading]] = {}
        #: (probe_id, task_id) -> how many of ``store`` :meth:`take_unstaged`
        #: has handed out: always its first ones in arrival order.
        self.staged: Dict[Tuple[int, int], int] = {}
        #: Tasks the probe has retired; forgotten once handed out.
        self.retired: Set[Tuple[int, int]] = set()

    # ------------------------------------------------------------------
    # Control exchanges
    # ------------------------------------------------------------------
    def _control_exchange(self, link: ProbeRadioLink, result: FetchResult):
        """One round-trip control packet pair; returns True on success."""
        for _attempt in range(self.control_retries):
            result.airtime_bytes += 2 * ACK_BYTES
            outbound = yield self.sim.process(link.transmit(ACK_BYTES))
            if not outbound:
                continue
            inbound = yield self.sim.process(link.transmit(ACK_BYTES))
            if inbound:
                return True
        return False

    # ------------------------------------------------------------------
    # The session
    # ------------------------------------------------------------------
    def fetch(self, probe, link: ProbeRadioLink, budget_s: Optional[float] = None):
        """Process: run one fetch session.  Returns a :class:`FetchResult`.

        ``probe`` is any object with ``task() -> Optional[TaskSnapshot]``
        and ``mark_complete(task_id)``.  A watchdog
        :class:`~repro.sim.events.Interrupt` (or ``budget_s`` expiring)
        ends the session with partial progress preserved.
        """
        start = self.sim.now
        deadline = None if budget_s is None else start + budget_s
        result = FetchResult()
        try:
            yield from self._fetch_body(probe, link, result, deadline)
        except Interrupt:
            result.interrupted = True
        result.duration_s = self.sim.now - start
        self.sim.trace.emit(
            "protocol.bulk",
            "fetch_done",
            task=result.task_id,
            probe=result.probe_id,
            strategy=result.strategy.value,
            received_new=result.received_new,
            missing_after=result.missing_after,
            complete=result.complete,
            new_seqs=result.new_seqs,
            rerequested=result.rerequested,
        )
        return result

    def _over_budget(self, deadline: Optional[float]) -> bool:
        return deadline is not None and self.sim.now >= deadline

    def _fetch_body(self, probe, link, result: FetchResult, deadline):
        # Phase 1: discover the task.
        ok = yield from self._control_exchange(link, result)
        if not ok:
            return
        task: Optional[TaskSnapshot] = probe.task()
        if task is None:
            result.complete = True
            return
        key = (task.readings[0].probe_id if task.readings else -1, task.task_id)
        result.task_id = task.task_id
        result.probe_id = key[0]
        result.total = task.total
        received = self.received.setdefault(key, set())
        held = self.store.setdefault(key, {})
        missing = [seq for seq in range(task.total) if seq not in received]

        # Phase 2/3: choose a strategy.
        if missing:
            first_contact = len(received) == 0
            if first_contact or len(missing) >= self.refetch_all_fraction * task.total:
                result.strategy = FetchStrategy.STREAM
                yield from self._stream_phase(task, link, received, held, result, deadline)
            else:
                result.strategy = FetchStrategy.SELECTIVE
                yield from self._selective_phase(task, link, received, held, result, deadline)
        missing_now = task.total - len(received)
        result.missing_after = missing_now

        # Phase 4: completion.
        if missing_now == 0 and not self._over_budget(deadline):
            ok = yield from self._control_exchange(link, result)
            if ok:
                probe.mark_complete(task.task_id)
                self.retired.add(key)
                result.complete = True

    #: Max packets per :meth:`ProbeRadioLink.transmit_sequence` burst in the
    #: stream phase: a 3000-reading first contact costs ~12 kernel events
    #: instead of 3000.  Burst size never changes a packet's fate: a fault
    #: window opening mid-burst applies per packet instant (the loss
    #: injector wraps ``loss_fn`` once, before the run), and budget checks
    #: stay packet-accurate because the link applies the deadline per
    #: packet *inside* the burst.
    STREAM_BURST = 256

    def _stream_phase(self, task, link, received, held, result, deadline):
        """The NACK-free stream: every reading sent once, no per-packet ACK.

        Readings go out in :attr:`STREAM_BURST` groups through
        :meth:`~repro.comms.probe_radio.ProbeRadioLink.transmit_sequence`;
        per-packet outcomes (and the per-packet deadline cut) are bitwise
        identical to a transmit-per-reading loop.
        """
        readings = task.readings
        packet_bytes = DATA_HEADER_BYTES + readings[0].wire_bytes if readings else 0
        index = 0
        while index < len(readings):
            if self._over_budget(deadline):
                return
            burst = readings[index:index + self.STREAM_BURST]
            outcomes = yield self.sim.process(
                link.transmit_sequence(packet_bytes, len(burst), deadline)
            )
            result.airtime_bytes += packet_bytes * len(outcomes)
            for reading, outcome in zip(burst, outcomes):
                if outcome.ok and reading.seq not in received:
                    received.add(reading.seq)
                    held[reading.seq] = reading
                    result.received_new += 1
                    result.new_seqs.append(reading.seq)
            if len(outcomes) < len(burst):
                return  # deadline expired mid-burst; progress is recorded
            index += len(burst)

    def _selective_phase(self, task, link, received, held, result, deadline):
        """Refetch of recorded-missing readings, in request batches.

        With ``request_batch_size == 1`` this is the deployed per-reading
        behaviour; larger batches send one REQUEST naming up to N seqs and
        the probe streams those N readings back (each can still be lost
        individually — leftovers go back on the missing list).
        """
        missing = [seq for seq in range(task.total) if seq not in received]
        result.rerequested = len(missing)
        batch_size = self.request_batch_size
        pending = list(missing)
        while pending:
            if self._over_budget(deadline):
                return
            batch, pending = pending[:batch_size], pending[batch_size:]
            remaining = list(batch)
            for _attempt in range(self.request_retries):
                if self._over_budget(deadline) or not remaining:
                    break
                request_bytes = REQUEST_BYTES + 2 * (len(remaining) - 1)
                result.airtime_bytes += request_bytes
                request_ok = yield self.sim.process(link.transmit(request_bytes))
                if not request_ok:
                    # The probe never heard us; wait out the response window.
                    yield self.sim.timeout(self.response_timeout_s)
                    continue
                still_missing = []
                for seq in remaining:
                    if self._over_budget(deadline):
                        return  # progress so far is already recorded
                    reading = task.by_seq(seq)
                    packet_bytes = DATA_HEADER_BYTES + reading.wire_bytes
                    result.airtime_bytes += packet_bytes
                    delivered = yield self.sim.process(link.transmit(packet_bytes))
                    if delivered:
                        received.add(seq)
                        held[seq] = reading
                        result.received_new += 1
                        result.new_seqs.append(seq)
                    else:
                        still_missing.append(seq)
                remaining = still_missing

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def holdings(self, probe_id: int, task_id: int) -> Dict[int, Reading]:
        """The readings actually held for one (probe, task)."""
        return dict(self.store.get((probe_id, task_id), {}))

    def take_unstaged(self, probe_id: int) -> List[Tuple[int, List[Reading]]]:
        """Hand out every reading of ``probe_id`` not handed out yet, per task.

        Each held reading is handed out exactly once, in arrival order,
        including the ones a session received before its job was killed
        (watchdog cut, brown-out) and so never reached its caller.  A task
        the probe has retired is forgotten once its readings are out:
        nothing reads it again.  :meth:`fetch` alone never forgets, so an
        interrupted task resumes on a later day.
        """
        taken = []
        for key in [key for key in self.store if key[0] == probe_id]:
            held = self.store[key]
            mark = self.staged.get(key, 0)
            if len(held) > mark:
                taken.append((key[1], list(islice(held.values(), mark, None))))
                self.staged[key] = len(held)
            if key in self.retired:
                self.retired.discard(key)
                for memory in (self.received, self.store, self.staged):
                    memory.pop(key, None)
        return taken
