"""Structured tracing: the simulated analogue of the stations' logfiles.

The paper stresses that "all messages or errors are redirected to a standard
logfile which is sent back daily with the data", and that log volume itself
became an operational problem (a reconnected probe could emit >1 MB of log).
:class:`Trace` records structured events with their simulated timestamps; the
station model measures the byte size of its trace slice to reproduce that
log-volume behaviour.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.sim.simtime import SimClock


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One trace entry.

    Attributes
    ----------
    time:
        Simulated time in seconds since the epoch.
    source:
        Component that emitted the record (e.g. ``"base.gumstix"``).
    kind:
        Machine-readable record type (e.g. ``"power_state"``).
    detail:
        Free-form payload fields.
    """

    time: float
    source: str
    kind: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def byte_size(self) -> int:
        """Approximate size of this record rendered as a log line."""
        rendered = f"{self.time:.1f} {self.source} {self.kind} {self.detail!r}\n"
        return len(rendered.encode())


class Trace:
    """Append-only list of :class:`TraceRecord` with query helpers.

    Every record is kept: staged log files measure their trace slice, so
    log *volume* is simulated behaviour, and the metrics layer counts the
    records by source and kind at export time.
    """

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock
        self.records: List[TraceRecord] = []
        self._subscribers: List[Callable[[TraceRecord], None]] = []
        #: Immutable snapshot iterated per emit; rebuilt on (un)subscribe so
        #: the hot path never copies the subscriber list.
        self._subscriber_snapshot: tuple = ()

    def emit(self, source: str, kind: str, **detail: Any) -> TraceRecord:
        """Append a record stamped with the current simulated time.

        A subscriber that raises does not corrupt the run: the exception
        is captured as a ``trace.subscriber_error`` record (the provenance
        ledger, alerts and invariant checker subscribe here — a bad
        callback must not kill a mission).
        """
        clock = self.clock
        time = clock._now if clock is not None else 0.0
        record = TraceRecord(time, source, kind, detail)
        self.records.append(record)
        for subscriber in self._subscriber_snapshot:
            try:
                subscriber(record)
            except Exception as exc:
                # Deterministic identification only: qualnames, not reprs
                # of closures (those embed host memory addresses).
                self.records.append(
                    TraceRecord(
                        time=time,
                        source="trace",
                        kind="subscriber_error",
                        detail={
                            "subscriber": getattr(subscriber, "__qualname__",
                                                  type(subscriber).__name__),
                            "error": f"{type(exc).__name__}: {exc}",
                            "record_source": source,
                            "record_kind": kind,
                        },
                    )
                )
        return record

    def subscribe(self, callback: Callable[[TraceRecord], None]) -> None:
        """Call ``callback`` for every future record."""
        self._subscribers.append(callback)
        self._subscriber_snapshot = tuple(self._subscribers)

    def unsubscribe(self, callback: Callable[[TraceRecord], None]) -> None:
        """Stop calling ``callback``; unknown callbacks are ignored."""
        try:
            self._subscribers.remove(callback)
        except ValueError:
            pass
        self._subscriber_snapshot = tuple(self._subscribers)

    def select(
        self,
        source: Optional[str] = None,
        kind: Optional[str] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> List[TraceRecord]:
        """Records matching every given filter.

        ``source`` matches the exact component name or any dotted child
        (``"base"`` matches ``"base"`` and ``"base.gumstix"`` but never a
        sibling like ``"base2"``).
        """
        return list(self.iter_select(source=source, kind=kind, start=start, end=end))

    def iter_select(
        self,
        source: Optional[str] = None,
        kind: Optional[str] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> Iterator[TraceRecord]:
        """Iterator variant of :meth:`select`.

        Records carry nondecreasing timestamps (the simulated clock never
        runs backwards), so a ``start`` bound is located by bisection and
        an ``end`` bound terminates the scan — windowed queries (the daily
        log-file sizing) stay O(window) as the trace grows over a year.
        """
        child_prefix = source + "." if source is not None else None
        records = self.records
        lo = 0
        if start is not None:
            lo = bisect_left(records, start, key=attrgetter("time"))
        for index in range(lo, len(records)):
            record = records[index]
            if end is not None and record.time >= end:
                break
            if source is not None and record.source != source and not (
                child_prefix is not None and record.source.startswith(child_prefix)
            ):
                continue
            if kind is not None and record.kind != kind:
                continue
            yield record

    def series(self, kind: str, key: str, source: Optional[str] = None) -> List[tuple]:
        """``(time, detail[key])`` pairs for every matching record."""
        return [
            (record.time, record.detail[key])
            for record in self.iter_select(source=source, kind=kind)
            if key in record.detail
        ]

    def byte_size(self, **filters: Any) -> int:
        """Total rendered byte size of records matching ``filters``."""
        return sum(record.byte_size() for record in self.iter_select(**filters))

    def __len__(self) -> int:
        return len(self.records)
