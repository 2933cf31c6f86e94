"""Spans: sim-time intervals forming per-track trees.

A span brackets one activity (a daily run, a GPRS session, a probe fetch)
between two *simulated* instants.  Spans never read the host clock, so a
same-seed replay produces a byte-identical span stream; host-time
profiling lives in the ``bench`` harness and never reaches an export.

Because many processes interleave in one simulation, nesting is tracked
per *track* (one track per station or process, like a thread id in a
Chrome trace): a span opened on track ``"base"`` is the child of the
innermost span still open on ``"base"``, regardless of what other tracks
did in between.  Kernel per-event spans are *instants* (start == end —
callbacks run in zero simulated time) recorded on the owning process's
track.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - break the sim <-> obs import cycle
    from repro.sim.simtime import SimClock

#: Canonical sorted ``((key, value), ...)`` attribute form.
AttrItems = Tuple[Tuple[str, object], ...]


def attr_items(attrs: Mapping[str, object]) -> AttrItems:
    """Normalise span attributes to their canonical sorted tuple form."""
    return tuple(sorted((str(key), value) for key, value in attrs.items()))


@dataclass(frozen=True)
class SpanRecord:
    """One finished span.

    Attributes
    ----------
    name:
        What the span brackets (e.g. ``"comms_session"``).
    track:
        The station/process lane the span belongs to.
    start, end:
        Simulated seconds since the epoch (``start == end`` for instants).
    depth:
        Nesting depth within the track at open time (0 = top level).
    attrs:
        Sorted ``(key, value)`` payload pairs.
    """

    name: str
    track: str
    start: float
    end: float
    depth: int
    attrs: AttrItems = ()

    @property
    def duration(self) -> float:
        """Simulated seconds the span covers."""
        return self.end - self.start


class _OpenSpan:
    """Context manager handle returned by :meth:`SpanRecorder.span`."""

    __slots__ = ("_recorder", "name", "track", "attrs", "start", "depth")

    def __init__(self, recorder: "SpanRecorder", name: str, track: str,
                 attrs: AttrItems) -> None:
        self._recorder = recorder
        self.name = name
        self.track = track
        self.attrs = attrs
        self.start = 0.0
        self.depth = 0

    def __enter__(self) -> "_OpenSpan":
        self.start = self._recorder.now()
        stack = self._recorder._stacks.setdefault(self.track, [])
        self.depth = len(stack)
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        stack = self._recorder._stacks.get(self.track, [])
        if stack and stack[-1] is self:
            stack.pop()
        attrs = self.attrs
        if exc_type is not None:
            attrs = attr_items(dict(attrs, error=exc_type.__name__))
        self._recorder.records.append(
            SpanRecord(name=self.name, track=self.track, start=self.start,
                       end=self._recorder.now(), depth=self.depth, attrs=attrs)
        )
        return False


class SpanRecorder:
    """Collects finished spans; the kernel and subsystems feed it.

    Records are appended in close order, which is fully determined by the
    simulation's event order — no sorting is needed for reproducibility.
    """

    def __init__(self, clock: "Optional[SimClock]" = None) -> None:
        self.clock = clock
        self.records: List[SpanRecord] = []
        self._stacks: Dict[str, List[_OpenSpan]] = {}

    def now(self) -> float:
        """Current simulated time (0.0 when no clock is attached)."""
        return self.clock.now if self.clock is not None else 0.0

    def span(self, name: str, track: str = "sim", **attrs: object) -> _OpenSpan:
        """Open a span as a context manager::

            with recorder.span("gprs_session", track="base", files=3):
                ...
        """
        return _OpenSpan(self, name, track, attr_items(attrs))

    def instant(self, name: str, track: str = "sim",
                when: Optional[float] = None, **attrs: object) -> SpanRecord:
        """Record a zero-duration span (kernel events, edges)."""
        time = self.now() if when is None else when
        stack = self._stacks.get(track)
        record = SpanRecord(name=name, track=track, start=time, end=time,
                            depth=len(stack) if stack else 0,
                            attrs=attr_items(attrs))
        self.records.append(record)
        return record

    # ------------------------------------------------------------------
    # Aggregation (mission report, busiest-process summaries)
    # ------------------------------------------------------------------
    def totals_by_name(self) -> Dict[str, Tuple[int, float]]:
        """``{span name: (count, total simulated seconds)}``."""
        totals: Dict[str, Tuple[int, float]] = {}
        for record in self.records:
            count, seconds = totals.get(record.name, (0, 0.0))
            totals[record.name] = (count + 1, seconds + record.duration)
        return totals

    def totals_by_track(self) -> Dict[str, Tuple[int, float]]:
        """``{track: (count, total simulated seconds at depth 0)}``.

        Only top-level spans count toward a track's busy time, so nested
        child spans are not double-counted.
        """
        totals: Dict[str, Tuple[int, float]] = {}
        for record in self.records:
            if record.depth != 0:
                continue
            count, seconds = totals.get(record.track, (0, 0.0))
            totals[record.track] = (count + 1, seconds + record.duration)
        return totals

    def __len__(self) -> int:
        return len(self.records)
