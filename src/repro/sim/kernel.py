"""The simulation kernel: clock + event queue + run loop.

This module is the hottest code in the repository: every experiment,
benchmark and fleet sweep funnels through :meth:`Simulation.run`.  The
hot-path rules it follows (no per-event allocations, bound-method dispatch
cached outside the loop, batch scheduling) are written down in
``docs/performance.md`` and enforced by the ``no-hot-path-alloc`` lint
rule.
"""

from __future__ import annotations

import datetime as _dt
import random as _random
import sys as _sys
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.obs.observability import Observability
from repro.sim.events import _INF, _NO_CALLBACKS, AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.sim.simtime import DEFAULT_EPOCH, SimClock
from repro.sim.trace import Trace


class StopSimulation(Exception):
    """Raised (or triggered) to end :meth:`Simulation.run` early."""


class Simulation:
    """Owns the simulated clock, the event queue and all processes.

    Typical use::

        sim = Simulation(seed=42)

        def worker(sim):
            yield sim.timeout(10.0)
            ...

        sim.process(worker(sim))
        sim.run(until=3600.0)

    Parameters
    ----------
    epoch:
        UTC datetime corresponding to simulated time 0.
    seed:
        Master seed for the per-component RNG registry.
    trace:
        Optional pre-built :class:`Trace`; a fresh one is created otherwise.
    obs:
        Optional pre-built :class:`~repro.obs.Observability`; a fresh one
        (metrics on, kernel spans off) is created otherwise.  The hub is a
        plain attribute: setting ``sim.obs = None`` disables all
        instrumentation from the next :meth:`run` call.
    tie_break:
        How same-timestamp events are ordered.  ``"fifo"`` (default) is
        insertion order, ``"lifo"`` is reverse insertion order, and
        ``"shuffle:<seed>"`` is a deterministic pseudo-random permutation
        of each equal-timestamp group keyed by ``<seed>``.  Every policy
        is fully deterministic: same policy + same mission seed replays
        byte-identically.  The perturbed policies exist so the races
        harness (:mod:`repro.lint.tie_replay`) can prove that no schedule
        silently relies on heap-insertion order — the prerequisite for
        batched same-timestamp dispatch.  Only the tie key among events
        with *equal* timestamps is permuted; cross-timestamp order is
        untouched, and ``_sequence`` keeps counting scheduled events
        under every policy.
    """

    def __init__(
        self,
        epoch: _dt.datetime = DEFAULT_EPOCH,
        seed: int = 0,
        trace: Optional[Trace] = None,
        obs: Optional[Observability] = None,
        tie_break: str = "fifo",
    ) -> None:
        self.clock = SimClock(epoch=epoch)
        self.rng = RngRegistry(seed)
        self.trace = trace if trace is not None else Trace(clock=self.clock)
        self._queue: List[Tuple[float, int, Event]] = []
        self._sequence = 0
        self._stopped = False
        self.events_processed = 0
        #: Equal-timestamp groups dispatched so far.  The run loop drains
        #: each group in one pass (one clock write, one ``until`` check), so
        #: ``events_processed / dispatch_batches`` is the mean group size —
        #: exported as the ``dispatch_batches_total`` kernel gauge.
        self.dispatch_batches = 0
        #: Diagnostic state for the races harness (None = off, zero cost
        #: beyond the ``_tie_fast`` flag check at each enqueue site).
        self._site_log: Optional[dict] = None
        self._dispatch_log: Optional[list] = None
        kind, _, policy_seed = tie_break.partition(":")
        if kind == "shuffle":
            if not policy_seed.lstrip("-").isdigit():
                raise ValueError(
                    f"tie_break 'shuffle' needs an integer seed, e.g. "
                    f"'shuffle:0' (got {tie_break!r})"
                )
            # The tie stream is replay *control*, not simulation randomness:
            # it is keyed by the policy spec alone — deliberately outside
            # the RngRegistry — so arming it can never perturb any
            # component stream (that independence is exactly what the
            # races harness measures).
            self._tie_bits = _random.Random(int(policy_seed)).getrandbits
        elif kind not in ("fifo", "lifo") or policy_seed:
            raise ValueError(
                f"tie_break must be 'fifo', 'lifo' or 'shuffle:<seed>' "
                f"(got {tie_break!r})"
            )
        else:
            self._tie_bits = None
        self.tie_break = tie_break
        self._tie_kind = kind
        #: True on the default fast path: fifo policy, no diagnostics.
        #: Enqueue sites then keep their inlined ``_sequence`` increment;
        #: otherwise they route through :meth:`_next_key`.
        self._tie_fast = kind == "fifo"
        #: The observability hub (``None`` disables all instrumentation).
        self.obs: Optional[Observability] = (
            obs if obs is not None else Observability(clock=self.clock))
        self.obs.attach_trace(self.trace)

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds since the epoch."""
        return self.clock._now

    def utcnow(self) -> _dt.datetime:
        """Current simulated instant as a UTC datetime."""
        return self.clock.utcnow()

    # ------------------------------------------------------------------
    # Kernel health accessors (the supported way to observe queue state —
    # reading _queue/_sequence from outside the kernel trips the
    # tie-break-assumption lint rule, because raw seq values are
    # policy-dependent heap keys, not a contract)
    # ------------------------------------------------------------------
    @property
    def events_scheduled(self) -> int:
        """How many events have been enqueued so far (any policy)."""
        return self._sequence

    @property
    def queue_depth(self) -> int:
        """How many events are currently waiting in the queue."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Tie-break policy and race diagnostics
    # ------------------------------------------------------------------
    def _next_key(self, event: Event) -> int:
        """Heap tie key for ``event`` under the active policy.

        Only reached off the fast path (non-fifo policy or diagnostics
        on).  The key orders *equal-timestamp* events only: ``lifo``
        negates the insertion counter, ``shuffle`` prefixes it with a
        deterministic 64-bit draw from the policy stream (the counter in
        the low bits keeps keys unique, so heap comparisons never fall
        through to the events themselves).  ``_sequence`` stays a plain
        scheduled-events counter under every policy.
        """
        seq = self._sequence
        self._sequence = seq + 1
        kind = self._tie_kind
        if kind == "lifo":
            key = -seq
        elif kind == "shuffle":
            key = (self._tie_bits(64) << 64) | seq
        else:
            key = seq
        site_log = self._site_log
        if site_log is not None:
            site_log[id(event)] = _schedule_site()
        return key

    def enable_tie_diagnostics(self) -> list:
        """Record schedule callsites and dispatch order for every event.

        Switches every enqueue onto the slow path, captures the first
        non-kernel stack frame of each enqueue, and logs
        ``(time, (file, line), event_type, event_name)`` per dispatched
        event.  The races harness (:mod:`repro.lint.tie_replay`) uses two
        such runs under different tie policies to bisect a digest
        divergence back to the offending schedule callsites.  Returns the
        live dispatch log.
        """
        if self._dispatch_log is None:
            self._site_log = {}
            self._dispatch_log = []
            self._tie_fast = False
        return self._dispatch_log

    def _diag_step(self, event: Event, when: float, queue_len: int) -> None:
        """Pre-dispatch observer while tie diagnostics are on."""
        site = self._site_log.pop(id(event), None)
        self._dispatch_log.append(
            (when, site, type(event).__name__, getattr(event, "name", ""))
        )

    def _dispatch_hook(self) -> Optional[Callable[[Event, float, int], None]]:
        """The pre-dispatch observer for one :meth:`run`/:meth:`step` call.

        Tie diagnostics own it whenever they are on (diagnosis missions
        are dedicated, so kernel spans are never wanted at once); then
        kernel spans when the hub asks for them; ``None`` is the fast path.
        """
        if self._dispatch_log is not None:
            return self._diag_step
        obs = self.obs
        if obs is not None and obs.kernel_spans:
            return obs.kernel_step
        return None

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Enqueue ``event`` to be processed ``delay`` seconds from now.

        ``delay`` must be finite and non-negative: a NaN or infinite delay
        would silently corrupt the heap order (every later comparison
        against it is False), so both are rejected up front.
        """
        if not 0.0 <= delay < _INF:
            raise ValueError(
                f"schedule() delay must be finite and >= 0, got {delay!r}"
            )
        if self._tie_fast:
            seq = self._sequence
            self._sequence = seq + 1
        else:
            seq = self._next_key(event)
        heappush(self._queue, (self.clock._now + delay, seq, event))

    def _schedule_now(self, event: Event) -> None:
        """Internal zero-delay enqueue (succeed/fail/process resume path)."""
        if self._tie_fast:
            seq = self._sequence
            self._sequence = seq + 1
        else:
            seq = self._next_key(event)
        heappush(self._queue, (self.clock._now, seq, event))

    def schedule_many(self, delays: Iterable[float]) -> List[Timeout]:
        """Create and enqueue one bare timeout per delay, as a single batch.

        Equivalent to ``[sim.timeout(d) for d in delays]`` but the whole
        batch shares one clock read and one validation pass, so daily
        planners (the MSP430 schedule, fleet warm-up) can arm a day's worth
        of slots without per-event scheduling overhead.  The batch is
        validated before anything is enqueued: a bad delay leaves the queue
        untouched.

        **Sequence-number contract** (pinned by
        ``tests/sim/test_tie_break.py::TestScheduleManyContract``): the
        batch consumes consecutive sequence numbers *in list order*,
        exactly as if each delay had been passed to an individual
        :meth:`timeout` call at the same instant.  Two delays that land on
        the same timestamp therefore dispatch in list order under
        ``fifo``, reverse list order under ``lifo``, and a seeded
        permutation under ``shuffle:<seed>`` — byte-identically to the
        equivalent interleaved single calls under the same policy.
        """
        batch = list(delays)
        for delay in batch:
            if not 0.0 <= delay < _INF:
                raise ValueError(
                    f"schedule_many() delays must be finite and >= 0, got {delay!r}"
                )
        queue = self._queue
        now = self.clock._now
        out: List[Timeout] = []
        append = out.append
        for delay in batch:
            timeout = Timeout.__new__(Timeout)
            timeout.sim = self
            timeout._name = ""
            timeout._callbacks = _NO_CALLBACKS
            timeout._value = None
            timeout._exception = None
            timeout._defused = False
            timeout.delay = delay
            if self._tie_fast:
                seq = self._sequence
                self._sequence = seq + 1
            else:
                seq = self._next_key(timeout)
            heappush(queue, (now + delay, seq, timeout))
            append(timeout)
        return out

    def event(self, name: str = "") -> Event:
        """Create a fresh pending event."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        """Create an event that fires after ``delay`` simulated seconds."""
        return Timeout(self, delay, value=value, name=name)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: List[Event]) -> AllOf:
        """Event that succeeds once every event in ``events`` has succeeded."""
        return AllOf(self, events)

    def any_of(self, events: List[Event]) -> AnyOf:
        """Event that succeeds when the first of ``events`` succeeds."""
        return AnyOf(self, events)

    def call_at(self, when: float, func: Callable[[], None]) -> Event:
        """Run ``func()`` at absolute simulated time ``when``.

        Mirrors :meth:`schedule`'s validation: ``when`` must be finite and
        not in the past.
        """
        if not self.clock._now <= when < _INF:
            raise ValueError(
                f"call_at() target must be finite and >= now "
                f"(got {when!r}, now={self.clock._now})"
            )
        event = Timeout(self, when - self.clock._now, name=f"call_at({when:g})")
        event.callbacks.append(lambda _evt: func())  # type: ignore[union-attr]
        return event

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Process exactly one event from the queue (a single-event batch)."""
        when, _seq, event = heappop(self._queue)
        self.clock.advance_to(when)
        self.events_processed += 1
        self.dispatch_batches += 1
        hook = self._dispatch_hook()
        if hook is not None:
            hook(event, when, len(self._queue))
        event._run_callbacks()

    def peek(self) -> float:
        """Time of the next queued event, or ``inf`` if the queue is empty."""
        return self._queue[0][0] if self._queue else _INF

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue empties, ``until`` is reached, or stop() is called.

        ``until`` is an *absolute* simulated time.  An event scheduled
        exactly at ``until`` still fires; when the run ends because of
        ``until``, the clock is left exactly at ``until``.

        **Batched same-timestamp dispatch**: the loop drains each group of
        equal-``when`` events in one pass, peek-comparing the heap root
        instead of re-entering the outer loop per event, so the clock
        write and the ``until`` comparison are paid once per *group*.  Pop
        order inside a group is exactly the heap order the active
        tie-break policy dictates, ``stop()`` is honoured between any two
        events, and a zero-delay event scheduled from inside a group joins
        the same group — so batched dispatch is observationally identical
        to the one-event-at-a-time loop (the races harness proves it under
        fifo/lifo/shuffle).

        The pre-dispatch observer (tie diagnostics or kernel spans, see
        :meth:`_dispatch_hook`) is chosen once per call, so the one
        documented coarsening: kernel spans or tie diagnostics switched on
        from inside a running ``run()`` take effect from the next call.
        """
        limit = _INF if until is None else until
        self._stopped = False
        queue = self._queue
        clock = self.clock
        pop = heappop
        hook = self._dispatch_hook()
        processed = 0
        batches = 0
        try:
            while queue and not self._stopped:
                when = queue[0][0]
                if when > limit:
                    break
                clock._now = when  # heap order keeps this monotonic
                batches += 1
                # Group members share `when`, so one limit check at the
                # head covers the whole drain.
                while True:
                    _when, _seq, event = pop(queue)
                    processed += 1
                    if hook is not None:
                        hook(event, when, len(queue))
                    # Event._run_callbacks, inlined: one Python call per
                    # event is the difference between the fast path and a
                    # ~15% slower kernel.
                    callbacks = event._callbacks
                    event._callbacks = None
                    for callback in callbacks:
                        callback(event)
                    exc = event._exception
                    if exc is not None and not event._defused:
                        raise exc
                    if self._stopped or not queue or queue[0][0] != when:
                        break
        except StopSimulation:
            return
        finally:
            self.events_processed += processed
            self.dispatch_batches += batches
        if not self._stopped and clock._now < limit < _INF:
            clock._now = limit
    # repro-lint note: the loop above is the system's innermost hot path —
    # keep it free of per-event allocations (no-hot-path-alloc rule).

    def run_days(self, days: float) -> None:
        """Convenience: run for ``days`` simulated days from the current time."""
        self.run(until=self.clock._now + days * 86400.0)


#: Source files whose frames are skipped when attributing an enqueue to a
#: callsite: the kernel's own plumbing (schedule → Timeout.__init__ →
#: _next_key) is never the interesting frame.
import repro.sim.events as _events_mod
import repro.sim.process as _process_mod

_KERNEL_FILES = frozenset(
    {__file__, _events_mod.__file__, _process_mod.__file__}
)


def _schedule_site() -> Tuple[str, int]:
    """(file, line) of the first non-kernel frame above the enqueue."""
    frame = _sys._getframe(2)
    while frame is not None and frame.f_code.co_filename in _KERNEL_FILES:
        frame = frame.f_back
    if frame is None:
        return ("<kernel>", 0)
    return (frame.f_code.co_filename, frame.f_lineno)
