"""The subglacial probe: sampling, buffering and the task life-cycle.

A probe samples its sensor suite on a fixed interval and buffers the
readings.  When the base station opens a session, the buffered readings are
frozen into a *task*; the task stays outstanding — and its readings stay in
probe memory — until the base confirms it holds every reading.  That is the
property that saved the 2009 summer fetch: "the task was not marked as
complete in the probes; so many missing readings were obtained in
subsequent days" (Section V).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.probes.reliability import sample_lifetime_days
from repro.protocol.framing import Reading, TaskSnapshot
from repro.sensors.base import Sensor
from repro.sim.kernel import Simulation
from repro.sim.simtime import DAY, MINUTE


class Probe:
    """One subglacial probe.

    Parameters
    ----------
    sim:
        Kernel.
    probe_id:
        Probe number (the paper's figures use 21, 24, 25).
    sensors:
        Sensor suite (see :func:`repro.sensors.make_probe_sensor_suite`).
    sampling_interval_s:
        Measurement period.  At the 30-minute default a probe accumulates
        ~3000 readings in two months offline — the Section V scenario.
    lifetime_days:
        Fixed lifetime, or ``None`` to draw from the paper-calibrated
        Weibull (stream ``probe.<id>.lifetime``).
    clock_drift_ppm:
        The probe's cheap oscillator drift.  Readings are stamped with the
        probe's *believed* time, so an unsynchronised probe's data slides
        off the true timeline — the reason the base station must keep the
        probes synchronised ("The RTC has to be corrected for
        synchronisation with the probes", Section IV).

    Sampling is deferred: sensors are pure functions of time and the
    believed-time stamp is linear between clock syncs, so the fixed-cadence
    sample loop costs **zero kernel events** — the buffer is synthesised
    retroactively, just before any interaction that observes it
    (:meth:`task`, :attr:`buffered_count`, :meth:`sync_clock`, an interval
    change).  ``tests/probes/test_deferred_sampling.py`` checks the
    readings bitwise against a one-event-per-sample loop.
    """

    def __init__(
        self,
        sim: Simulation,
        probe_id: int,
        sensors: List[Sensor],
        sampling_interval_s: float = 30.0 * MINUTE,
        lifetime_days: Optional[float] = None,
        clock_drift_ppm: float = 0.0,
    ) -> None:
        self.sim = sim
        self.probe_id = probe_id
        self.sensors = sensors
        self._sampling_interval_s = sampling_interval_s
        self.clock_drift_ppm = clock_drift_ppm
        self._clock_synced_at = sim.now
        self._clock_error_at_sync = 0.0
        if lifetime_days is None:
            rng = sim.rng.stream(f"probe.{probe_id}.lifetime")
            lifetime_days = sample_lifetime_days(rng)
        self.dies_at = sim.now + lifetime_days * DAY
        #: Untasked samples as ``(believed time, channels)`` rows; each
        #: becomes a :class:`Reading` once, when :meth:`task` numbers it.
        self._buffer: List[Tuple[float, Dict[str, float]]] = []
        self._active_task: Optional[TaskSnapshot] = None
        self._next_task_id = 1
        self.tasks_completed = 0
        self._readings_taken = 0
        #: Next due sample instant (the wake a one-event-per-sample loop
        #: would have armed).
        self._next_sample_at = sim.now + sampling_interval_s

    # ------------------------------------------------------------------
    # Life and death
    # ------------------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """Whether the probe still responds (power/electronics intact)."""
        return self.sim.now < self.dies_at

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def clock_error_s(self) -> float:
        """Believed-minus-true time, seconds (drift since the last sync)."""
        elapsed = self.sim.now - self._clock_synced_at
        return self._clock_error_at_sync + elapsed * self.clock_drift_ppm * 1e-6

    def believed_time(self) -> float:
        """The probe's own idea of the current time."""
        return self.sim.now + self.clock_error_s()

    def sync_clock(self, residual_s: float = 0.0) -> None:
        """Time-sync from the base station (over the probe radio).

        ``residual_s`` is the sync protocol's own accuracy limit.
        Pending deferred samples are materialised first: their believed
        times belong to the *old* sync epoch.
        """
        self._materialise(self.sim.now)
        self._clock_synced_at = self.sim.now
        self._clock_error_at_sync = residual_s
        self.sim.trace.emit(f"probe.{self.probe_id}", "clock_synced")

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    @property
    def sampling_interval_s(self) -> float:
        """Measurement period; settable remotely (probe command)."""
        return self._sampling_interval_s

    @sampling_interval_s.setter
    def sampling_interval_s(self, interval_s: float) -> None:
        # The already-armed next wake keeps the old cadence (exactly what
        # a sample loop does — its pending timeout is not rescheduled);
        # samples after it follow the new interval.  Materialise first so
        # no pending sample is synthesised with the new cadence.
        self._materialise(self.sim.now)
        self._sampling_interval_s = interval_s

    def _materialise(self, up_to: float) -> None:
        """Synthesise every sample due at or before ``up_to``.

        Sample instants, sensor values and believed-time stamps are all
        pure functions of time and of state that is constant between
        state-observing interactions, so generating them lazily is
        observationally identical to a per-sample loop — minus one kernel
        event (and heap churn) per sample.  The due instants form one
        column, measured with one :meth:`Sensor.sample_many` call per
        sensor.

        Tie convention: a sample due *exactly* at the observation instant
        is included (``t <= up_to``).  In a per-sample loop that instant is
        a same-timestamp tie whose order depends on the kernel tie-break
        policy; here it is resolved deterministically, consistent with
        ``run(until=T)`` processing events at exactly ``T``.
        """
        t = self._next_sample_at
        if t > up_to:
            return
        interval = self._sampling_interval_s
        dies_at = self.dies_at
        times = []
        while t <= up_to:
            if t >= dies_at:
                # Sampling stops for good at the first wake past death.
                t = float("inf")
                break
            times.append(t)
            t += interval
        self._next_sample_at = t
        if not times:
            return
        self._readings_taken += len(times)
        ppm = self.clock_drift_ppm
        synced_at = self._clock_synced_at
        error_at_sync = self._clock_error_at_sync
        # Same float associativity as believed_time()/clock_error_s(),
        # so stamps are bitwise equal to a per-sample believed_time().
        stamps = [t + (error_at_sync + (t - synced_at) * ppm * 1e-6) for t in times]
        names = [sensor.name for sensor in self.sensors]
        columns = [sensor.sample_many(times) for sensor in self.sensors]
        rows = zip(*columns) if columns else [()] * len(times)
        self._buffer.extend(zip(stamps, [dict(zip(names, row)) for row in rows]))

    @property
    def readings_taken(self) -> int:
        """Samples taken so far (materialises pending samples)."""
        self._materialise(self.sim.now)
        return self._readings_taken

    @property
    def buffered_count(self) -> int:
        """Readings waiting to be bundled into the next task."""
        self._materialise(self.sim.now)
        return len(self._buffer)

    # ------------------------------------------------------------------
    # Task life-cycle (the protocol's probe endpoint)
    # ------------------------------------------------------------------
    def task(self) -> Optional[TaskSnapshot]:
        """The outstanding task, creating one from the buffer if needed.

        Returns ``None`` when the probe is dead or has nothing to send.
        """
        if not self.is_alive:
            return None
        self._materialise(self.sim.now)
        if self._active_task is None:
            if not self._buffer:
                return None
            probe_id = self.probe_id
            readings = [
                Reading(probe_id, seq, time, channels)
                for seq, (time, channels) in enumerate(self._buffer)
            ]
            self._active_task = TaskSnapshot(task_id=self._next_task_id, readings=readings)
            self._next_task_id += 1
            self._buffer = []
            # Readings become trackable artifacts at the instant the task
            # freezes their sequence numbers (the "prov" source is never
            # matched by station log-volume queries, so this cannot perturb
            # simulated behaviour).
            self.sim.trace.emit(
                "prov", "created", cls="reading", probe=self.probe_id,
                task=self._active_task.task_id, first_seq=0,
                count=len(readings))
        return self._active_task

    def mark_complete(self, task_id: int) -> None:
        """Retire the task: the base station holds every reading."""
        if self._active_task is None or self._active_task.task_id != task_id:
            return  # stale confirmation; ignore (idempotent)
        self._active_task = None
        self.tasks_completed += 1
        self.sim.trace.emit(f"probe.{self.probe_id}", "task_complete", task=task_id)


class WiredProbe:
    """The wired probe: the base station's single-point-of-failure antenna.

    Probe radio traffic passes through one wired probe; when it fails, the
    base cannot talk to any probe ("the failure of the wired probe",
    Section V — using several was ruled out "because of the lack of serial
    ports").
    """

    def __init__(self, sim: Simulation, lifetime_days: Optional[float] = None) -> None:
        self.sim = sim
        if lifetime_days is None:
            self.dies_at = float("inf")
        else:
            self.dies_at = sim.now + lifetime_days * DAY
        self.repaired_at: Optional[float] = None

    @property
    def is_alive(self) -> bool:
        """Whether probe communications are possible at all."""
        if self.repaired_at is not None and self.sim.now >= self.repaired_at:
            return True
        return self.sim.now < self.dies_at

    def fail_now(self) -> None:
        """Force an immediate failure (deep-snow damage scenario)."""
        self.dies_at = min(self.dies_at, self.sim.now)
        self.repaired_at = None

    def schedule_repair(self, at_time: float) -> None:
        """A field visit replaces the wired probe at ``at_time``."""
        self.repaired_at = at_time
