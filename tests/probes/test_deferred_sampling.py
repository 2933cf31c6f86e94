"""Deferred-vs-eager probe sampling equivalence.

:class:`~repro.probes.probe.Probe` synthesises fixed-cadence samples
lazily, costing zero kernel events; the test-only
:class:`~tests.probes.eager_probe.EagerProbe` runs the one-event-per-sample
loop and is the oracle.  Sensors are pure functions of time and the
believed-time stamp is linear between clock syncs, so the two must
produce *bitwise identical* readings — this suite pins that, including
under drift, re-sync, interval changes and probe death.
"""

import pytest

from repro.environment.glacier import GlacierModel
from repro.probes.probe import Probe
from repro.sensors.probe_sensors import make_probe_sensor_suite
from repro.sim import Simulation
from repro.sim.simtime import DAY, HOUR, MINUTE
from tests.probes.eager_probe import EagerProbe


def make_probe(sim, defer, probe_id=21, lifetime_days=1000.0,
               interval=30 * MINUTE, drift_ppm=0.0, seed=19):
    glacier = GlacierModel(seed=seed)
    probe_cls = Probe if defer else EagerProbe
    return probe_cls(
        sim, probe_id=probe_id,
        sensors=make_probe_sensor_suite(glacier, probe_id),
        sampling_interval_s=interval, lifetime_days=lifetime_days,
        clock_drift_ppm=drift_ppm,
    )


def reading_tuples(probe):
    task = probe.task()
    if task is None:
        return []
    return [(r.probe_id, r.seq, r.time, tuple(sorted(r.channels.items())))
            for r in task.readings]


def run_pair(script, **probe_kwargs):
    """Run ``script(sim, probe)`` on an eager then a deferred probe."""
    out = []
    for defer in (False, True):
        sim = Simulation(seed=19)
        probe = make_probe(sim, defer, **probe_kwargs)
        script(sim, probe)
        out.append(probe)
    return out


class TestBitwiseEquality:
    def test_plain_run_identical_readings(self):
        def script(sim, probe):
            sim.run(until=3 * DAY)

        eager, deferred = run_pair(script)
        assert reading_tuples(eager) == reading_tuples(deferred)
        assert eager.readings_taken == deferred.readings_taken == 144

    def test_drift_stamps_identical(self):
        def script(sim, probe):
            sim.run(until=5 * DAY)

        eager, deferred = run_pair(script, drift_ppm=25.0)
        tuples_e, tuples_d = reading_tuples(eager), reading_tuples(deferred)
        assert tuples_e == tuples_d
        # Drift actually showed up in the stamps (believed != true time):
        # 240 samples, the last taken at 5 days and stamped
        # 5 * DAY * (1 + 25 ppm) = 432010.8 s.
        assert len(tuples_e) == 240
        assert tuples_e[-1][2] == pytest.approx(5 * DAY * (1 + 25e-6), abs=1e-6)
        assert any(t != s for (_, _, t, _), s in
                   zip(tuples_e, [i * 1800.0 for i in range(1, 241)]))

    def test_mid_run_clock_sync_identical(self):
        def script(sim, probe):
            def syncer(sim):
                yield sim.timeout(2 * DAY + 13 * MINUTE)
                probe.sync_clock(residual_s=0.004)
            sim.process(syncer(sim))
            sim.run(until=4 * DAY)

        eager, deferred = run_pair(script, drift_ppm=25.0)
        assert reading_tuples(eager) == reading_tuples(deferred)

    def test_interval_change_identical(self):
        """A remote cadence command mid-mission: the pending wake keeps the
        old cadence; later samples follow the new interval."""
        def script(sim, probe):
            def commander(sim):
                yield sim.timeout(DAY + 17 * MINUTE)
                probe.sampling_interval_s = 10 * MINUTE
            sim.process(commander(sim))
            sim.run(until=2 * DAY)

        eager, deferred = run_pair(script)
        assert reading_tuples(eager) == reading_tuples(deferred)

    def test_death_identical(self):
        def script(sim, probe):
            sim.run(until=6 * DAY)

        eager, deferred = run_pair(script, lifetime_days=2.3)
        assert reading_tuples(eager) == reading_tuples(deferred)
        assert eager.readings_taken == deferred.readings_taken
        # Sampling stopped at death, not at the horizon.
        assert eager.readings_taken < 6 * 48

    def test_death_on_exact_sample_instant(self):
        """The eager loop checks is_alive at the wake: a wake exactly at
        ``dies_at`` takes no sample.  lifetime 1 day = wake 48."""
        def script(sim, probe):
            sim.run(until=3 * DAY)

        eager, deferred = run_pair(script, lifetime_days=1.0)
        assert eager.readings_taken == deferred.readings_taken == 47
        assert reading_tuples(eager) == reading_tuples(deferred)

    def test_task_snapshot_mid_interval_identical(self):
        """Freezing the task between sample instants sees the same buffer."""
        def script(sim, probe):
            sim.run(until=DAY + 11 * MINUTE)

        eager, deferred = run_pair(script)
        assert reading_tuples(eager) == reading_tuples(deferred)
        assert deferred.buffered_count == eager.buffered_count == 0

    def test_second_task_after_completion_identical(self):
        def script(sim, probe):
            def base(sim):
                # Off the sample cadence: at an exact due instant the eager
                # loop's order vs the observer is a tie-break race (the
                # deferred convention is sample-first; see _materialise).
                yield sim.timeout(DAY + MINUTE)
                task = probe.task()
                probe.mark_complete(task.task_id)
                yield sim.timeout(DAY)
                probe.task()
            sim.process(base(sim))
            sim.run(until=2 * DAY + HOUR)

        eager, deferred = run_pair(script)
        assert reading_tuples(eager) == reading_tuples(deferred)
        assert eager.tasks_completed == deferred.tasks_completed == 1


class TestDeferredMechanics:
    def test_deferred_probe_schedules_no_kernel_events(self):
        sim = Simulation(seed=19)
        make_probe(sim, defer=True)
        sim.run(until=30 * DAY)
        # Nothing else lives in this sim: the heap stays empty.
        assert sim.events_processed == 0

    def test_eager_probe_costs_one_event_per_sample(self):
        sim = Simulation(seed=19)
        make_probe(sim, defer=False)
        sim.run(until=DAY)
        assert sim.events_processed >= 48

    def test_observation_before_first_sample_is_empty(self):
        sim = Simulation(seed=19)
        probe = make_probe(sim, defer=True)
        sim.run(until=10 * MINUTE)
        assert probe.buffered_count == 0
        assert probe.task() is None

    def test_repeated_observation_does_not_duplicate(self):
        sim = Simulation(seed=19)
        probe = make_probe(sim, defer=True)
        sim.run(until=DAY)
        assert probe.buffered_count == 48
        assert probe.buffered_count == 48
        assert probe.readings_taken == 48

    def test_interval_setter_materialises_first(self):
        sim = Simulation(seed=19)
        probe = make_probe(sim, defer=True)
        sim.run(until=DAY + MINUTE)
        probe.sampling_interval_s = HOUR
        # The 48 pre-change samples kept the 30-minute cadence.
        assert probe.buffered_count == 48
        sim.run(until=sim.now + 4 * HOUR)
        # Pending wake (old cadence) + subsequent hourly samples.
        assert probe.buffered_count == 48 + 4
