"""Tests for probe clocks and the probe command set."""

import pytest

from repro.comms.probe_radio import ProbeRadioLink
from repro.environment.glacier import GlacierModel
from repro.probes.commands import TIME_SYNC_RESIDUAL_S, ProbeCommander
from repro.probes.probe import Probe
from repro.sensors.probe_sensors import make_probe_sensor_suite
from repro.sim import Simulation
from repro.sim.simtime import DAY, HOUR


def make_rig(loss=0.0, drift_ppm=50.0, seed=111):
    sim = Simulation(seed=seed)
    glacier = GlacierModel(seed=seed)
    probe = Probe(sim, 27, make_probe_sensor_suite(glacier, 27),
                  sampling_interval_s=1800.0, lifetime_days=10_000.0,
                  clock_drift_ppm=drift_ppm)
    link = ProbeRadioLink(sim, loss_fn=lambda ts: [loss] * len(ts), name="cmd.link")
    commander = ProbeCommander(sim)
    return sim, probe, link, commander


class TestProbeClock:
    def test_starts_synced(self):
        sim, probe, _link, _commander = make_rig()
        assert probe.clock_error_s() == 0.0

    def test_drift_accumulates(self):
        sim, probe, _link, _commander = make_rig(drift_ppm=50.0)
        sim.run(until=10 * DAY)
        # 50 ppm over 10 days = 43.2 s.
        assert probe.clock_error_s() == pytest.approx(43.2, rel=1e-6)

    def test_readings_stamped_with_believed_time(self):
        sim, probe, _link, _commander = make_rig(drift_ppm=100.0)
        sim.run(until=5 * DAY)
        task = probe.task()
        last = task.readings[-1]
        # The reading's timestamp runs ahead of true time by the drift.
        true_time_of_last = sim.now - (sim.now - last.time)  # tautology guard
        assert last.time > 5 * DAY - 1800.0  # roughly the last sample slot
        expected_error = (last.time - 1800.0 * len(task.readings)) / 1e6  # loose
        assert probe.clock_error_s() > 40.0

    def test_sync_collapses_error(self):
        sim, probe, _link, _commander = make_rig(drift_ppm=50.0)
        sim.run(until=10 * DAY)
        probe.sync_clock(residual_s=0.02)
        assert probe.clock_error_s() == pytest.approx(0.02)

    def test_drift_resumes_after_sync(self):
        sim, probe, _link, _commander = make_rig(drift_ppm=50.0)
        sim.run(until=10 * DAY)
        probe.sync_clock()
        sim.run(until=11 * DAY)
        assert probe.clock_error_s() == pytest.approx(4.32, rel=1e-6)


class TestCommands:
    def test_ping_ok(self):
        sim, probe, link, commander = make_rig()
        proc = sim.process(commander.ping(probe, link))
        sim.run(until=sim.now + HOUR)
        outcome = proc.value
        assert outcome.ok and outcome.attempts == 1
        assert outcome.airtime_bytes == 24

    def test_ping_dead_probe(self):
        sim, probe, link, commander = make_rig()
        probe.dies_at = sim.now
        proc = sim.process(commander.ping(probe, link))
        sim.run(until=sim.now + HOUR)
        assert not proc.value.ok
        assert commander.commands_failed == 1

    def test_ping_total_loss_exhausts_retries(self):
        sim, probe, link, commander = make_rig(loss=1.0)
        proc = sim.process(commander.ping(probe, link))
        sim.run(until=sim.now + HOUR)
        outcome = proc.value
        assert not outcome.ok
        assert outcome.attempts == commander.retries

    def test_time_sync_fixes_clock(self):
        sim, probe, link, commander = make_rig(drift_ppm=50.0)
        sim.run(until=20 * DAY)
        assert probe.clock_error_s() > 80.0
        proc = sim.process(commander.time_sync(probe, link))
        sim.run(until=sim.now + HOUR)
        assert proc.value.ok
        # residual + one hour's renewed drift (50 ppm x 3600 s = 0.18 s)
        assert abs(probe.clock_error_s()) <= TIME_SYNC_RESIDUAL_S + 0.19

    def test_set_sampling_interval(self):
        sim, probe, link, commander = make_rig()
        proc = sim.process(commander.set_sampling_interval(probe, link, 600.0))
        sim.run(until=sim.now + HOUR)
        assert proc.value.ok
        assert probe.sampling_interval_s == 600.0

    def test_set_sampling_interval_validation(self):
        sim, probe, link, commander = make_rig()
        with pytest.raises(ValueError):
            # the generator validates eagerly enough once driven
            list(commander.set_sampling_interval(probe, link, 0.0))

    def test_failed_reconfig_leaves_interval(self):
        sim, probe, link, commander = make_rig(loss=1.0)
        before = probe.sampling_interval_s
        proc = sim.process(commander.set_sampling_interval(probe, link, 600.0))
        sim.run(until=sim.now + HOUR)
        assert not proc.value.ok
        assert probe.sampling_interval_s == before


class TestDeploymentIntegration:
    def test_daily_contact_keeps_probe_clocks_tight(self):
        from repro.core import Deployment, DeploymentConfig

        deployment = Deployment(DeploymentConfig(
            seed=112, probe_lifetimes_days=[10_000.0] * 7,
            probe_clock_drift_ppm=80.0))
        deployment.run_days(10)
        # Synced at (almost) every daily contact: errors stay under a day's
        # drift (~7 s at 80 ppm) instead of accumulating to ~70 s.
        errors = [abs(p.clock_error_s()) for p in deployment.probes]
        assert max(errors) < 15.0
        syncs = deployment.sim.trace.select(kind="clock_synced")
        assert len(syncs) >= 40  # ~7 probes x most days

    def test_sync_disabled_lets_clocks_wander(self):
        from repro.core import Deployment, DeploymentConfig

        deployment = Deployment(DeploymentConfig(
            seed=112, probe_lifetimes_days=[10_000.0] * 7,
            probe_clock_drift_ppm=80.0, probe_time_sync=False))
        deployment.run_days(10)
        errors = [abs(p.clock_error_s()) for p in deployment.probes]
        assert max(errors) > 50.0
