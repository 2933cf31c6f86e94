"""Tests for the NACK-free bulk transfer protocol (Section V)."""

import pytest

from repro.comms.probe_radio import ProbeRadioLink
from repro.environment.glacier import GlacierModel
from repro.probes.probe import Probe
from repro.protocol.bulk import BulkFetcher, FetchStrategy
from repro.sensors.probe_sensors import make_probe_sensor_suite
from repro.sim import Simulation
from repro.sim.simtime import DAY, HOUR, MINUTE


def make_rig(loss=0.0, n_readings=100, seed=17):
    sim = Simulation(seed=seed)
    glacier = GlacierModel(seed=seed)
    probe = Probe(
        sim,
        probe_id=21,
        sensors=make_probe_sensor_suite(glacier, 21),
        sampling_interval_s=10.0,
        lifetime_days=10_000.0,
    )
    link = ProbeRadioLink(sim, loss_fn=lambda ts: [loss] * len(ts), name="test.link")
    fetcher = BulkFetcher(sim)
    # accumulate n_readings
    sim.run(until=n_readings * 10.0 + 5.0)
    assert probe.buffered_count == n_readings
    return sim, probe, link, fetcher


def run_fetch(sim, fetcher, probe, link, budget_s=None):
    proc = sim.process(fetcher.fetch(probe, link, budget_s=budget_s))
    sim.run(until=sim.now + 4 * HOUR)
    return proc.value


class TestLosslessFetch:
    def test_single_session_completes(self):
        sim, probe, link, fetcher = make_rig(loss=0.0)
        result = run_fetch(sim, fetcher, probe, link)
        assert result.complete
        assert result.strategy is FetchStrategy.STREAM
        assert result.received_new == 100
        assert result.missing_after == 0
        assert probe.tasks_completed == 1

    def test_readings_are_stored(self):
        sim, probe, link, fetcher = make_rig(loss=0.0, n_readings=20)
        result = run_fetch(sim, fetcher, probe, link)
        held = fetcher.holdings(21, result.task_id)
        assert len(held) == 20
        assert all("conductivity_us" in r.channels for r in held.values())

    def test_empty_probe_reports_complete(self):
        sim, probe, link, fetcher = make_rig(loss=0.0, n_readings=0)
        # no wait: buffer empty
        result = run_fetch(sim, fetcher, probe, link)
        assert result.complete
        assert result.total == 0

    def test_no_ack_airtime_in_stream(self):
        """NACK-free: the stream phase carries only data packets."""
        sim, probe, link, fetcher = make_rig(loss=0.0, n_readings=50)
        result = run_fetch(sim, fetcher, probe, link)
        # control: 2 exchanges x 2 packets x 8 B = 32 B; the rest is data.
        data_bytes = result.airtime_bytes - 32
        assert data_bytes == 50 * (24 + 6)


class TestLossyFetch:
    def test_lossy_stream_leaves_missing_then_selective_recovers(self):
        sim, probe, link, fetcher = make_rig(loss=0.15)
        first = run_fetch(sim, fetcher, probe, link)
        assert first.strategy is FetchStrategy.STREAM
        assert 0 < first.missing_after < 50
        if not first.complete:
            second = run_fetch(sim, fetcher, probe, link)
            assert second.strategy is FetchStrategy.SELECTIVE
            # Selective phase retries each missing reading; at 15% loss it
            # almost always finishes the job.
            assert second.missing_after <= first.missing_after

    def test_eventual_completion_over_days(self):
        sim, probe, link, fetcher = make_rig(loss=0.25, n_readings=200)
        sessions = 0
        while probe.tasks_completed == 0 and sessions < 10:
            run_fetch(sim, fetcher, probe, link)
            sessions += 1
        assert probe.tasks_completed == 1
        assert sessions >= 1

    def test_summer_anchor_about_400_of_3000_missed(self):
        """Section V: 3000 readings over the summer link -> ~400 missed."""
        sim, probe, link, fetcher = make_rig(loss=400.0 / 3000.0, n_readings=3000, seed=5)
        result = run_fetch(sim, fetcher, probe, link, budget_s=2 * HOUR)
        assert result.strategy is FetchStrategy.STREAM
        assert 300 < result.missing_after < 520

    def test_refetch_all_heuristic(self):
        """With most of the task missing, stream again instead of
        requesting thousands of individual readings."""
        sim, probe, link, fetcher = make_rig(loss=0.0, n_readings=100)
        task = probe.task()
        key = (21, task.task_id)
        # Pretend a previous day received only 10 readings.
        fetcher.received[key] = set(range(10))
        fetcher.store[key] = {}
        result = run_fetch(sim, fetcher, probe, link)
        assert result.strategy is FetchStrategy.STREAM

    def test_selective_when_few_missing(self):
        sim, probe, link, fetcher = make_rig(loss=0.0, n_readings=100)
        task = probe.task()
        key = (21, task.task_id)
        fetcher.received[key] = set(range(90))  # only 10 missing
        fetcher.store[key] = {}
        result = run_fetch(sim, fetcher, probe, link)
        assert result.strategy is FetchStrategy.SELECTIVE
        assert result.complete

    def test_budget_cuts_session_but_keeps_progress(self):
        sim, probe, link, fetcher = make_rig(loss=0.0, n_readings=3000)
        tiny_budget = 30.0  # seconds: nowhere near enough for 3000 readings
        result = run_fetch(sim, fetcher, probe, link, budget_s=tiny_budget)
        assert not result.complete
        assert 0 < result.received_new < 3000
        # Next session picks up from the recorded state.
        second = run_fetch(sim, fetcher, probe, link)
        assert second.complete
        assert second.received_new == 3000 - result.received_new

    def test_dead_probe_yields_no_task(self):
        sim, probe, link, fetcher = make_rig(loss=0.0, n_readings=10)
        probe.dies_at = sim.now  # dies right now
        result = run_fetch(sim, fetcher, probe, link)
        assert result.complete  # nothing outstanding
        assert result.total == 0

    def test_total_blackout_fails_control_phase(self):
        sim, probe, link, fetcher = make_rig(loss=1.0, n_readings=10)
        result = run_fetch(sim, fetcher, probe, link)
        assert result.strategy is FetchStrategy.NONE
        assert result.received_new == 0
        assert not result.complete


class TestInvariants:
    def test_invalid_refetch_fraction(self):
        sim = Simulation()
        with pytest.raises(ValueError):
            BulkFetcher(sim, refetch_all_fraction=0.0)

    def test_no_duplicate_deliveries_counted(self):
        sim, probe, link, fetcher = make_rig(loss=0.3, n_readings=100)
        total_new = 0
        for _ in range(8):
            result = run_fetch(sim, fetcher, probe, link)
            total_new += result.received_new
            if result.complete:
                break
        assert total_new == 100  # every reading counted exactly once
