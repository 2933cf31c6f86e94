"""Tests for the stop-and-wait baseline and the protocol comparison."""

import pytest

from repro.comms.probe_radio import ProbeRadioLink
from repro.environment.glacier import GlacierModel
from repro.probes.probe import Probe
from repro.protocol.bulk import BulkFetcher
from repro.protocol.stopwait import StopWaitFetcher
from repro.sensors.probe_sensors import make_probe_sensor_suite
from repro.sim import Simulation
from repro.sim.simtime import HOUR


def make_probe(sim, n_readings, seed=9):
    glacier = GlacierModel(seed=seed)
    probe = Probe(
        sim, probe_id=24, sensors=make_probe_sensor_suite(glacier, 24),
        sampling_interval_s=10.0, lifetime_days=10_000.0,
    )
    sim.run(until=sim.now + n_readings * 10.0 + 5.0)
    assert probe.buffered_count == n_readings
    return probe


class TestStopWait:
    def test_lossless_delivery(self):
        sim = Simulation(seed=2)
        probe = make_probe(sim, 50)
        link = ProbeRadioLink(sim, loss_fn=lambda ts: [0.0] * len(ts), name="sw.link")
        fetcher = StopWaitFetcher(sim)
        proc = sim.process(fetcher.fetch(probe, link))
        sim.run(until=sim.now + 2 * HOUR)
        result = proc.value
        assert result.complete
        assert result.delivered == 50
        assert probe.tasks_completed == 1

    def test_ack_airtime_overhead(self):
        sim = Simulation(seed=2)
        probe = make_probe(sim, 50)
        link = ProbeRadioLink(sim, loss_fn=lambda ts: [0.0] * len(ts), name="sw.link")
        fetcher = StopWaitFetcher(sim)
        proc = sim.process(fetcher.fetch(probe, link))
        sim.run(until=sim.now + 2 * HOUR)
        # 50 x (30 B data + 8 B ack)
        assert proc.value.airtime_bytes == 50 * 38

    def test_lossy_link_leaves_failures(self):
        sim = Simulation(seed=2)
        probe = make_probe(sim, 200)
        link = ProbeRadioLink(sim, loss_fn=lambda ts: [0.35] * len(ts), name="sw.link")
        fetcher = StopWaitFetcher(sim, retries_per_reading=2)
        proc = sim.process(fetcher.fetch(probe, link))
        sim.run(until=sim.now + 6 * HOUR)
        result = proc.value
        assert result.failed > 0
        assert not result.complete
        assert probe.tasks_completed == 0

    def test_lost_data_packet_costs_no_ack_leg(self):
        """When the DATA packet never arrives, no receiver exists to send
        an ACK: the retry must not charge ACK airtime or roll ACK loss
        (the accounting bug this pins down)."""
        n, retries = 5, 3
        sim = Simulation(seed=2)
        probe = make_probe(sim, n)
        link = ProbeRadioLink(sim, loss_fn=lambda ts: [1.0] * len(ts), name="sw.link")
        fetcher = StopWaitFetcher(sim, retries_per_reading=retries)
        proc = sim.process(fetcher.fetch(probe, link))
        sim.run(until=sim.now + 2 * HOUR)
        result = proc.value
        assert result.delivered == 0
        assert result.failed == n
        assert result.truncated == 0
        # 30 B DATA per attempt, zero ACK bytes, one loss roll per attempt.
        assert result.airtime_bytes == n * retries * 30
        assert link.packets_sent == n * retries

    def test_budget_expiry_mid_retry_counts_truncated_not_failed(self):
        """A reading abandoned because the session clock ran out is not a
        protocol loss; it lands in ``truncated``, never ``failed``."""
        sim = Simulation(seed=2)
        probe = make_probe(sim, 3)
        link = ProbeRadioLink(sim, loss_fn=lambda ts: [1.0] * len(ts), name="sw.link")
        fetcher = StopWaitFetcher(sim, retries_per_reading=5)
        # One full retry cycle is 5 x ((30+8)*8/9600 + 0.05) ~ 0.408 s:
        # reading 1 exhausts its retries (failed), reading 2 starts but the
        # budget expires mid-retry (truncated), reading 3 never starts.
        proc = sim.process(fetcher.fetch(probe, link, budget_s=0.5))
        sim.run(until=sim.now + HOUR)
        result = proc.value
        assert result.delivered == 0
        assert result.failed == 1
        assert result.truncated == 1
        assert not result.complete

    def test_truncated_defaults_to_zero_on_clean_sessions(self):
        sim = Simulation(seed=2)
        probe = make_probe(sim, 20)
        link = ProbeRadioLink(sim, loss_fn=lambda ts: [0.0] * len(ts), name="sw.link")
        fetcher = StopWaitFetcher(sim)
        proc = sim.process(fetcher.fetch(probe, link))
        sim.run(until=sim.now + 2 * HOUR)
        assert proc.value.truncated == 0
        assert proc.value.complete

    def test_budget_bounds_session(self):
        sim = Simulation(seed=2)
        probe = make_probe(sim, 3000)
        link = ProbeRadioLink(sim, loss_fn=lambda ts: [0.0] * len(ts), name="sw.link")
        fetcher = StopWaitFetcher(sim)
        proc = sim.process(fetcher.fetch(probe, link, budget_s=30.0))
        sim.run(until=sim.now + 2 * HOUR)
        result = proc.value
        assert not result.complete
        assert 0 < result.delivered < 3000


class TestProtocolComparison:
    """The E14 ablation in miniature: NACK-free vs stop-and-wait."""

    @pytest.mark.parametrize("loss", [0.0, 0.13])
    def test_bulk_uses_less_airtime(self, loss):
        n = 300

        sim_a = Simulation(seed=3)
        probe_a = make_probe(sim_a, n)
        link_a = ProbeRadioLink(sim_a, loss_fn=lambda ts: [loss] * len(ts), name="a.link")
        bulk = BulkFetcher(sim_a)
        bulk_bytes = 0
        for _ in range(6):
            proc = sim_a.process(bulk.fetch(probe_a, link_a))
            sim_a.run(until=sim_a.now + 4 * HOUR)
            bulk_bytes += proc.value.airtime_bytes
            if proc.value.complete:
                break
        assert probe_a.tasks_completed == 1

        sim_b = Simulation(seed=3)
        probe_b = make_probe(sim_b, n)
        link_b = ProbeRadioLink(sim_b, loss_fn=lambda ts: [loss] * len(ts), name="b.link")
        stopwait = StopWaitFetcher(sim_b, retries_per_reading=8)
        proc_b = sim_b.process(stopwait.fetch(probe_b, link_b))
        sim_b.run(until=sim_b.now + 8 * HOUR)

        assert bulk_bytes < proc_b.value.airtime_bytes
