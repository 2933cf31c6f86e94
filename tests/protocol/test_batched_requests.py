"""Tests for batched selective requests — the remote strategy adjustment."""

import pytest

from repro.comms.probe_radio import ProbeRadioLink
from repro.environment.glacier import GlacierModel
from repro.probes.probe import Probe
from repro.protocol.bulk import BulkFetcher, FetchStrategy
from repro.sensors.probe_sensors import make_probe_sensor_suite
from repro.sim import Simulation
from repro.sim.simtime import HOUR


def make_rig(loss, n_readings, batch_size, seed=91):
    sim = Simulation(seed=seed)
    glacier = GlacierModel(seed=seed)
    probe = Probe(sim, 26, make_probe_sensor_suite(glacier, 26),
                  sampling_interval_s=10.0, lifetime_days=10_000.0)
    sim.run(until=n_readings * 10.0 + 5.0)
    link = ProbeRadioLink(sim, loss_fn=lambda ts: [loss] * len(ts), name="batch.link")
    fetcher = BulkFetcher(sim, request_batch_size=batch_size)
    return sim, probe, link, fetcher


def prefill(fetcher, probe, received_count):
    task = probe.task()
    key = (26, task.task_id)
    fetcher.received[key] = set(range(received_count))
    fetcher.store[key] = {}
    return task


def run_fetch(sim, fetcher, probe, link, budget_s=None):
    proc = sim.process(fetcher.fetch(probe, link, budget_s=budget_s))
    sim.run(until=sim.now + 6 * HOUR)
    return proc.value


class TestBatchedSelective:
    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            BulkFetcher(Simulation(), request_batch_size=0)

    def test_batched_completes_like_single(self):
        for batch in (1, 8, 32):
            sim, probe, link, fetcher = make_rig(0.0, 200, batch)
            prefill(fetcher, probe, 150)  # 50 missing
            result = run_fetch(sim, fetcher, probe, link)
            assert result.strategy is FetchStrategy.SELECTIVE
            assert result.complete, f"batch={batch}"
            assert result.received_new == 50

    def test_batching_reduces_request_airtime(self):
        """Amortised request overhead: big batches spend fewer bytes."""
        airtimes = {}
        for batch in (1, 16):
            sim, probe, link, fetcher = make_rig(0.0, 400, batch)
            prefill(fetcher, probe, 280)  # 120 missing (30% < threshold)
            result = run_fetch(sim, fetcher, probe, link)
            assert result.strategy is FetchStrategy.SELECTIVE
            airtimes[batch] = result.airtime_bytes
        assert airtimes[16] < airtimes[1]

    def test_batched_recovers_under_loss(self):
        sim, probe, link, fetcher = make_rig(0.2, 300, 16)
        prefill(fetcher, probe, 200)  # 100 missing
        result = run_fetch(sim, fetcher, probe, link)
        # Most recovered in one session despite 20% loss.
        assert result.received_new >= 80

    def test_lost_batch_request_wastes_more(self):
        """The trade-off: at very high loss a lost big-batch request
        costs a whole response window repeatedly."""
        sim, probe, link, fetcher = make_rig(1.0, 100, 32)
        prefill(fetcher, probe, 50)
        result = run_fetch(sim, fetcher, probe, link)
        assert result.received_new == 0
        assert not result.complete


class TestRemoteStrategyAdjustment:
    def test_special_command_changes_fetch_strategy(self):
        """Section V: 'Small adjustments could be made to the base station
        behaviour in order to try different strategies for retrieving
        data' — via the special-command channel."""
        from repro.core import Deployment, DeploymentConfig

        deployment = Deployment(DeploymentConfig(
            seed=92, probe_lifetimes_days=[10_000.0] * 7))
        assert deployment.base.fetcher.request_batch_size == 1  # deployed default
        deployment.run_days(1)

        def adjust():
            deployment.base.fetcher.request_batch_size = 16
            return "fetch strategy: batch=16"

        deployment.server.stage_special("base", adjust)
        deployment.run_days(1)
        assert deployment.base.fetcher.request_batch_size == 16
        # The adjustment's output goes home in the next day's log.
        deployment.run_days(1)
        outputs = [
            entry["output"]
            for u in deployment.server.uploads
            if u.station == "base" and u.kind == "logs" and u.payload
            for entry in u.payload.get("special_outputs", [])
        ]
        assert "fetch strategy: batch=16" in outputs
