"""Tests for the probe radio link: loss, corruption, timing, statistics."""

import pytest

from repro.comms.probe_radio import PacketOutcome, ProbeRadioLink
from repro.environment.glacier import GlacierModel
from repro.sim import Simulation
from repro.sim.simtime import DAY, HOUR


@pytest.fixture
def sim():
    return Simulation(seed=61)


def send_many(sim, link, count, payload=30):
    outcomes = []

    def sender(sim):
        for _ in range(count):
            outcome = yield sim.process(link.transmit_detailed(payload))
            outcomes.append(outcome)

    sim.process(sender(sim))
    sim.run(until=sim.now + 12 * HOUR)
    return outcomes


class TestPacketTiming:
    def test_packet_time_includes_overhead_and_turnaround(self, sim):
        link = ProbeRadioLink(sim, loss_fn=lambda ts: [0.0] * len(ts))
        # (30 + 8) bytes at 9600 bps + 50 ms turnaround.
        assert link.packet_time_s(30) == pytest.approx(38 * 8 / 9600.0 + 0.05)

    def test_transmit_consumes_airtime(self, sim):
        link = ProbeRadioLink(sim, loss_fn=lambda ts: [0.0] * len(ts))
        proc = sim.process(link.transmit(30))
        sim.run(until=HOUR)
        assert sim.trace.clock is not None  # smoke: ran
        assert proc.value is True


class TestOutcomes:
    def test_perfect_link_delivers_everything(self, sim):
        link = ProbeRadioLink(sim, loss_fn=lambda ts: [0.0] * len(ts))
        outcomes = send_many(sim, link, 200)
        assert all(o is PacketOutcome.DELIVERED for o in outcomes)
        assert link.packets_lost == 0 and link.packets_broken == 0

    def test_total_blackout_loses_everything(self, sim):
        link = ProbeRadioLink(sim, loss_fn=lambda ts: [1.0] * len(ts))
        outcomes = send_many(sim, link, 50)
        assert all(o is PacketOutcome.LOST for o in outcomes)

    def test_loss_rate_matches_configuration(self, sim):
        link = ProbeRadioLink(sim, loss_fn=lambda ts: [0.2] * len(ts))
        send_many(sim, link, 2000)
        assert link.observed_loss_rate == pytest.approx(0.2, abs=0.03)

    def test_broken_packets_counted_separately(self, sim):
        link = ProbeRadioLink(sim, loss_fn=lambda ts: [0.1] * len(ts), corruption_probability=0.1)
        outcomes = send_many(sim, link, 2000)
        broken = sum(1 for o in outcomes if o is PacketOutcome.BROKEN)
        lost = sum(1 for o in outcomes if o is PacketOutcome.LOST)
        assert link.packets_broken == broken > 50
        assert link.packets_lost == lost > 100
        # Corruption applies only to packets that arrived.
        assert broken / (2000 - lost) == pytest.approx(0.1, abs=0.03)

    def test_boolean_transmit_counts_broken_as_failure(self, sim):
        link = ProbeRadioLink(sim, loss_fn=lambda ts: [0.0] * len(ts), corruption_probability=1.0)
        proc = sim.process(link.transmit(30))
        sim.run(until=HOUR)
        assert proc.value is False
        assert link.packets_broken == 1

    def test_outcome_ok_property(self):
        assert PacketOutcome.DELIVERED.ok
        assert not PacketOutcome.LOST.ok
        assert not PacketOutcome.BROKEN.ok


class TestSeasonalCoupling:
    def test_glacier_driven_loss_varies_with_season(self, sim):
        glacier = GlacierModel(seed=61)
        link = ProbeRadioLink(sim, loss_fn=glacier.probe_radio_loss)
        winter = from_summer = None
        # Advance the sim to mid-winter and mid-summer and compare.
        sim.run(until=130 * DAY)  # ~January
        winter = link.current_loss()
        sim.run(until=300 * DAY)  # ~late June
        from_summer = link.current_loss()
        assert from_summer > winter * 3

    def test_observed_loss_empty_link(self, sim):
        link = ProbeRadioLink(sim, loss_fn=lambda ts: [0.5] * len(ts))
        assert link.observed_loss_rate == 0.0
