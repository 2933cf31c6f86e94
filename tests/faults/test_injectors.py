"""Injector unit tests: wrapper semantics against small component rigs."""

import pytest

from repro.comms.link import LinkDown
from repro.comms.probe_radio import ProbeRadioLink
from repro.energy.battery import Battery, BatteryConfig
from repro.energy.bus import PowerBus
from repro.faults.injectors import (
    GprsOutageInjector,
    ProbeLossInjector,
    ServerOutageInjector,
    inject_battery_drain,
    inject_rtc_fault,
    inject_storage_corruption,
)
from repro.hardware.rtc import RealTimeClock
from repro.hardware.storage import CompactFlashCard, StorageCorruption
from repro.server.fleet import ServerFleet
from repro.sim import Simulation


class _StubModem:
    """Just the failure-model surface the GPRS injector wraps."""

    def available(self, time):
        return True

    def drop_hazard_per_s(self, time):
        return 1e-5


def _faults_records(sim, kind=None):
    out = [r for r in sim.trace.records if r.source == "faults"]
    if kind is not None:
        out = [r for r in out if r.kind == kind]
    return out


class TestGprsOutageInjector:
    def test_window_blackholes_and_restores(self):
        sim = Simulation(seed=1)
        modem = _StubModem()
        GprsOutageInjector(sim, "base", modem, [(100.0, 200.0)])
        assert modem.available(50.0) is True
        assert modem.available(100.0) is False
        assert modem.available(199.9) is False
        assert modem.available(200.0) is True
        assert modem.drop_hazard_per_s(150.0) == 1.0
        assert modem.drop_hazard_per_s(250.0) == pytest.approx(1e-5)

    def test_edges_announced_on_trace(self):
        sim = Simulation(seed=1)
        GprsOutageInjector(sim, "base", _StubModem(), [(100.0, 200.0)])
        sim.run(until=300.0)
        injected = _faults_records(sim, "fault_injected")
        cleared = _faults_records(sim, "fault_cleared")
        assert [(r.time, r.detail["fault"]) for r in injected] == [
            (100.0, "gprs-outage")]
        assert injected[0].detail["until"] == 200.0
        assert [(r.time, r.detail["fault"]) for r in cleared] == [
            (200.0, "gprs-outage")]
        counter = sim.obs.metrics.counter(
            "faults_injected_total", station="base", kind="gprs-outage")
        assert counter.value == 1


class TestProbeLossInjector:
    def test_additive_spike_clamped(self):
        sim = Simulation(seed=2)
        link = ProbeRadioLink(sim, loss_fn=lambda ts: [0.4] * len(ts))
        ProbeLossInjector(sim, "base", [link], [(0.0, 100.0, 0.5)])
        assert link.loss_fn([50.0]) == pytest.approx([0.9])
        assert link.loss_fn([150.0]) == pytest.approx([0.4])

    def test_overlapping_windows_take_max_not_sum(self):
        sim = Simulation(seed=2)
        link = ProbeRadioLink(sim, loss_fn=lambda ts: [0.0] * len(ts))
        ProbeLossInjector(sim, "base", [link],
                          [(0.0, 100.0, 0.3), (50.0, 150.0, 0.6)])
        assert link.loss_fn([75.0]) == pytest.approx([0.6])
        assert link.loss_fn([25.0]) == pytest.approx([0.3])
        assert link.loss_fn([125.0]) == pytest.approx([0.6])

    def test_spike_opening_mid_burst_matches_per_packet_sends(self):
        # A 200-packet burst spans ~13 s of airtime; the spike opens after
        # ~75 packets and closes ~60 packets later, inside the same burst.
        window = [(5.0, 9.0, 0.6)]

        def rig():
            sim = Simulation(seed=7)
            link = ProbeRadioLink(sim, loss_fn=lambda ts: [0.1] * len(ts),
                                  name="spike.link", corruption_probability=0.05)
            ProbeLossInjector(sim, "base", [link], window)
            return sim, link

        sim, burst_link = rig()
        burst = sim.process(burst_link.transmit_sequence(12, 200))
        sim.run(until=60.0)

        sim, loop_link = rig()
        looped = []

        def sender(sim):
            for _ in range(200):
                looped.append((yield sim.process(loop_link.transmit_detailed(12))))

        sim.process(sender(sim))
        sim.run(until=60.0)

        assert burst.value == looped
        in_window = [o for k, o in enumerate(looped)
                     if 5.0 <= (k + 1) * burst_link.packet_time_s(12) < 9.0]
        assert sum(not o.ok for o in in_window) > len(in_window) / 2
        for link in (burst_link, loop_link):
            assert link.packets_sent == 200
        assert (burst_link.packets_lost, burst_link.packets_broken) == (
            loop_link.packets_lost, loop_link.packets_broken)


class TestServerOutageInjector:
    def test_calls_fail_only_inside_window(self):
        sim = Simulation(seed=3)
        server = ServerFleet(sim, 1).shard(0)
        ServerOutageInjector(sim, [server], [(100.0, 200.0)])
        # Outside the window: normal behaviour.
        assert server.get_override_state("base") is None
        sim.run(until=150.0)
        with pytest.raises(LinkDown):
            server.get_override_state("base")
        with pytest.raises(LinkDown):
            server.upload_power_state("base", state=2)
        sim.run(until=250.0)
        assert server.get_override_state("base") is None


class TestEventFaults:
    def test_rtc_reset_fires_at_time(self):
        sim = Simulation(seed=4)
        rtc = RealTimeClock(sim, name="base.rtc")
        inject_rtc_fault(sim, "base", rtc, at_s=500.0)
        sim.run(until=400.0)
        assert not rtc.is_pre_deployment
        sim.run(until=600.0)
        assert rtc.is_pre_deployment
        records = _faults_records(sim, "fault_injected")
        assert records and records[0].detail["fault"] == "rtc-reset"

    def test_rtc_skew_instead_of_reset(self):
        sim = Simulation(seed=4)
        rtc = RealTimeClock(sim, name="base.rtc")
        inject_rtc_fault(sim, "base", rtc, at_s=100.0, skew_s=180.0)
        sim.run(until=200.0)
        assert not rtc.is_pre_deployment
        assert rtc.error_seconds() == pytest.approx(180.0, abs=1.0)

    def test_battery_drain_books_energy(self):
        sim = Simulation(seed=5)
        bus = PowerBus(sim, Battery(BatteryConfig()), name="base.power")
        before = bus.battery.energy_j
        inject_battery_drain(sim, "base", bus, at_s=100.0, energy_j=50_000.0)
        sim.run(until=200.0)
        assert bus.battery.energy_j == pytest.approx(before - 50_000.0)

    def test_storage_flag_corruption_and_scheduled_repair(self):
        sim = Simulation(seed=6)
        card = CompactFlashCard()
        card.write("state/last_run", 64, created=0.0)
        inject_storage_corruption(sim, "base", card, at_s=100.0,
                                  recover_after_s=50.0)
        sim.run(until=120.0)
        with pytest.raises(StorageCorruption):
            card.read("state/last_run")
        sim.run(until=200.0)
        assert card.read("state/last_run") is not None
        assert _faults_records(sim, "fault_cleared")

    def test_storage_targeted_file_destruction(self):
        sim = Simulation(seed=6)
        card = CompactFlashCard()
        card.write("state/last_run", 64, created=0.0)
        card.write("data/d1", 128, created=0.0)
        inject_storage_corruption(sim, "base", card, at_s=100.0,
                                  files=("state/last_run", "no/such/file"))
        sim.run(until=150.0)
        assert not card.exists("state/last_run")
        assert card.exists("data/d1")
        assert not card.corrupted
        record = _faults_records(sim, "fault_injected")[0]
        assert record.detail["files"] == ["state/last_run"]
