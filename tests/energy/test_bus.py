"""Tests for loads, sources and the integrating power bus."""

import pytest

from repro.energy.battery import Battery, BatteryConfig
from repro.energy.bus import PowerBus
from repro.energy.loads import LoadSet
from repro.energy.sources import ConstantSource
from repro.sim import Simulation
from tests.energy.fixed_step_bus import FixedStepBus


@pytest.fixture
def sim():
    return Simulation(seed=3)


def make_bus(sim, soc=1.0, mode="adaptive"):
    """The event-driven bus, or (``mode="fixed"``) the 300 s tick reference."""
    if mode == "fixed":
        return FixedStepBus(sim, Battery(soc=soc), name="test.power", step_s=300.0)
    return PowerBus(sim, Battery(soc=soc), name="test.power")


class TestLoadSet:
    def test_add_and_get(self):
        loads = LoadSet()
        load = loads.add("gps", 3.6)
        assert loads.get("gps") is load
        assert "gps" in loads

    def test_duplicate_name_rejected(self):
        loads = LoadSet()
        loads.add("gps", 3.6)
        with pytest.raises(ValueError):
            loads.add("gps", 1.0)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            LoadSet().add("bad", -1.0)

    def test_total_power_counts_only_on_loads(self):
        loads = LoadSet()
        loads.add("a", 1.0)
        loads.add("b", 2.0)
        loads.switch_on("a")
        assert loads.total_power() == pytest.approx(1.0)
        loads.switch_on("b")
        assert loads.total_power() == pytest.approx(3.0)

    def test_all_off(self):
        loads = LoadSet()
        loads.add("a", 1.0)
        loads.switch_on("a")
        loads.all_off()
        assert loads.total_power() == 0.0
        assert loads.active() == []

    def test_subscriber_called_before_change(self):
        loads = LoadSet()
        load = loads.add("a", 1.0)
        states = []
        loads.subscribe(lambda l: states.append(l.on))
        loads.switch_on("a")
        assert states == [False]  # still-old state at notification time

    def test_redundant_switch_is_silent(self):
        loads = LoadSet()
        loads.add("a", 1.0)
        calls = []
        loads.subscribe(lambda l: calls.append(1))
        loads.switch_off("a")
        assert calls == []


class TestBusIntegration:
    def test_idle_bus_holds_charge(self, sim):
        bus = make_bus(sim)
        sim.run_days(1)
        assert bus.battery.soc == pytest.approx(1.0)

    def test_constant_load_drains_battery(self, sim):
        bus = make_bus(sim)
        bus.add_load("heater", 18.0)  # 432 Wh / 18 W = 24 h to empty
        bus.loads.switch_on("heater")
        sim.run_days(0.5)
        bus.sync()
        assert bus.battery.soc == pytest.approx(0.5, abs=0.01)

    def test_load_energy_accounting_is_exact_across_switches(self, sim):
        bus = make_bus(sim)
        bus.add_load("gps", 3.6)

        def duty_cycle(sim):
            for _ in range(4):
                bus.loads.switch_on("gps")
                yield sim.timeout(450.0)  # deliberately not a multiple of step
                bus.loads.switch_off("gps")
                yield sim.timeout(1350.0)

        sim.process(duty_cycle(sim))
        sim.run_days(1)
        bus.sync()
        expected_j = 3.6 * 4 * 450.0
        assert bus.loads.get("gps").energy_j == pytest.approx(expected_j, rel=1e-9)

    def test_source_charges_battery(self, sim):
        bus = make_bus(sim, soc=0.5)
        bus.add_source(ConstantSource(43.2))
        sim.run(until=3600.0)
        bus.sync()
        expected = 0.5 + 0.1 * bus.battery.config.charge_efficiency
        assert bus.battery.soc == pytest.approx(expected, rel=1e-3)

    def test_terminal_voltage_reflects_net_power(self, sim):
        bus = make_bus(sim, soc=0.8)
        resting = bus.terminal_voltage()
        bus.add_load("gps", 3.6)
        bus.loads.switch_on("gps")
        assert bus.terminal_voltage() < resting

    def test_source_energy_accounting(self, sim):
        bus = make_bus(sim, soc=0.0)
        source = bus.add_source(ConstantSource(10.0))
        sim.run(until=3600.0)
        bus.sync()
        assert source.delivered_j == pytest.approx(10.0 * 3600.0, rel=1e-6)


class TestSyncIdempotency:
    """Regression tests for the ``_last_sync == sim.now`` double-integration
    bug: a second sync at the same instant must be a pure no-op (modulo the
    edge re-check), whatever put the two syncs on the same timestamp."""

    @pytest.mark.parametrize("mode", ["fixed", "adaptive"])
    def test_repeated_sync_at_same_instant_is_a_no_op(self, sim, mode):
        bus = make_bus(sim, mode=mode)
        bus.add_load("gps", 3.6)
        bus.loads.switch_on("gps")
        sim.run(until=1000.0)
        bus.sync()
        soc = bus.battery.soc
        booked = bus.loads.get("gps").energy_j
        bus.sync()
        bus.sync(reason="read")
        assert bus.battery.soc == soc
        assert bus.loads.get("gps").energy_j == booked

    @pytest.mark.parametrize("toggle_created_first", [True, False])
    def test_boundary_toggle_books_energy_once(self, sim, toggle_created_first):
        """A toggle landing exactly on a tick boundary must book the load's
        energy exactly once, in either heap order of tick and toggle."""
        bus = make_bus(sim, mode="fixed")
        bus.add_load("gps", 3.6)

        def toggler(sim):
            if toggle_created_first:
                # Timeout created at t=0: the toggle outranks the t=600 tick.
                yield sim.timeout(600.0)
            else:
                # Final timeout created at t=450, after the t=300 tick has
                # already scheduled the t=600 tick: the tick fires first.
                yield sim.timeout(450.0)
                yield sim.timeout(150.0)
            bus.loads.switch_on("gps")
            yield sim.timeout(600.0)  # off at t=1200, also a tick boundary
            bus.loads.switch_off("gps")

        sim.process(toggler(sim))
        sim.run(until=1800.0)
        bus.sync()
        assert bus.loads.get("gps").energy_j == pytest.approx(3.6 * 600.0, rel=1e-9)
        expected_soc = 1.0 - 3.6 * 600.0 / bus.battery.config.capacity_j
        assert bus.battery.soc == pytest.approx(expected_soc, rel=1e-9)

    @pytest.mark.parametrize("mode", ["fixed", "adaptive"])
    def test_same_instant_drain_still_fires_brownout(self, sim, mode):
        """``drain_j`` right after a same-timestamp sync must integrate
        nothing extra yet still run the brown-out edge check."""
        bus = make_bus(sim, soc=0.2, mode=mode)
        fired = []
        bus.on_brownout.append(lambda: fired.append(sim.now))
        sim.run(until=600.0)
        bus.sync()
        bus.drain_j(0.25 * bus.battery.config.capacity_j)
        assert fired == [600.0]
        assert bus.battery.soc == 0.0


class TestBrownoutRecovery:
    def test_brownout_fires_once_and_sheds_loads(self, sim):
        bus = make_bus(sim, soc=0.05)
        bus.add_load("heater", 100.0)
        bus.loads.switch_on("heater")
        events = []
        bus.on_brownout.append(lambda: events.append(sim.now))
        sim.run_days(1)
        assert len(events) == 1
        assert bus.loads.active() == []
        assert len(sim.trace.select(kind="brownout")) == 1

    def test_recovery_fires_after_recharge(self, sim):
        config = BatteryConfig()
        bus = PowerBus(sim, Battery(config=config, soc=0.0), name="t")
        bus.add_source(ConstantSource(50.0))
        recoveries = []
        bus.on_recovery.append(lambda: recoveries.append(sim.now))
        # needs 10% of 432 Wh at 50 W * 0.85 eff ~ 1.02 h
        sim.run_days(1)
        assert len(recoveries) == 1
        assert recoveries[0] == pytest.approx(0.10 * config.capacity_j / (50.0 * 0.85), rel=0.1)

    def test_brownout_then_recovery_then_brownout_again(self, sim):
        bus = make_bus(sim, soc=0.02)
        bus.add_load("heater", 50.0)
        bus.loads.switch_on("heater")
        browns, recovers = [], []
        bus.on_brownout.append(lambda: browns.append(sim.now))

        def re_enable():
            recovers.append(sim.now)
            bus.loads.switch_on("heater")

        bus.on_recovery.append(re_enable)
        source = ConstantSource(0.0)
        bus.add_source(source)

        def charger_control(sim):
            yield sim.timeout(3600.0)
            source.watts = 60.0  # recharge
            yield sim.timeout(6 * 3600.0)
            source.watts = 0.0  # die again

        sim.process(charger_control(sim))
        sim.run_days(3)
        assert len(browns) == 2
        assert len(recovers) == 1
