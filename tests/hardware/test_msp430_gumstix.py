"""Integration tests: MSP430 supervisor + Gumstix + power bus + I2C."""

import datetime as dt

import pytest

from repro.energy.battery import Battery
from repro.energy.bus import PowerBus
from repro.energy.sources import ConstantSource
from repro.hardware.gumstix import Gumstix
from repro.hardware.i2c import I2CBus
from repro.hardware.msp430 import Msp430, ScheduleEntry
from repro.sim import Simulation
from repro.sim.simtime import DAY, HOUR, MINUTE


@pytest.fixture
def rig():
    """A minimal station rig: sim + bus + MSP430 + Gumstix + I2C."""
    sim = Simulation(seed=5)
    bus = PowerBus(sim, Battery(soc=0.9), name="rig.power")
    msp = Msp430(sim, bus, name="rig.msp430")
    gumstix = Gumstix(sim, bus, name="rig.gumstix")
    msp.register_action("wake_gumstix", lambda: msp.supervise_gumstix(gumstix))
    i2c = I2CBus(sim, msp)
    return sim, bus, msp, gumstix, i2c


class TestVoltageSampling:
    def test_samples_every_30_minutes(self, rig):
        sim, _bus, msp, _gumstix, _i2c = rig
        sim.run(until=6 * HOUR)
        assert len(msp.voltage_log) == 12

    def test_samples_are_plausible_voltages(self, rig):
        sim, _bus, msp, _g, _i2c = rig
        sim.run(until=2 * HOUR)
        for _t, volts in msp.voltage_log:
            assert 10.0 < volts < 15.0

    def test_i2c_download_consumes_log(self, rig):
        sim, _bus, msp, _g, i2c = rig
        sim.run(until=3 * HOUR)
        log = i2c.read_voltage_log()
        assert len(log) == 6
        assert msp.voltage_log == []
        assert i2c.transactions[-1].command == "read_voltage_log"

    def test_buffer_capacity_bounded(self, rig):
        sim, _bus, msp, _g, _i2c = rig
        msp.BUFFER_CAPACITY = 10
        sim.run(until=DAY)
        assert len(msp.voltage_log) == 10


class TestScheduler:
    def test_wakes_gumstix_at_scheduled_hour(self, rig):
        sim, _bus, msp, gumstix, _i2c = rig
        gumstix.on_boot = None  # no job: boots then completes immediately
        # Default flash schedule is 12:00; epoch starts at midnight.
        sim.run(until=13 * HOUR)
        assert gumstix.power_cycles == 1
        fires = sim.trace.select(kind="schedule_fire")
        assert fires[0].time == pytest.approx(12 * HOUR, abs=1.0)

    def test_fires_daily(self, rig):
        sim, _bus, _msp, gumstix, _i2c = rig
        sim.run(until=3 * DAY)
        assert gumstix.power_cycles == 3

    def test_schedule_rewrite_takes_effect(self, rig):
        sim, _bus, msp, gumstix, _i2c = rig
        sim.run(until=1 * HOUR)
        msp.set_schedule([ScheduleEntry(hour=2.0, action="wake_gumstix")])
        sim.run(until=3 * HOUR)
        assert gumstix.power_cycles == 1
        fires = sim.trace.select(kind="schedule_fire")
        assert fires[0].time == pytest.approx(2 * HOUR, abs=1.0)

    def test_multiple_entries_per_day(self, rig):
        sim, _bus, msp, _gumstix, _i2c = rig
        count = []
        msp.register_action("tick", lambda: count.append(sim.now))
        msp.set_schedule([ScheduleEntry(hour=h, action="tick") for h in (2.0, 8.0, 14.0)])
        sim.run(until=DAY)
        assert len(count) == 3

    def test_empty_schedule_sleeps_until_rewritten(self, rig):
        sim, _bus, msp, gumstix, _i2c = rig
        msp.set_schedule([])
        sim.run(until=2 * DAY)
        assert gumstix.power_cycles == 0
        msp.set_schedule([ScheduleEntry(hour=1.0, action="wake_gumstix")])
        sim.run(until=2 * DAY + 23 * HOUR)
        assert gumstix.power_cycles == 1

    def test_schedule_follows_rtc_not_true_time(self, rig):
        """If the RTC is 6 h fast, a 12:00 slot fires at 06:00 true time."""
        sim, _bus, msp, gumstix, _i2c = rig
        msp.rtc.set_from_true_time(offset_s=6 * HOUR)
        sim.run(until=7 * HOUR)
        assert gumstix.power_cycles == 1

    def test_invalid_hour_rejected(self):
        with pytest.raises(ValueError):
            ScheduleEntry(hour=24.0, action="x")


class TestGumstixLifecycle:
    def test_boot_runs_job_then_powers_off(self, rig):
        sim, bus, msp, gumstix, _i2c = rig
        ran = []

        def job():
            ran.append(sim.now)
            yield sim.timeout(10 * MINUTE)

        gumstix.on_boot = job
        sim.run(until=13 * HOUR)
        assert len(ran) == 1
        assert not gumstix.is_on
        assert gumstix.total_on_time_s == pytest.approx(gumstix.boot_s + 10 * MINUTE)
        assert not bus.loads.get("rig.gumstix").on

    def test_energy_charged_for_session(self, rig):
        sim, bus, _msp, gumstix, _i2c = rig

        def job():
            yield sim.timeout(30 * MINUTE)

        gumstix.on_boot = job
        sim.run(until=13 * HOUR)
        bus.sync()
        expected = gumstix.load.power_w * (gumstix.boot_s + 30 * MINUTE)
        assert bus.loads.get("rig.gumstix").energy_j == pytest.approx(expected, rel=1e-6)

    def test_watchdog_cuts_after_two_hours(self, rig):
        sim, _bus, msp, gumstix, _i2c = rig

        def hung_job():
            yield sim.timeout(10 * DAY)  # a hung SCP transfer

        gumstix.on_boot = hung_job
        sim.run(until=15 * HOUR)
        assert not gumstix.is_on
        assert msp.watchdog_cuts == 1
        assert gumstix.unclean_shutdowns == 1
        cuts = sim.trace.select(kind="watchdog_cut")
        assert cuts[0].time == pytest.approx(12 * HOUR + 2 * HOUR, abs=1.0)

    def test_watchdog_does_not_cut_short_job(self, rig):
        sim, _bus, msp, gumstix, _i2c = rig

        def short_job():
            yield sim.timeout(20 * MINUTE)

        gumstix.on_boot = short_job
        sim.run(until=15 * HOUR)
        assert msp.watchdog_cuts == 0
        assert gumstix.unclean_shutdowns == 0

    def test_power_on_idempotent(self, rig):
        sim, _bus, _msp, gumstix, _i2c = rig
        gumstix.power_on()
        session = gumstix.power_on()
        assert gumstix.power_cycles == 1
        assert session is not None


class TestBrownoutLifecycle:
    def make_starving_rig(self):
        sim = Simulation(seed=6)
        bus = PowerBus(sim, Battery(soc=0.01), name="s.power")
        msp = Msp430(sim, bus, name="s.msp430")
        gumstix = Gumstix(sim, bus, name="s.gumstix")
        msp.register_action("wake_gumstix", lambda: msp.supervise_gumstix(gumstix))
        return sim, bus, msp, gumstix

    def test_brownout_clears_ram_and_resets_rtc(self):
        sim, bus, msp, gumstix = self.make_starving_rig()
        msp.set_schedule([ScheduleEntry(hour=h % 24, action="wake_gumstix") for h in range(0, 24, 2)])
        bus.add_load("drain", 20.0)
        bus.loads.switch_on("drain")
        sim.run(until=1 * DAY)
        assert msp.halted
        assert msp.voltage_log == []
        assert msp.rtc.is_pre_deployment

    def test_recovery_reboots_with_flash_default_schedule(self):
        sim, bus, msp, gumstix = self.make_starving_rig()
        msp.set_schedule([ScheduleEntry(hour=3.0, action="wake_gumstix")])
        bus.add_load("drain", 20.0)
        bus.loads.switch_on("drain")
        source = ConstantSource(0.0)
        bus.add_source(source)

        def recharge(sim):
            yield sim.timeout(6 * HOUR)
            source.watts = 60.0

        sim.process(recharge(sim))
        sim.run(until=3 * DAY)
        assert not msp.halted
        assert [(e.hour, e.action) for e in msp.schedule] == [(12.0, "wake_gumstix")]
        # The RTC is wrong (reset to 1970) but the default schedule still
        # wakes the Gumstix once per RTC-day.
        assert gumstix.power_cycles >= 1
