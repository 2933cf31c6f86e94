"""Cross-module property-based tests on system invariants."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.comms.link import Modem
from repro.comms.transfer import drain_days, estimate_window_bytes
from repro.energy.battery import Battery, BatteryConfig
from repro.energy.bus import PowerBus
from repro.energy.components import GPRS_MODEM
from repro.energy.sources import ConstantSource
from repro.sim import Simulation
from repro.sim.simtime import HOUR

slow_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestKernelOrdering:
    @slow_settings
    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=30))
    def test_timeouts_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulation(seed=1)
        fired = []
        for delay in delays:
            sim.timeout(float(delay)).callbacks.append(
                lambda _e, d=delay: fired.append((sim.now, d))
            )
        sim.run()
        times = [t for t, _d in fired]
        assert times == sorted(times)
        assert sorted(d for _t, d in fired) == sorted(delays)

    @slow_settings
    @given(st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=10))
    def test_sequential_process_time_is_sum_of_waits(self, waits):
        sim = Simulation(seed=2)

        def worker(sim):
            for wait in waits:
                yield sim.timeout(float(wait))

        proc = sim.process(worker(sim))
        sim.run()
        assert sim.now == pytest.approx(float(sum(waits)))
        assert proc.triggered


class TestEnergyConservation:
    @slow_settings
    @given(
        # soc <= 0.9: the 400 Ah bank then has more headroom than any
        # combination below can charge, so neither clamp engages.
        st.floats(min_value=0.3, max_value=0.9),
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=10.0),
        st.integers(min_value=1, max_value=24),
    )
    def test_bus_books_balance(self, soc, load_w, source_w, hours):
        """Stored-energy delta == charge accepted - load drawn (while the
        battery stays inside its clamps)."""
        sim = Simulation(seed=3)
        config = BatteryConfig(capacity_ah=400.0)  # huge: no clamping
        battery = Battery(config=config, soc=soc)
        bus = PowerBus(sim, battery, name="p.power")
        bus.add_source(ConstantSource(source_w))
        load = bus.add_load("fixed", load_w)
        bus.loads.switch_on("fixed")
        start_j = battery.energy_j
        sim.run(until=hours * HOUR)
        bus.sync()
        expected = (
            start_j
            - load_w * hours * HOUR
            + source_w * hours * HOUR * config.charge_efficiency
        )
        assert battery.energy_j == pytest.approx(expected, rel=1e-9, abs=1e-3)
        assert load.energy_j == pytest.approx(load_w * hours * HOUR, rel=1e-9, abs=1e-3)

    @slow_settings
    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0, max_value=200))
    def test_terminal_voltage_bounded(self, soc, net_power):
        battery = Battery(soc=soc)
        voltage = battery.terminal_voltage(net_power)
        assert voltage <= battery.config.max_terminal_voltage
        assert voltage >= battery.config.ocv_empty - 10.0  # sane lower bound


class TestTransferInvariants:
    @slow_settings
    @given(
        st.integers(min_value=0, max_value=100_000_000),
        st.integers(min_value=1, max_value=1_000_000),
        st.integers(min_value=600, max_value=4 * 3600),
    )
    def test_drain_days_monotone_in_backlog(self, backlog, file_size, window_s):
        sim = Simulation(seed=4)
        bus = PowerBus(sim, Battery(soc=0.9), name="t.power")
        modem = Modem(sim, bus, "t.modem", GPRS_MODEM)
        smaller = drain_days(backlog, file_size, modem, float(window_s))
        larger = drain_days(backlog + file_size, file_size, modem, float(window_s))
        assert larger >= smaller

    @slow_settings
    @given(st.integers(min_value=0, max_value=4 * 3600), st.integers(min_value=0, max_value=600))
    def test_window_capacity_nonnegative_and_linear(self, window_s, overhead_s):
        sim = Simulation(seed=5)
        bus = PowerBus(sim, Battery(soc=0.9), name="w.power")
        modem = Modem(sim, bus, "w.modem", GPRS_MODEM)
        capacity = estimate_window_bytes(modem, float(window_s), float(overhead_s))
        assert capacity >= 0
        bigger = estimate_window_bytes(modem, float(window_s) + 600.0, float(overhead_s))
        assert bigger >= capacity


class TestProtocolInvariants:
    @slow_settings
    @given(
        st.floats(min_value=0.0, max_value=0.6),
        st.integers(min_value=1, max_value=120),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_received_set_is_valid_and_duplicate_free(self, loss, n_readings, seed):
        from repro.comms.probe_radio import ProbeRadioLink
        from repro.environment.glacier import GlacierModel
        from repro.probes.probe import Probe
        from repro.protocol.bulk import BulkFetcher
        from repro.sensors.probe_sensors import make_probe_sensor_suite

        sim = Simulation(seed=seed)
        glacier = GlacierModel(seed=seed)
        probe = Probe(sim, 30, make_probe_sensor_suite(glacier, 30),
                      sampling_interval_s=5.0, lifetime_days=10_000.0)
        sim.run(until=n_readings * 5.0 + 2.0)
        assert probe.buffered_count == n_readings
        # Freeze the task now so later sampling (between retry sessions)
        # cannot grow it — the invariant is about one fixed task.
        task = probe.task()
        assert task is not None and task.total == n_readings
        link = ProbeRadioLink(sim, loss_fn=lambda t: loss, name="prop.link")
        fetcher = BulkFetcher(sim)
        total_new = 0
        for _session in range(6):
            proc = sim.process(fetcher.fetch(probe, link))
            sim.run(until=sim.now + 2 * HOUR)
            total_new += proc.value.received_new
            if proc.value.complete:
                break
        key = (30, 1)
        received = fetcher.received.get(key, set())
        # No duplicates ever counted; set is within the task's seq range.
        assert total_new == len(received)
        assert received <= set(range(n_readings))
        # Holdings agree with the bookkeeping.
        assert set(fetcher.store.get(key, {})) == received
