"""Property tests: the event-driven bus agrees with fine fixed-step.

The event-driven bus replaces tens of thousands of 300 s ticks per
simulated year with a handful of planned syncs, so its whole claim rests
on equivalence: against a fine fixed-step reference (60 s,
:class:`~tests.energy.fixed_step_bus.FixedStepBus`) it must

- reproduce the daily-average terminal voltage within 1 %, and
- reproduce the exact *ordering* of behavioural transitions (brown-out /
  recovery edges at bus level, power-state applications at deployment
  level), compared bit-for-bit via a digest over the ordered sequence.

Timestamps are deliberately excluded from the digests: the two integrators
legitimately observe the same edge at slightly different instants (tick
granularity vs. bisected crossing), but never in a different order.
"""

import hashlib

import pytest

from repro.core.config import DeploymentConfig
from repro.core.deployment import Deployment
from repro.energy.battery import Battery
from repro.energy.bus import PowerBus
from repro.energy.sources import SolarPanel, WindTurbine
from repro.environment.weather import IcelandWeather
from repro.sim import Simulation
from tests.energy.fixed_step_bus import FixedStepBus

HOUR = 3600.0

#: Scripted-bus scenario: the switchable load set.  The 30 W heater drains
#: the battery into brown-out and back, so the edge ordering is exercised.
SCENARIO_LOADS = (("gps", 3.6), ("modem", 2.0), ("heater", 30.0))

#: Mid-band scenario: the same duty cycles over a 3 W heater keep the SoC
#: clear of the brown-out band and of the full clamp.  Near either end the
#: battery model pins the terminal voltage, so only here does the daily
#: voltage check test the integration itself (a 10% error in the
#: event-driven bus's load drain fails it; the brown-out scenario lets it
#: pass).  Seed 17's wind fills the battery to the clamp, so it is not used.
MID_BAND_LOADS = (("gps", 3.6), ("modem", 2.0), ("heater", 3.0))
MID_BAND_SEEDS = (23, 31)


def run_scenario(seed: int, mode: str, days: int = 8, loads=SCENARIO_LOADS):
    """One scripted bus, ``"fixed"`` (60 s reference) or ``"adaptive"``;
    returns (daily averages, edges, hourly SoC samples)."""
    sim = Simulation(seed=seed)
    weather = IcelandWeather(seed=seed)
    bus_cls = FixedStepBus if mode == "fixed" else PowerBus
    bus = bus_cls(sim, Battery(soc=0.35), name="prop.power")
    bus.add_source(SolarPanel(weather, rated_w=10.0))
    bus.add_source(WindTurbine(weather, rated_w=50.0))
    edges = []
    bus.on_brownout.append(lambda: edges.append("brownout"))
    bus.on_recovery.append(lambda: edges.append("recovery"))
    for label, volts in (("s1", 11.5), ("s2", 12.0), ("s3", 12.5)):
        bus.watch_voltage(volts, label)
    for name, watts in loads:
        bus.add_load(name, watts)

    def duty_cycle(sim, name):
        # Open-loop schedule: switch instants are a pure function of the
        # seeded stream, never of observed bus state.  (A closed-loop
        # toggler would couple the schedule to brown-out shed times, and
        # any quadrature-level timing difference between the integrators
        # would then flip load parity for ever — chaotic divergence that
        # says nothing about integration accuracy.)
        rng = sim.rng.stream(f"prop.duty.{name}")
        while True:
            bus.loads.switch_on(name)
            yield sim.timeout(600.0 + float(rng.integers(0, 7200)))
            bus.loads.switch_off(name)
            yield sim.timeout(600.0 + float(rng.integers(0, 7200)))

    daily = []
    socs = []

    def sampler(sim):
        # Hourly voltage reads at instants shared by both integrators.
        while True:
            total = 0.0
            for _ in range(24):
                total += bus.terminal_voltage()
                socs.append(bus.battery.soc)
                yield sim.timeout(HOUR)
            daily.append(total / 24.0)

    for name, _watts in loads:
        sim.process(duty_cycle(sim, name), name=f"prop.duty.{name}")
    sim.process(sampler(sim), name="prop.sampler")
    sim.run_days(days)
    bus.sync()
    return daily, edges, socs


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\x00")
    return h.hexdigest()


class TestScriptedBusEquivalence:
    @pytest.mark.parametrize("seed", [17, 23, 31])
    def test_daily_average_voltage_within_one_percent(self, seed):
        fixed_daily, _, _ = run_scenario(seed, "fixed")
        adaptive_daily, _, _ = run_scenario(seed, "adaptive")
        assert len(fixed_daily) == len(adaptive_daily) > 0
        for fixed_v, adaptive_v in zip(fixed_daily, adaptive_daily):
            assert adaptive_v == pytest.approx(fixed_v, rel=0.01)

    @pytest.mark.parametrize("seed", [17, 23, 31])
    def test_edge_ordering_matches_bit_for_bit(self, seed):
        _, fixed_edges, _ = run_scenario(seed, "fixed")
        _, adaptive_edges, _ = run_scenario(seed, "adaptive")
        assert digest(adaptive_edges) == digest(fixed_edges)

    def test_scenarios_exercise_edges_at_all(self):
        # The ordering property is vacuous if no seed ever browns out.
        total = 0
        for seed in (17, 23, 31):
            _, edges, _ = run_scenario(seed, "fixed")
            total += len(edges)
        assert total > 0

    @pytest.mark.parametrize("seed", MID_BAND_SEEDS)
    def test_mid_band_daily_average_voltage_within_one_percent(self, seed):
        fixed_daily, fixed_edges, socs = run_scenario(
            seed, "fixed", loads=MID_BAND_LOADS)
        adaptive_daily, adaptive_edges, _ = run_scenario(
            seed, "adaptive", loads=MID_BAND_LOADS)
        # The premise: clear of brown-out and of the full clamp throughout.
        assert fixed_edges == adaptive_edges == []
        assert 0.2 < min(socs) and max(socs) < 0.95
        assert len(fixed_daily) == len(adaptive_daily) > 0
        for fixed_v, adaptive_v in zip(fixed_daily, adaptive_daily):
            assert adaptive_v == pytest.approx(fixed_v, rel=0.01)


def transition_digest(dep: Deployment) -> str:
    h = hashlib.sha256()
    for record in dep.sim.trace.records:
        if record.kind == "state_applied":
            h.update(f"{record.source}|state={record.detail['state']}".encode())
        elif record.kind in ("brownout", "recovery"):
            h.update(f"{record.source}|{record.kind}".encode())
        h.update(b"\x00")
    return h.hexdigest()


class TestDeploymentEquivalence:
    def test_transition_ordering_over_ten_days(self, monkeypatch):
        adaptive = Deployment(DeploymentConfig(seed=7))
        adaptive.run_days(10)
        monkeypatch.setattr("repro.core.station.PowerBus", FixedStepBus)
        fixed = Deployment(DeploymentConfig(seed=7))
        fixed.run_days(10)
        assert isinstance(fixed.base.bus, FixedStepBus)
        assert transition_digest(adaptive) == transition_digest(fixed)
