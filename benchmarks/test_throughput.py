"""Station-years/second on the batched/exact dispatch stack.

The throughput headline for the batched same-timestamp dispatch +
exact-interval comms/sensor scheduling layer, measured as **simulated
station-years per wall-clock second** on two scenarios:

- **E20** — the probe-idled power-endurance year: both stations at the
  6-hour maintenance cadence, the regime where a fixed-tick power bus
  would dominate the event budget (a 300 s tick is ~100k wake-ups per
  station-year).  The event-driven PowerBus already collected this
  scenario's order of magnitude; what remains is model physics (weather
  quadrature, GPS, planner).  Its row also bounds the bus's sync count,
  so the ≥ 10x sync reduction over the fixed-tick bus stays enforced.
  The physics equivalence against a fine fixed-step reference lives in
  ``tests/energy/test_adaptive_equivalence.py``.
- **Fleet** — the comms/sensor-bound regime this layer is for: two
  deployments (four stations), each with the full seven-probe fleet at a
  2-minute cadence, whose wired probe fails on day 3 (the paper's
  Section V single-point-of-failure).  Comms are scheduled with single
  inverse-CDF draws and probe samples are materialised lazily — samples
  that nothing will ever observe (the radio is dead) are never computed
  at all.

The fixed-tick bus and the legacy stack (chunked Bernoulli comms, one
kernel event per probe sample) are retired.  Their measured costs stay
frozen under each row's ``baselines`` in ``BENCH.json`` (E20 on the
fixed-tick bus: 224,458 bus syncs; fleet on the legacy stack: 16.5 s and
699,056 dispatched events on the pinning host).  The rows' counter
``max`` bounds keep the >= 10x sync- and event-reduction claims
enforced, and ``check_regression.py`` gates each wall clock.
"""

from benchmarks.conftest import run_once
from repro.core import Deployment, DeploymentConfig
from repro.core.config import StationConfig, reference_defaults

#: Maintenance cadence: one health/housekeeping sample every six hours.
MAINTENANCE_INTERVAL_S = 21600.0

E20_DAYS = 365
FLEET_DAYS = 60
FLEET_SEEDS = (100, 101)
#: High-rate probe survey: one sample every two minutes.
FLEET_PROBE_INTERVAL_S = 120.0
#: The Section V failure: probe comms die on day 3.
FLEET_WIRED_PROBE_LIFETIME_DAYS = 3.0


def _stations():
    base = StationConfig(sample_interval_s=MAINTENANCE_INTERVAL_S)
    reference = reference_defaults()
    reference.sample_interval_s = MAINTENANCE_INTERVAL_S
    return base, reference


def e20_config() -> DeploymentConfig:
    base, reference = _stations()
    return DeploymentConfig(seed=100, base=base, reference=reference,
                            probe_ids=())


def fleet_config(seed: int) -> DeploymentConfig:
    base, reference = _stations()
    return DeploymentConfig(
        seed=seed, base=base, reference=reference,
        probe_sampling_interval_s=FLEET_PROBE_INTERVAL_S,
        wired_probe_lifetime_days=FLEET_WIRED_PROBE_LIFETIME_DAYS,
    )


def metric_total(deployment, family: str) -> int:
    families = deployment.sim.obs.metrics.families()
    return sum(int(m.value) for m in families.get(family, []))


def run_e20():
    """One probe-idled endurance year; returns its counters."""
    deployment = Deployment(e20_config())
    deployment.run_days(E20_DAYS)
    # Scenario sanity: the endurance year must still *be* the endurance
    # year — both stations keep their daily cycle and never brown out.
    assert deployment.base.daily_runs >= 355
    assert deployment.reference.daily_runs >= 355
    assert len(deployment.sim.trace.select(kind="brownout")) == 0
    return {
        "events_processed": deployment.sim.events_processed,
        "dispatch_batches": deployment.sim.dispatch_batches,
        "comms_exact_draws": metric_total(deployment, "comms_exact_draws_total"),
        "energy_syncs_total": metric_total(deployment, "energy_syncs_total"),
    }


def run_fleet():
    """Two fleet deployments back to back; returns their summed counters."""
    events = batches = draws = 0
    for seed in FLEET_SEEDS:
        deployment = Deployment(fleet_config(seed))
        deployment.run_days(FLEET_DAYS)
        # The Section V outage actually happened: probe comms are dead,
        # yet the stations keep their daily cycle.
        assert not deployment.wired_probe.is_alive
        assert deployment.base.daily_runs >= FLEET_DAYS - 5
        events += deployment.sim.events_processed
        batches += deployment.sim.dispatch_batches
        draws += metric_total(deployment, "comms_exact_draws_total")
        del deployment
    return {
        "events_processed": events,
        "dispatch_batches": batches,
        "comms_exact_draws": draws,
    }


def _measure(benchmark, runner):
    stats = run_once(benchmark, runner)
    benchmark.extra_info.update(stats)
    return stats


def test_throughput_e20_batched(benchmark):
    stats = _measure(benchmark, run_e20)
    assert stats["comms_exact_draws"] > 0
    # Planned syncs only: load switches, predicted crossings, MAX_STEP_S
    # heartbeats.  Measured 2,921 for this seed; 6,000 leaves headroom for
    # schedule drift while staying far below the frozen fixed-tick 224,458.
    assert stats["energy_syncs_total"] < 6_000


def test_throughput_fleet_batched(benchmark):
    stats = _measure(benchmark, run_fleet)
    # Deferred sampling + exact comms: the whole fleet run dispatches
    # fewer events than a single eagerly sampled probe would have.
    assert stats["events_processed"] < 80_000
