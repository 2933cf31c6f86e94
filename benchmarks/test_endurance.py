"""E20 — the power-endurance year on the event-driven power bus.

The paper's Section V endurance question — does the station survive the
winter on its power budget? — exercises the energy layer almost in
isolation: both stations at the 6-hour maintenance sampling cadence, the
probe fleet idled.  That is the regime where a fixed-tick integrator
would dominate the event budget (a 300 s tick is ~100k wake-ups per
station-year), which makes it the honest scenario for the event-driven
bus's cost.

The fixed 300 s tick integrator the bus replaced is retired.  Its
measured cost on this scenario — 224,458 bus syncs, 285,677 kernel
events, 5.9 s on the pinning host — stays frozen as ``baseline_min_ms``
and ``baseline_counters`` in ``BENCH_endurance.json``.  The row's counter
``max`` bounds keep the >= 10x sync-reduction claim enforced
(6,000 allowed vs 224,458 frozen), and ``check_regression.py`` gates the
wall clock.  The physics equivalence against a fine fixed-step reference
lives in ``tests/energy/test_adaptive_equivalence.py``.
"""

from benchmarks.conftest import run_once
from repro.core import Deployment, DeploymentConfig
from repro.core.config import StationConfig, reference_defaults

#: Maintenance cadence: one health/housekeeping sample every six hours.
MAINTENANCE_INTERVAL_S = 21600.0


def endurance_config() -> DeploymentConfig:
    base = StationConfig(sample_interval_s=MAINTENANCE_INTERVAL_S)
    reference = reference_defaults()
    reference.sample_interval_s = MAINTENANCE_INTERVAL_S
    return DeploymentConfig(seed=100, base=base, reference=reference,
                            probe_ids=())


def run_endurance() -> Deployment:
    """One station-pair endurance year."""
    deployment = Deployment(endurance_config())
    deployment.run_days(365)
    return deployment


def total_bus_syncs(deployment) -> int:
    families = deployment.sim.obs.metrics.families()
    return sum(int(m.value) for m in families.get("energy_syncs_total", []))


def test_endurance_year_adaptive(benchmark):
    deployment = run_once(benchmark, run_endurance)
    syncs = total_bus_syncs(deployment)
    benchmark.extra_info["energy_syncs_total"] = syncs
    benchmark.extra_info["events_processed"] = deployment.sim.events_processed
    # Scenario sanity: the endurance year must still *be* the endurance
    # year — both stations keep their daily cycle and never brown out.
    assert deployment.base.daily_runs >= 355
    assert deployment.reference.daily_runs >= 355
    assert len(deployment.sim.trace.select(kind="brownout")) == 0
    # Planned syncs only: load switches, predicted crossings, MAX_STEP_S
    # heartbeats.  Measured 2,921 for this seed; 6,000 leaves headroom for
    # schedule drift while staying far below the frozen fixed-tick 224,458.
    assert syncs < 6_000
