"""Observability overhead guard.

The default tier (metrics registry + explicit spans, kernel spans OFF;
trace records are counted at export time, never per record) must cost
the kernel hot loop less than 10% versus running with no Observability
attached at all.  The opt-in kernel-span tier is not timed: turning it on
is an explicit request for per-event detail and is allowed to cost more.
``tests/sim/test_hot_path.py`` pins what each tier's run must produce.

The provenance ledger rides the same budget: a full mission with the
ledger subscribed must stay within 10% of the identical mission with it
detached.  CI also re-times the two mission arms as pytest-benchmark
rows gated against ``BENCH.json``.
"""

import time

from repro.core import Deployment, DeploymentConfig
from repro.sim import Simulation

EVENTS = 5000
#: Rounds of the overhead guard; each round times one bare and one obs run.
ROUNDS = 15


def timeout_workload(sim: Simulation) -> float:
    for i in range(EVENTS):
        sim.timeout(float(i % 97))
    sim.run()
    return sim.now


def timed(build) -> float:
    """Wall time of the workload on one fresh simulation."""
    sim = build()
    start = time.perf_counter()
    timeout_workload(sim)
    return time.perf_counter() - start


def best_alternating(rounds: int, *builds) -> list:
    """Each arm's minimum wall time over ``rounds`` rounds.

    Every round times each arm once, in turn, so a burst of host load
    slows both arms alike instead of one arm's whole block.
    """
    best = [float("inf")] * len(builds)
    for _ in range(rounds):
        for arm, build in enumerate(builds):
            best[arm] = min(best[arm], timed(build))
    return best


def bare_sim() -> Simulation:
    sim = Simulation(seed=1)
    sim.obs = None  # the kernel treats a missing hub as "fully disabled"
    return sim


def default_sim() -> Simulation:
    return Simulation(seed=1)


def test_default_obs_overhead_under_10_percent():
    """The always-on tier stays within the ISSUE's <10% step budget."""
    # Warm both paths once so allocator/caches don't bias the first timing.
    timeout_workload(bare_sim())
    timeout_workload(default_sim())
    baseline, with_obs = best_alternating(ROUNDS, bare_sim, default_sim)
    overhead = with_obs / baseline - 1.0
    assert overhead < 0.10, (
        f"default observability costs {overhead:.1%} per kernel step "
        f"(baseline {baseline * 1e3:.2f} ms, with obs {with_obs * 1e3:.2f} ms)"
    )


# ----------------------------------------------------------------------
# Provenance ledger A/B (mission workload, not the bare kernel loop)
# ----------------------------------------------------------------------
MISSION_DAYS = 2.0
MISSION_SEED = 1
MISSION_REPEATS = 5


def mission(provenance: bool) -> Deployment:
    deployment = Deployment(DeploymentConfig(seed=MISSION_SEED))
    if not provenance:
        deployment.sim.obs.provenance.detach()
    deployment.run_days(MISSION_DAYS)
    return deployment


def test_provenance_overhead_under_10_percent():
    """Ledger marginal cost vs the ledger-off mission: <10% (the S5 guard).

    A whole-mission on/off A/B cannot resolve a 10% budget here — host
    jitter on a ~40 ms mission routinely exceeds it.  The ledger is a
    pure trace subscriber (it does no work outside ``observe``), so its
    marginal cost *is* the cost of feeding the mission's record stream
    through ``observe`` — which times stably, and is compared against the
    best ledger-off mission time.
    """
    deployment = mission(True)
    records = deployment.sim.trace.records
    assert records, "mission produced no trace records"
    from repro.obs.provenance import ProvenanceLedger

    replay = float("inf")
    for _ in range(20):
        ledger = ProvenanceLedger()
        start = time.perf_counter()
        for record in records:
            ledger.observe(record)
        replay = min(replay, time.perf_counter() - start)
    baseline = float("inf")
    for _ in range(MISSION_REPEATS):
        start = time.perf_counter()
        mission(False)
        baseline = min(baseline, time.perf_counter() - start)
    overhead = replay / baseline
    assert overhead < 0.10, (
        f"provenance ledger costs {overhead:.1%} of the mission "
        f"(ledger {replay * 1e3:.2f} ms over {len(records)} records, "
        f"mission {baseline * 1e3:.2f} ms)"
    )


def test_mission_with_provenance(benchmark):
    """BENCH.json row: the mission with the ledger subscribed.

    ``extra_info`` pins the deterministic artifact accounting for the
    benchmark seed, so check_regression bounds correctness alongside time.
    """
    deployments = []

    def run():
        deployments.append(mission(True))

    benchmark.pedantic(run, rounds=3, iterations=1)
    report = deployments[-1].sim.obs.finalise(deployments[-1].sim)
    assert report.ok
    benchmark.extra_info["provenance_created"] = report.created
    benchmark.extra_info["provenance_conserved"] = 1 if report.conserved else 0


def test_mission_without_provenance(benchmark):
    """BENCH.json row: the identical mission with the ledger detached."""

    def run():
        mission(False)

    benchmark.pedantic(run, rounds=3, iterations=1)
