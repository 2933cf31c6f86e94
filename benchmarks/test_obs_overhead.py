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

import statistics
import time

from repro.core import Deployment, DeploymentConfig
from repro.sim import Simulation

EVENTS = 5000
#: Rounds of the overhead guard; each round times one bare and one obs
#: run back to back, and the guard gates the median of the paired ratios.
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


def paired_ratios(rounds: int, baseline_build, build) -> list:
    """Per round, the wall time of ``build`` over that of ``baseline_build``.

    Every round times the baseline arm and then the other arm back to
    back, so a burst of host load slows both halves of a pair alike and
    moves that round's ratio far less than either arm's own minimum.
    """
    ratios = []
    for _ in range(rounds):
        baseline = timed(baseline_build)
        ratios.append(timed(build) / baseline)
    return ratios


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
    ratios = paired_ratios(ROUNDS, bare_sim, default_sim)
    overhead = statistics.median(ratios) - 1.0
    assert overhead < 0.10, (
        f"default observability costs {overhead:.1%} per kernel step "
        f"(median of {ROUNDS} paired rounds; ratio quartiles "
        f"{', '.join(f'{q:.3f}' for q in statistics.quantiles(ratios, n=4))})"
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
