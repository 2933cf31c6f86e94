"""Kernel performance microbenchmarks.

Unlike the experiment benches (which run once and assert shapes), these
use pytest-benchmark's real timing loops: they are the regression guard
for the discrete-event engine everything else runs on.
"""

import pytest

from repro.core import Deployment, DeploymentConfig
from repro.sim import Simulation


def test_timeout_throughput(benchmark):
    """Schedule-and-fire rate for bare timeouts."""

    def run():
        sim = Simulation(seed=1)
        for i in range(5000):
            sim.timeout(float(i % 97))
        sim.run()
        return sim.now

    result = benchmark(run)
    assert result == 96.0


def test_process_churn(benchmark):
    """Spawn/finish rate for short-lived processes."""

    def worker(sim):
        yield sim.timeout(1.0)
        return 1

    def run():
        sim = Simulation(seed=1)
        procs = [sim.process(worker(sim)) for _ in range(2000)]
        sim.run()
        return sum(p.value for p in procs)

    assert benchmark(run) == 2000


def test_process_ping_pong(benchmark):
    """Two processes alternating via events (context-switch cost)."""

    def run():
        sim = Simulation(seed=1)
        counter = {"n": 0}

        def pinger(sim):
            for _ in range(1000):
                yield sim.timeout(1.0)
                counter["n"] += 1

        def ponger(sim):
            for _ in range(1000):
                yield sim.timeout(1.0)
                counter["n"] += 1

        sim.process(pinger(sim))
        sim.process(ponger(sim))
        sim.run()
        return counter["n"]

    assert benchmark(run) == 2000


def test_trace_emission_rate(benchmark):
    """Structured-trace overhead (every subsystem logs through this)."""

    def run():
        sim = Simulation(seed=1)
        for i in range(5000):
            sim.trace.emit("bench", "tick", n=i)
        return len(sim.trace)

    assert benchmark(run) == 5000


def test_deployment_day_rate(benchmark):
    """Whole-system speed: one simulated day of the full deployment.

    The E19 year bench needs 365 of these; keep one day comfortably under
    a tenth of a second so the year stays under a minute.  Under the
    default fifo tie-break this is also the fifo arm the lifo and shuffle
    rows of ``test_tiebreak_performance.py`` compare against.
    """

    deployment = Deployment(DeploymentConfig(seed=1))

    def run_one_day():
        deployment.run_days(1)
        return deployment.sim.now

    benchmark.pedantic(run_one_day, rounds=5, iterations=1)
    assert deployment.base.daily_runs >= 5
