"""Tie-break policy overhead benchmarks.

The perturbed-tie replay harness only earns its keep if running under a
non-default policy is cheap: the whole point is to replay full missions
routinely (CI smoke, 45-day acceptance runs).  The fifo default must pay
*nothing* — it keeps the inlined schedule fast path — and shuffle, the
expensive policy (one PRNG draw plus a 128-bit key per event), must stay
within 10% of fifo on the whole-system deployment-day benchmark.

The fifo arm is ``test_kernel_performance.py::test_deployment_day_rate``
(the same seed-1 day under the default policy), so it is not timed twice
here.  ``BENCH.json`` pins the lifo and shuffle wall-clock minima and the
shuffle/fifo ratio (as an ``extra_info`` counter bound:
``shuffle_over_fifo_pct`` ≤ 110), checked by ``check_regression.py``.
"""

import time

from repro.core import Deployment, DeploymentConfig


def _day_runner(policy):
    deployment = Deployment(DeploymentConfig(seed=1, tie_break=policy))

    def run_one_day():
        deployment.run_days(1)
        return deployment.sim.now

    return deployment, run_one_day


def test_deployment_day_lifo(benchmark):
    """lifo exercises the slow-path key without the PRNG draw."""
    deployment, run_one_day = _day_runner("lifo")
    benchmark.pedantic(run_one_day, rounds=5, iterations=1)
    assert deployment.base.daily_runs >= 5


def test_deployment_day_shuffle(benchmark):
    """shuffle is the worst case; its overhead vs fifo is the pinned claim.

    The fifo comparison runs inline (same host, same moment, min-of-5 on
    identical day sequences) so the recorded ratio is noise-resistant;
    ``check_regression.py`` gates it via the counter bound rather than the
    host-dependent absolute time.
    """
    _, fifo_day = _day_runner("fifo")
    fifo_times = []
    for _ in range(5):
        start = time.perf_counter()
        fifo_day()
        fifo_times.append(time.perf_counter() - start)

    deployment, run_one_day = _day_runner("shuffle:1")
    benchmark.pedantic(run_one_day, rounds=5, iterations=1)
    assert deployment.base.daily_runs >= 5

    shuffle_min = benchmark.stats.stats.min
    ratio_pct = 100.0 * shuffle_min / min(fifo_times)
    benchmark.extra_info["shuffle_over_fifo_pct"] = round(ratio_pct, 1)
