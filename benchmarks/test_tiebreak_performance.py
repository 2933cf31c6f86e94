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
``shuffle_over_fifo_pct`` ≤ 110), checked by ``check_regression.py``; the
ratio's own fifo days are timed inline, interleaved with the shuffle days.
"""

import statistics
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

    The fifo comparison runs inline, interleaved round by round: fifo day
    ``i`` is timed in the round's setup hook just before shuffle day ``i``
    (identical day sequences), so a burst of host load slows both arms of
    a round alike.  The recorded ratio is the median over rounds of
    shuffle day ``i`` over fifo day ``i``, gated by ``check_regression.py``
    via the counter bound rather than the host-dependent absolute time.
    """
    # Run the timed days once untimed first: the environment's noise-block
    # and season caches are shared by both arms, and whichever arm ran a
    # day first would pay all of that day's misses.
    Deployment(DeploymentConfig(seed=1)).run_days(5)
    _, fifo_day = _day_runner("fifo")
    fifo_times = []

    def time_fifo_day():
        start = time.perf_counter()
        fifo_day()
        fifo_times.append(time.perf_counter() - start)

    deployment, run_one_day = _day_runner("shuffle:1")
    benchmark.pedantic(run_one_day, setup=time_fifo_day, rounds=5, iterations=1)
    assert deployment.base.daily_runs >= 5

    ratios = [shuffle / fifo for shuffle, fifo in zip(benchmark.stats.stats.data, fifo_times)]
    benchmark.extra_info["shuffle_over_fifo_pct"] = round(100.0 * statistics.median(ratios), 1)
