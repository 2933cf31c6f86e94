"""Sweep runs/second on the batched warm-worker engine.

One 500-job campaign (125 configs x 4 seeds, one simulated day each,
``--jobs 2``) through :func:`repro.fleet.run_sweep`: warm workers take
64-job chunks, do their own cache I/O, and ship metric-stripped records
plus one lossless partial rollup per chunk; warm-cache hits are loaded
parent-side and never reach the pool.

The one-future-per-job engine it replaced is retired.  Its measured cost
on this campaign — 7,232,715 IPC payload bytes and 500 parent folds, 9.3 s
cold on the pinning host — stays frozen under the rows' ``baselines`` in
``BENCH.json``.  The cold row's counter ``max`` bounds keep the >= 10x
IPC-payload and parent-fold reductions enforced, and
``check_regression.py`` gates the wall clock.  The cold
and warm sweeps must reproduce the sweep and rollup bytes both engines
agreed on (:data:`SWEEP_SHA`, :data:`ROLLUP_SHA`).  Run the whole module:
the warm arm reads the cache the cold arm fills.
"""

import hashlib

import pytest

from repro.fleet import (
    SweepCache,
    SweepSpec,
    expand_grid,
    run_sweep,
    sweep_to_json,
)

#: 125 configs x 4 seeds = 500 jobs, one simulated day each.
GRID = {"solar_w": [4, 6, 8, 10, 12],
        "wake_hour": [6, 7, 8, 9, 10],
        "comms_hour": [11, 12, 13, 14, 15]}
SEEDS = (0, 1, 2, 3)
DAYS = 1.0
JOBS = 2
#: Pinned (not adaptive) so the chunking — and with it the IPC payload
#: and fold counters — is deterministic: 500 jobs -> 8 chunks.
CHUNK_SIZE = 64
TOTAL_RUNS = 500

#: SHA-256 of the campaign's sweep JSON and rollup JSON, identical from
#: the batched and the retired per-job engine when both were live.
SWEEP_SHA = "2f763f291fba713262d70a66338f38dc12e9998ca58aa788dcf312be5bb696d8"
ROLLUP_SHA = "d24ad2baf5094b0b5036461cf670f1efb55c4b5c2cdb574eaa50c4db83ad460f"


def spec() -> SweepSpec:
    return SweepSpec(grid=expand_grid(GRID), seeds=list(SEEDS), days=DAYS)


def run_campaign(cache_root: str):
    """One full sweep into ``cache_root``; returns its result."""
    result = run_sweep(spec(), jobs=JOBS, cache=SweepCache(cache_root),
                       chunk_size=CHUNK_SIZE)
    assert len(result.runs) == TOTAL_RUNS
    assert hashlib.sha256(sweep_to_json(result).encode()).hexdigest() == SWEEP_SHA
    assert hashlib.sha256(result.rollup.to_json().encode()).hexdigest() == ROLLUP_SHA
    return result


@pytest.fixture(scope="module")
def cache_root(tmp_path_factory):
    return str(tmp_path_factory.mktemp("sweep-bench"))


#: Warm passes are idempotent, so the warm row times several and the gate
#: reads their min: one ~300 ms pass on a 2-CPU host can read 1.6x its
#: pinned time on noise alone.
WARM_ROUNDS = 5


def _measure(benchmark, cache_root: str, rounds: int = 1):
    result = benchmark.pedantic(run_campaign, args=(cache_root,),
                                rounds=rounds, iterations=1)
    for key in ("ipc_payload_bytes", "parent_folds", "chunks_dispatched",
                "cache_hits", "cache_misses"):
        benchmark.extra_info[key] = getattr(result, key)
    return result


def test_sweep_cold_batched(benchmark, cache_root):
    result = _measure(benchmark, cache_root)
    assert result.cache_misses == TOTAL_RUNS
    # One partial merge per chunk, not one fold per run.
    assert result.chunks_dispatched == -(-TOTAL_RUNS // CHUNK_SIZE)
    assert result.parent_folds == result.chunks_dispatched


def test_sweep_warm_batched(benchmark, cache_root):
    result = _measure(benchmark, cache_root, rounds=WARM_ROUNDS)
    assert result.cache_hits == TOTAL_RUNS
    # Warm hits are parent-side loads; the pool never opens.
    assert result.chunks_dispatched == 0
