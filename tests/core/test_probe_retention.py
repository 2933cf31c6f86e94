"""What a probe mission keeps in memory once its readings leave the probes.

A completed task is staged as one :class:`~repro.protocol.framing.
ReadingColumns`, the fetcher forgets it, and the provenance ledger keeps
its reading rows as columns, so the memory a fetched reading costs stays
small while it waits out the station's upload backlog.
"""

import gc
import tracemalloc

import pytest

from repro.core import Deployment, DeploymentConfig

#: tracemalloc bytes still held at mission close per reading taken, for
#: the mission below, when every staged reading was a dict, the fetcher
#: kept every task and the ledger kept one object per reading (Python 3.11).
DICT_PER_READING_BYTES = 898


@pytest.fixture(scope="module")
def mission():
    """12 d, 7 probes at 2 min: long enough that thousands of fetched
    readings sit queued on the station card at close (before about day 5
    every reading is still on a probe or already archived)."""
    deployment = Deployment(DeploymentConfig(seed=4, probe_sampling_interval_s=120.0))
    gc.collect()
    tracemalloc.start()
    try:
        deployment.run_days(12)
        report = deployment.sim.obs.finalise(deployment.sim)
        gc.collect()
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return deployment, report, retained


def test_fetcher_forgets_completed_tasks(mission):
    deployment, _report, _retained = mission
    completed = {(int(record.source.split(".")[1]), record.detail["task"])
                 for record in deployment.sim.trace.select(kind="task_complete")}
    assert len(completed) >= 7
    fetcher = deployment.base.fetcher
    assert not completed & (set(fetcher.store) | set(fetcher.received))


def test_retained_bytes_per_reading(mission):
    deployment, report, retained = mission
    assert report.ok
    assert report.by_class["reading"]["queued"] > 10_000
    taken = sum(probe.readings_taken for probe in deployment.base.probes)
    assert retained / taken <= DICT_PER_READING_BYTES / 3


def test_one_seqs_list_per_fetch(mission):
    """A staged probes file's ``queued`` record shares its fetch's
    ``new_seqs`` list instead of holding a copy of it."""
    deployment, _report, _retained = mission
    trace = deployment.sim.trace
    fetched = {(record.detail["probe"], record.detail["task"],
                tuple(record.detail["new_seqs"])): record.detail["new_seqs"]
               for record in trace.select(kind="fetch_done")
               if record.detail["received_new"]}
    queued = [record.detail for record in trace.select(kind="queued")
              if record.source == "prov" and "probe" in record.detail]
    assert len(queued) == len(fetched) > 0
    for detail in queued:
        key = (detail["probe"], detail["task"], tuple(detail["seqs"]))
        assert detail["seqs"] is fetched[key]
