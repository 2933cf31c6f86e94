"""Fleet-scale fault drill: per-shard outages under the invariant checker.

The tentpole acceptance scenario — a 20-station, two-shard mission with
each shard taken down separately — must hold every recovery invariant and
close the provenance ledger with nothing lost unaccounted.
"""

import json
import os

import pytest

from repro.core import Deployment, DeploymentConfig
from repro.core.config import StationConfig
from repro.faults import apply_fault_plan

PLAN_PATH = os.path.join(os.path.dirname(__file__), "..", "..",
                         "examples", "faults", "fleet_outage.json")


@pytest.fixture(scope="module")
def mission():
    with open(PLAN_PATH, "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    base = StationConfig(batched_sync=True)
    deployment = Deployment(DeploymentConfig(
        seed=5, base=base, extra_stations=18, servers=2,
        server_policy="hop", fault_plan=plan))
    engine = apply_fault_plan(deployment)
    deployment.run_days(6)
    conservation = deployment.sim.obs.finalise(deployment.sim)
    report = engine.finish()
    return deployment, report, conservation


class TestFleetOutageDrill:
    def test_mission_shape(self, mission):
        deployment, _report, _conservation = mission
        assert len(deployment.stations) == 20
        assert len(deployment.server.shards) == 2

    def test_no_invariant_violations(self, mission):
        _deployment, report, _conservation = mission
        assert report.ok, report.format()

    def test_both_shard_outages_tracked_separately(self, mission):
        _deployment, report, _conservation = mission
        targets = {o.station for o in report.outcomes
                   if o.kind == "server-outage"}
        assert targets == {"server0", "server1"}

    def test_shard_outages_resolve_by_reconnection(self, mission):
        _deployment, report, _conservation = mission
        outages = [o for o in report.outcomes if o.kind == "server-outage"]
        assert outages and all(o.result == "reconnected" for o in outages)

    def test_provenance_conserves_every_artifact(self, mission):
        _deployment, _report, conservation = mission
        assert conservation is not None
        assert conservation.ok, conservation.format()

    def test_stations_kept_uploading_through_outages(self, mission):
        deployment, _report, _conservation = mission
        assert deployment.server.received_bytes() > 0
        # Both shards took uploads despite each losing a window.
        assert all(shard.received_bytes() > 0
                   for shard in deployment.server.shards)
