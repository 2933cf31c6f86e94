"""Provenance ledger: conservation, loss attribution, anomaly policing.

Unit tests drive the ledger through a bare :class:`Trace`; integration
tests run real deployments and require the mission-close identity

    created == archived + in_flight + lost

to hold exactly, with every lost artifact attributed to the injected
fault that destroyed it, byte-stably across replays and tie-break
policies.
"""

import json

from repro.core import Deployment, DeploymentConfig
from repro.faults import apply_fault_plan
from repro.obs.provenance import ProvenanceLedger
from repro.sim.simtime import SimClock
from repro.sim.trace import Trace


def make_rig():
    clock = SimClock()
    trace = Trace(clock)
    ledger = ProvenanceLedger()
    ledger.attach(trace)
    return clock, trace, ledger


class TestLifecycle:
    def test_reading_lifecycle_to_archive(self):
        clock, trace, ledger = make_rig()
        trace.emit("prov", "created", cls="reading", probe=3, task=1,
                   first_seq=0, count=2)
        clock.advance_to(60.0)
        trace.emit("protocol.bulk", "fetch_done", task=1, probe=3,
                   new_seqs=[0, 1], rerequested=0)
        clock.advance_to(120.0)
        trace.emit("prov", "queued", station="base", file="outbox/probes/000001",
                   file_kind="probes", bytes=64, probe=3, task=1, seqs=[0, 1])
        clock.advance_to(180.0)
        trace.emit("prov", "transferred", station="base",
                   file="outbox/probes/000001", bytes=64)
        clock.advance_to(240.0)
        trace.emit("prov", "archived", station="base",
                   file="outbox/probes/000001", file_kind="probes", bytes=64)
        report = ledger.finish(clock.now)
        assert report.ok
        # 2 readings + their carrier file.
        assert report.created == 3 and report.archived == 3
        assert report.by_class["reading"] == {"archived": 2}
        assert report.by_class["file"] == {"archived": 1}

    def test_gps_artifact_rides_its_file(self):
        clock, trace, ledger = make_rig()
        trace.emit("prov", "created", cls="gps", artifact="gps:gps/base/0001.obs")
        clock.advance_to(30.0)
        trace.emit("prov", "stored", cls="gps", artifact="gps:gps/base/0001.obs")
        trace.emit("prov", "queued", station="base", file="outbox/gps/000001",
                   file_kind="gps", bytes=900, artifact="gps:gps/base/0001.obs")
        clock.advance_to(90.0)
        trace.emit("prov", "archived", station="base", file="outbox/gps/000001",
                   file_kind="gps", bytes=900)
        report = ledger.finish(clock.now)
        assert report.ok and report.archived == 2

    def test_retransfer_is_idempotent_not_anomalous(self):
        clock, trace, ledger = make_rig()
        trace.emit("prov", "queued", station="base", file="outbox/logs/000001",
                   file_kind="logs", bytes=10)
        clock.advance_to(10.0)
        trace.emit("prov", "transferred", station="base", file="outbox/logs/000001")
        clock.advance_to(20.0)
        trace.emit("prov", "transferred", station="base", file="outbox/logs/000001")
        report = ledger.finish(clock.now)
        assert report.ok
        assert report.in_flight == 1

    def test_lost_attributed_to_fault_and_conserved(self):
        clock, trace, ledger = make_rig()
        trace.emit("prov", "queued", station="base", file="outbox/probes/000001",
                   file_kind="probes", bytes=64, probe=1, task=2, seqs=[])
        trace.emit("prov", "created", cls="reading", probe=1, task=2,
                   first_seq=0, count=3)
        trace.emit("prov", "queued", station="base", file="outbox/probes/000002",
                   file_kind="probes", bytes=64, probe=1, task=2, seqs=[0, 1, 2])
        clock.advance_to(100.0)
        trace.emit("faults", "fault_injected", station="base",
                   fault="storage-corruption",
                   files=["outbox/probes/000002", "state/last_run"])
        report = ledger.finish(clock.now)
        assert report.ok
        # The destroyed file took its 3 readings with it; untracked
        # state/last_run is ignored; file 000001 stays in flight.
        assert report.lost == 4
        assert report.lost_by_cause == {"storage-corruption": 4}
        assert report.in_flight == 1

    def test_archived_artifact_survives_local_destruction(self):
        clock, trace, ledger = make_rig()
        trace.emit("prov", "queued", station="base", file="outbox/gps/000001",
                   file_kind="gps", bytes=900)
        clock.advance_to(50.0)
        trace.emit("prov", "archived", station="base", file="outbox/gps/000001",
                   file_kind="gps", bytes=900)
        trace.emit("faults", "fault_injected", station="base",
                   fault="storage-corruption", files=["outbox/gps/000001"])
        report = ledger.finish(clock.now)
        assert report.ok and report.lost == 0 and report.archived == 1

    def test_rerequested_counts_without_moving_stage(self):
        clock, trace, ledger = make_rig()
        trace.emit("prov", "created", cls="reading", probe=2, task=9,
                   first_seq=0, count=2)
        trace.emit("protocol.bulk", "fetch_done", task=9, probe=2,
                   new_seqs=[0, 1], rerequested=5)
        counter = ledger.metrics.counter("provenance_edges_total",
                                         stage="rerequested", cls="reading")
        assert counter.value == 5


class TestAnomalies:
    def test_double_archive_flags_anomaly(self):
        clock, trace, ledger = make_rig()
        trace.emit("prov", "queued", station="base", file="outbox/logs/000001",
                   file_kind="logs", bytes=10)
        trace.emit("prov", "archived", station="base", file="outbox/logs/000001")
        trace.emit("prov", "archived", station="base", file="outbox/logs/000001")
        report = ledger.finish(clock.now)
        assert report.conserved and not report.ok
        assert any("duplicate archive" in a for a in report.anomalies)

    def test_edge_after_lost_flags_anomaly(self):
        clock, trace, ledger = make_rig()
        trace.emit("prov", "queued", station="base", file="outbox/logs/000001",
                   file_kind="logs", bytes=10)
        trace.emit("faults", "fault_injected", station="base",
                   fault="storage-corruption", files=["outbox/logs/000001"])
        trace.emit("prov", "transferred", station="base", file="outbox/logs/000001")
        report = ledger.finish(clock.now)
        assert not report.ok
        assert any("lost artifact" in a for a in report.anomalies)

    def test_unknown_artifact_edge_flags_anomaly(self):
        clock, trace, ledger = make_rig()
        trace.emit("prov", "transferred", station="base", file="outbox/ghost/000009")
        report = ledger.finish(clock.now)
        assert any("unknown artifact" in a for a in report.anomalies)

    def test_finish_is_idempotent(self):
        clock, trace, ledger = make_rig()
        trace.emit("prov", "queued", station="base", file="outbox/logs/000001",
                   file_kind="logs", bytes=10)
        assert ledger.finish(clock.now) is ledger.finish(clock.now)


def run_mission(days=3.0, seed=11, plan=None, tie_break="fifo"):
    deployment = Deployment(DeploymentConfig(seed=seed, tie_break=tie_break))
    if plan is not None:
        apply_fault_plan(deployment, plan)
    deployment.run_days(days)
    report = deployment.sim.obs.finalise(deployment.sim)
    return deployment, report


class TestMissionConservation:
    def test_clean_mission_conserves_with_no_loss(self):
        _deployment, report = run_mission()
        assert report.ok
        assert report.created > 0 and report.archived > 0
        assert report.lost == 0 and report.lost_by_cause == {}

    def test_ledger_does_not_perturb_the_mission(self):
        """Attaching provenance must not change simulated behaviour."""
        with_ledger = Deployment(DeploymentConfig(seed=11))
        with_ledger.run_days(2.0)
        without = Deployment(DeploymentConfig(seed=11))
        without.sim.obs.provenance.detach()
        without.sim.obs.provenance = None
        without.run_days(2.0)
        assert with_ledger.sim.now == without.sim.now
        assert (with_ledger.server.received_bytes()
                == without.server.received_bytes())
        assert with_ledger.base.daily_runs == without.base.daily_runs

    def test_injected_loss_is_fully_attributed(self):
        # Discovery pass: find a file staged on day 1 so the rerun can
        # destroy it shortly after it is queued (before any transfer).
        probe_deployment, _ = run_mission(days=2.0)
        queued = [r for r in probe_deployment.sim.trace.select(kind="queued")
                  if r.source == "prov" and r.detail["station"] == "base"]
        target = queued[0]
        plan = {"name": "lose-one", "faults": [{
            "kind": "storage-corruption", "station": "base",
            "at_s": target.time + 1.0, "files": [target.detail["file"]],
        }]}
        _deployment, report = run_mission(days=2.0, plan=plan)
        assert report.ok
        assert report.lost >= 1
        assert set(report.lost_by_cause) == {"storage-corruption"}
        assert sum(report.lost_by_cause.values()) == report.lost

    def test_conservation_byte_stable_across_replays_and_tiebreaks(self):
        docs = []
        for tie_break in ("fifo", "fifo", "lifo", "shuffle:0"):
            _deployment, report = run_mission(days=2.0, tie_break=tie_break)
            docs.append(json.dumps(report.to_dict(), sort_keys=True))
        assert len(set(docs)) == 1
