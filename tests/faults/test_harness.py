"""FaultEngine / apply_fault_plan wiring and end-to-end replay determinism."""

import pytest

from repro.core import Deployment, DeploymentConfig
from repro.faults import (
    FaultPlan,
    FaultSpec,
    Scenario,
    apply_fault_plan,
    canonical_chaos_plan,
)
from repro.lint.determinism import compare_replay, run_mission


def _short_plan() -> FaultPlan:
    day = 86400.0
    return FaultPlan(name="short", specs=[
        FaultSpec(kind="gprs-outage", station="base", at_s=0.25 * day,
                  duration_s=0.5 * day),
        FaultSpec(kind="rtc-reset", station="base", at_s=1.1 * day),
    ])


class TestApplyFaultPlan:
    def test_no_plan_anywhere_returns_none(self):
        deployment = Deployment(DeploymentConfig(seed=1))
        assert apply_fault_plan(deployment) is None

    def test_config_dict_plan_is_armed(self):
        config = DeploymentConfig(seed=1, fault_plan=_short_plan().to_dict())
        deployment = Deployment(config)
        engine = apply_fault_plan(deployment)
        assert engine is not None
        assert len(engine.resolved) == 2
        assert engine.checker is not None

    def test_explicit_plan_beats_config(self):
        config = DeploymentConfig(seed=1, fault_plan=_short_plan().to_dict())
        deployment = Deployment(config)
        other = FaultPlan(name="other", specs=[
            FaultSpec(kind="rtc-reset", station="base", at_s=10.0)])
        engine = apply_fault_plan(deployment, other)
        assert engine.plan.name == "other"
        # The invariant checker only observes, so it is armed with every plan.
        assert engine.checker is not None

    def test_unknown_station_rejected_at_arm_time(self):
        deployment = Deployment(DeploymentConfig(seed=1))
        plan = FaultPlan(specs=[
            FaultSpec(kind="rtc-reset", station="nunatak", at_s=10.0)])
        with pytest.raises(ValueError, match="unknown station"):
            apply_fault_plan(deployment, plan)

    def test_probe_loss_on_station_without_links_rejected(self):
        deployment = Deployment(DeploymentConfig(seed=1))
        plan = FaultPlan(specs=[
            FaultSpec(kind="probe-loss-spike", station="reference", at_s=0.0,
                      duration_s=3600.0)])
        with pytest.raises(ValueError, match="no probe links"):
            apply_fault_plan(deployment, plan)


class TestEndToEnd:
    def test_short_run_injects_and_recovers(self):
        deployment = Deployment(DeploymentConfig(seed=7))
        engine = apply_fault_plan(deployment, _short_plan())
        deployment.run_days(3.0)
        report = engine.finish()
        assert report.ok, report.format()
        assert len(report.outcomes) == 2
        kinds = {o.kind for o in report.outcomes}
        assert kinds == {"gprs-outage", "rtc-reset"}
        # The reset clock must have been restored within the run.
        rtc = next(o for o in report.outcomes if o.kind == "rtc-reset")
        assert rtc.result in ("clock_recovered", "recovery_failed_retry",
                              "implicit")

    def test_fault_records_in_trace_digest_stream(self):
        deployment = Deployment(DeploymentConfig(seed=7))
        apply_fault_plan(deployment, _short_plan())
        deployment.run_days(2.0)
        faults = [r for r in deployment.sim.trace.records
                  if r.source == "faults"]
        assert any(r.kind == "fault_injected" for r in faults)
        assert any(r.kind == "fault_cleared" for r in faults)


class TestReplayDeterminism:
    def test_same_seed_same_plan_identical_digest(self):
        scenario = Scenario.of(seed=5, days=2.0,
                               fault_plan=_short_plan().to_dict())
        _digest_a, lines_a = run_mission(scenario)
        _digest_b, lines_b = run_mission(scenario)
        report = compare_replay(5, 2.0, lines_a, lines_b)
        assert report.ok, report.summary()

    def test_plan_changes_the_digest(self):
        digest_plain, _ = run_mission(Scenario.of(seed=5, days=1.0))
        digest_faulted, _ = run_mission(Scenario.of(
            seed=5, days=1.0, fault_plan=_short_plan().to_dict()))
        assert digest_plain != digest_faulted

    def test_canonical_chaos_plan_covers_every_kind(self):
        from repro.faults.plan import FAULT_KINDS
        plan = canonical_chaos_plan()
        assert {s.kind for s in plan.specs} == set(FAULT_KINDS)
