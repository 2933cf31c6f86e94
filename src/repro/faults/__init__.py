"""Deterministic fault injection for the deployment's field-failure paths.

The paper is a deployment-experience report: its contributions exist
because things broke on the glacier.  This package makes those breakages
*schedulable* — a declarative, seeded :class:`FaultPlan` injects GPRS
outages, probe-radio loss spikes, CF-card corruption, RTC resets/skews,
battery drain shocks and server outages into a live deployment, while an
:class:`InvariantChecker` asserts the recovery properties the paper
claims.  Same seed + same plan reproduces byte-identical traces.

Typical use::

    from repro.faults import Scenario, canonical_chaos_plan

    scenario = Scenario.of(seed=42, days=45,
                           fault_plan=canonical_chaos_plan().to_dict())
    deployment = scenario.build()
    deployment.run_days(scenario.days)
    report = deployment.fault_engine.finish()
    assert report.ok, report.format()

:class:`Scenario` is the one description of a run (overrides, seed, days,
fault plan, alert rules, manual override) and :meth:`Scenario.build` the
one place that constructs and arms a deployment from it.
"""

from repro.faults.harness import FaultEngine, apply_fault_plan
from repro.faults.invariants import (
    FaultOutcome,
    InvariantChecker,
    InvariantReport,
    Violation,
)
from repro.faults.plan import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    ResolvedFault,
    canonical_chaos_plan,
)
from repro.faults.scenario import Scenario

__all__ = [
    "FAULT_KINDS",
    "FaultEngine",
    "FaultOutcome",
    "FaultPlan",
    "FaultSpec",
    "InvariantChecker",
    "InvariantReport",
    "ResolvedFault",
    "Scenario",
    "Violation",
    "apply_fault_plan",
    "canonical_chaos_plan",
]
