"""One description of a run, and the one place that builds it.

A :class:`Scenario` holds everything that decides what a mission does:
the flat override map a sweep grid uses (``StationConfig`` fields plus
the scalar ``DeploymentConfig`` fields, so the fleet shape and the
kernel ``tie_break`` policy ride along), the seed and mission length,
the fault plan and alert rules, and the operator's manual power-state
override.  :meth:`Scenario.build` is the only code in ``src/`` that
turns such a description into a :class:`~repro.core.Deployment` with
its faults and alerts armed; the CLI run commands, every sweep job and
``repro-sim verify`` all go through it.

The plan and rules documents are stored as canonical JSON strings, so a
scenario is frozen, compares by content and is cheap to pickle into sweep
workers.

This module lives in :mod:`repro.faults` because that is the one layer
that may import both ``core`` and the fault engine and is still importable
from ``fleet``, ``lint`` and ``cli``.  Alerts are armed through the
``sim.obs`` handle, which keeps ``repro.obs`` out of this layer's imports.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Mapping, Optional, Tuple

from repro.core.config import DeploymentConfig, StationConfig
from repro.core.deployment import Deployment

from repro.faults.harness import apply_fault_plan

#: Override names that land on the base station's :class:`StationConfig`
#: (extra stations derive from it; the reference keeps its own defaults).
STATION_FIELDS = frozenset(f.name for f in dataclasses.fields(StationConfig))

#: Scalar :class:`DeploymentConfig` fields a scenario may override (fleet
#: shape, policies, tenancy, tie-break...).  The structured fields have
#: their own channels: the seed and the fault plan are scenario fields,
#: and the station, weather and glacier configs are not overridable.
DEPLOYMENT_FIELDS = frozenset(
    f.name for f in dataclasses.fields(DeploymentConfig)
) - {"seed", "base", "reference", "weather", "glacier", "fault_plan"}

#: Override items as a sorted tuple of pairs — canonical, so two maps
#: with the same content describe the same scenario.
OverrideItems = Tuple[Tuple[str, Any], ...]


def canonical_json(doc: Any) -> str:
    """Canonical JSON for a plan or rules document (sorted keys, compact)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def check_overrides(overrides: Mapping[str, Any]) -> None:
    """Raise ValueError naming any override that is not a known field."""
    unknown = set(overrides) - STATION_FIELDS - DEPLOYMENT_FIELDS
    if unknown:
        raise ValueError(
            f"unknown StationConfig/DeploymentConfig field(s): {sorted(unknown)}")


@dataclasses.dataclass(frozen=True)
class Scenario:
    """Everything that describes one run; :meth:`build` makes it live.

    Construct with :meth:`of` from plain values; the raw constructor is
    the sweep's fast path and takes already-canonical fields.
    """

    overrides: OverrideItems = ()
    seed: int = 0
    days: float = 7.0
    #: Canonical JSON of the fault plan's dict form (None = no faults).
    fault_plan_json: Optional[str] = None
    #: Canonical JSON of the alert-rules document (None = no rules).
    alert_rules_json: Optional[str] = None
    #: Server-side manual power-state override (None = none set).
    manual_override: Optional[int] = None

    @classmethod
    def of(cls, overrides: Optional[Mapping[str, Any]] = None, *,
           seed: int = 0, days: float = 7.0, fault_plan: Any = None,
           alert_rules: Any = None,
           manual_override: Optional[int] = None) -> "Scenario":
        """A scenario from an override map and parsed plan/rules documents."""
        overrides = dict(overrides or {})
        check_overrides(overrides)
        return cls(
            overrides=tuple(sorted(overrides.items())),
            seed=int(seed),
            days=float(days),
            fault_plan_json=None if fault_plan is None else canonical_json(fault_plan),
            alert_rules_json=None if alert_rules is None else canonical_json(alert_rules),
            manual_override=manual_override,
        )

    @property
    def tie_break(self) -> str:
        """The kernel's same-timestamp ordering policy for this run."""
        return dict(self.overrides).get("tie_break", "fifo")

    def with_overrides(self, **overrides: Any) -> "Scenario":
        """This scenario with some override values replaced or added."""
        check_overrides(overrides)
        merged = dict(self.overrides, **overrides)
        return dataclasses.replace(self, overrides=tuple(sorted(merged.items())))

    def build(self) -> Deployment:
        """A ready-to-run deployment: faults armed, override set, alerts on.

        The armed :class:`~repro.faults.FaultEngine` (with its invariant
        checker) is ``deployment.fault_engine``; the alert engine is
        ``deployment.sim.obs.alerts``, settled by ``obs.finalise``.
        """
        base = StationConfig()
        deployment_kwargs = {}
        for name, value in self.overrides:
            if name in DEPLOYMENT_FIELDS:
                deployment_kwargs[name] = value
            else:
                setattr(base, name, value)
        deployment = Deployment(DeploymentConfig(seed=self.seed, base=base,
                                                 **deployment_kwargs))
        if self.fault_plan_json is not None:
            deployment.fault_engine = apply_fault_plan(
                deployment, json.loads(self.fault_plan_json))
        if self.manual_override is not None:
            deployment.set_manual_override(self.manual_override)
        if self.alert_rules_json is not None:
            deployment.sim.obs.arm_alerts(json.loads(self.alert_rules_json),
                                          deployment.sim.trace)
        return deployment
