"""The fault engine: arm a :class:`FaultPlan` against a live deployment.

``apply_fault_plan(deployment, plan)`` arms a plan after a ``Deployment``
is constructed and before ``run_days``; :meth:`repro.faults.Scenario.build`
is the one caller in ``src/``.  It resolves the plan's schedule (seeded
stochastic windows included), groups window faults per target, installs
the injectors from :mod:`repro.faults.injectors`, and attaches an
:class:`~repro.faults.invariants.InvariantChecker`.  The checker only
observes, so it is always armed with the plan.

Layering note: ``repro.faults`` sits *above* ``repro.core`` — the engine
imports the deployment, never the reverse.  ``DeploymentConfig.fault_plan``
holds plain dict data only; turning that data into injectors is this
module's job, reached through :class:`repro.faults.Scenario`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.core.deployment import Deployment

from repro.faults.injectors import (
    GprsOutageInjector,
    ProbeLossInjector,
    ServerOutageInjector,
    inject_battery_drain,
    inject_rtc_fault,
    inject_storage_corruption,
)
from repro.faults.invariants import InvariantChecker, InvariantReport
from repro.faults.plan import FaultPlan, ResolvedFault


class FaultEngine:
    """A plan armed against one deployment.

    Holds the installed injectors (keeping their wrapped originals alive)
    and the invariant checker; :meth:`finish` returns the checker's
    report after the run.
    """

    def __init__(self, deployment: Deployment, plan: FaultPlan) -> None:
        self.deployment = deployment
        self.plan = plan
        self.resolved: List[ResolvedFault] = plan.resolve(deployment.sim.rng)
        self.injectors: List[object] = []
        self.checker = InvariantChecker(deployment.sim)
        self._arm()

    # ------------------------------------------------------------------
    def _station(self, name: str):
        for station in self.deployment.stations:
            if station.name == name:
                return station
        raise ValueError(
            f"fault plan {self.plan.name!r} targets unknown station {name!r}"
        )

    def _arm(self) -> None:
        sim = self.deployment.sim

        gprs_windows: Dict[str, List[Tuple[float, float]]] = {}
        probe_windows: Dict[str, List[Tuple[float, float, float]]] = {}
        #: shard index (None = whole server side) -> windows
        server_windows: Dict[Optional[int], List[Tuple[float, float]]] = {}

        for fault in self.resolved:
            if fault.kind == "gprs-outage":
                self._station(fault.station)  # validate early
                gprs_windows.setdefault(fault.station, []).append(
                    (fault.start_s, fault.end_s))
            elif fault.kind == "probe-loss-spike":
                station = self._station(fault.station)
                if not getattr(station, "probe_links", None):
                    raise ValueError(
                        f"probe-loss-spike targets {fault.station!r},"
                        f" which has no probe links")
                probe_windows.setdefault(fault.station, []).append(
                    (fault.start_s, fault.end_s, fault.spec.loss))
            elif fault.kind == "server-outage":
                shard = fault.spec.server
                if shard is not None:
                    fleet = getattr(self.deployment, "fleet", None)
                    if fleet is None or shard >= len(fleet.shards):
                        raise ValueError(
                            f"fault plan {self.plan.name!r} targets server"
                            f" shard {shard}, but the deployment has"
                            f" {len(fleet.shards) if fleet else 1} server(s)")
                server_windows.setdefault(shard, []).append(
                    (fault.start_s, fault.end_s))
            elif fault.kind == "rtc-reset":
                station = self._station(fault.station)
                inject_rtc_fault(sim, fault.station, station.msp.rtc,
                                 fault.start_s, skew_s=fault.spec.skew_s)
            elif fault.kind == "battery-drain":
                station = self._station(fault.station)
                inject_battery_drain(sim, fault.station, station.bus,
                                     fault.start_s, fault.spec.energy_j)
            elif fault.kind == "storage-corruption":
                station = self._station(fault.station)
                inject_storage_corruption(
                    sim, fault.station, station.card, fault.start_s,
                    files=fault.spec.files,
                    recover_after_s=fault.spec.recover_after_s)

        for name, windows in sorted(gprs_windows.items()):
            station = self._station(name)
            self.injectors.append(
                GprsOutageInjector(sim, name, station.modem, windows))
        for name, windows in sorted(probe_windows.items()):
            station = self._station(name)
            self.injectors.append(
                ProbeLossInjector(sim, name, station.probe_links.values(),
                                  windows))
        fleet = getattr(self.deployment, "fleet", None)
        for shard, windows in sorted(
            server_windows.items(), key=lambda item: (item[0] is not None, item[0] or 0)
        ):
            if shard is not None:
                # Per-shard outage: wrap that shard only, labelled by name.
                target = fleet.shards[shard]
                self.injectors.append(
                    ServerOutageInjector(sim, target, windows,
                                         station=target.name))
            elif fleet is not None:
                # Whole-server-side outage against a fleet: every shard
                # goes dark on the shared windows, announced once.
                self.injectors.append(
                    ServerOutageInjector(sim, fleet.shards, windows))
            else:
                self.injectors.append(
                    ServerOutageInjector(sim, self.deployment.server, windows))

    # ------------------------------------------------------------------
    def finish(self) -> InvariantReport:
        """Detach and report the invariant checker."""
        return self.checker.finish()


def apply_fault_plan(
    deployment: Deployment,
    plan: Union[FaultPlan, dict, None] = None,
) -> Optional[FaultEngine]:
    """Arm a fault plan against a deployment; the standard entry point.

    ``plan`` may be a :class:`FaultPlan`, its dict form, or ``None`` — in
    which case the deployment config's ``fault_plan`` dict is used, and if
    that is also empty, nothing is armed and ``None`` is returned.  Call
    this *before* ``run_days`` so scheduled faults land inside the run.
    """
    if plan is None:
        plan = getattr(deployment.config, "fault_plan", None)
    if plan is None:
        return None
    if isinstance(plan, dict):
        plan = FaultPlan.from_dict(plan)
    return FaultEngine(deployment, plan)
