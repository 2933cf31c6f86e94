"""``repro-sim verify``: every dynamic check on one scenario, one verdict.

Three checks guard the paper's mechanisms (the §III min-rule state sync,
§IV RTC-reset recovery, §V NACK-free transfer, the watchdog-bounded
window), and all three run on the same :class:`~repro.faults.Scenario`:

1. **same-seed replay** — built and run twice, the scenario must give
   byte-identical traces (:mod:`repro.lint.determinism`);
2. **tie replay** — run under a perturbed same-timestamp policy
   (``shuffle:1``), it must tell the same tie-normalized story
   (:mod:`repro.lint.tie_replay`);
3. **invariants and conservation** — the recovery invariants hold under
   the scenario's fault plan, and the provenance ledger accounts for
   every artifact.

The invariant checker only observes (it draws no randomness and emits no
trace records), so the first run serves all three checks and a verify
costs three runs.  A mission that emits no trace records proves nothing,
so an empty trace fails every check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.lint.determinism import (
    DeterminismReport,
    compare_replay,
    run_mission,
    trace_lines,
)
from repro.lint.tie_replay import (
    TieReplayReport,
    check_tie_robustness,
    policy_factory,
)

#: The perturbed tie-break policy replayed against the scenario's own.
PERTURBED_POLICY = "shuffle:1"


@dataclass(frozen=True)
class VerifyReport:
    """The three verdicts on one scenario."""

    determinism: DeterminismReport
    ties: TieReplayReport
    #: Recovery-invariant report (None when the scenario arms no plan).
    invariants: Optional[Any]
    #: Provenance conservation report.
    conservation: Any
    #: The first run's deployment, kept for metric and span exports.
    mission: Any = field(default=None, compare=False, repr=False)

    @property
    def checks(self) -> Dict[str, bool]:
        """Pass/fail per check; an empty trace fails all three."""
        invariants_ok = self.invariants is None or self.invariants.ok
        conserved = self.conservation.ok
        return {
            "determinism": self.determinism.ok,
            "tie_replay": self.ties.robust,
            "invariants": (self.determinism.records > 0
                           and invariants_ok and conserved),
        }

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def format(self) -> str:
        """Human-readable report: each check's block, then the verdict."""
        lines = [self.determinism.summary(), self.ties.format()]
        lines.append(self.invariants.format() if self.invariants is not None
                     else "invariants: no fault plan armed")
        lines.append(self.conservation.format())
        failed = [name for name, passed in self.checks.items() if not passed]
        lines.append(f"verify FAILED: {', '.join(failed)}" if failed
                     else "verify OK: replay, tie replay and invariants agree")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form for ``--report-out FILE.json``."""
        invariants = None
        if self.invariants is not None:
            invariants = {
                "ok": self.invariants.ok,
                "violations": [str(v) for v in self.invariants.violations],
                "resolved": len(self.invariants.resolved),
                "pending": len(self.invariants.pending),
            }
        return {
            "ok": self.ok,
            "checks": self.checks,
            "determinism": self.determinism.to_dict(),
            "tie_replay": self.ties.to_dict(),
            "invariants": invariants,
            "conservation": self.conservation.to_dict(),
        }


def verify(scenario, kernel_spans: bool = False) -> VerifyReport:
    """Run the three checks on ``scenario`` (a :class:`~repro.faults.Scenario`).

    ``kernel_spans`` records per-event spans on the first run, for
    ``--spans-out``; spans observe only, so the verdicts are unchanged.
    """
    baseline = scenario.tie_break
    perturbed = "fifo" if baseline == PERTURBED_POLICY else PERTURBED_POLICY
    mission = scenario.build()
    if kernel_spans:
        mission.sim.obs.enable_kernel_spans()
    mission.run_days(scenario.days)
    lines = trace_lines(mission)
    invariants = (mission.fault_engine.finish()
                  if mission.fault_engine is not None else None)
    conservation = mission.sim.obs.finalise(mission.sim)
    _digest, replay_lines = run_mission(scenario)
    return VerifyReport(
        determinism=compare_replay(scenario.seed, scenario.days,
                                   lines, replay_lines),
        ties=check_tie_robustness(
            seed=scenario.seed, days=scenario.days,
            policies=(baseline, perturbed),
            mission_factory=policy_factory(scenario),
            baseline_lines=lines),
        invariants=invariants,
        conservation=conservation,
        mission=mission,
    )
