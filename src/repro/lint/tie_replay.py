"""Perturbed-tie replay: the dynamic prong of the race detector.

The static rules in :mod:`repro.lint.races` catch code *shaped* like an
event-ordering race; this module checks the *effect*: a mission replayed
under perturbed same-timestamp tie-break policies must tell the same
story.  Same-timestamp events have no defined order — the kernel's seq
counter is an implementation detail — so any trace difference that
appears when only the tie order changes is a real race.

Within one instant the *set* of trace records is the contract but their
relative order is presentation (it necessarily permutes with the tie
policy), so traces are compared after :func:`normalize_tie_order`: sort
the canonical lines within each equal-timestamp group, then digest.

On divergence the harness bisects to the first diverging normalized
record, re-runs the two policies with kernel tie diagnostics switched on
(:meth:`repro.sim.kernel.Simulation.enable_tie_diagnostics`), and diffs
the dispatch order at the diverging instant to name the pair of schedule
callsites whose relative order flipped — reported as structured
:class:`~repro.lint.findings.Finding` objects under the
``tie-order-divergence`` rule id.

``repro-sim verify`` runs this replay (fifo against ``shuffle:1``) on
the same scenario as the same-seed replay; see :mod:`repro.lint.verify`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.lint.determinism import lines_digest, trace_lines
from repro.lint.findings import Finding, Severity

#: Rule id carried by dynamic-prong findings.
DIVERGENCE_RULE = "tie-order-divergence"

#: Default policy set: the kernel default plus one deterministic shuffle.
DEFAULT_POLICIES = ("fifo", "shuffle:1")


def normalize_tie_order(lines: Sequence[str]) -> List[str]:
    """Canonical trace lines with same-timestamp groups internally sorted.

    The time prefix (everything before the first ``|``) is rendered with
    fixed precision by :func:`record_canonical`, so string equality of the
    prefix is instant equality.  Cross-instant order is preserved — only
    within-instant order, which legitimately varies with the tie-break
    policy, is normalised away.
    """
    normalized: List[str] = []
    group: List[str] = []
    open_key: Optional[str] = None
    for line in lines:
        time_key = line.split("|", 1)[0]
        if time_key != open_key:
            normalized.extend(sorted(group))
            group = []
            open_key = time_key
        group.append(line)
    normalized.extend(sorted(group))
    return normalized


@dataclass(frozen=True)
class PolicyRun:
    """One mission replay under one tie-break policy."""

    policy: str
    digest: str
    normalized_digest: str
    records: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "policy": self.policy,
            "digest": self.digest,
            "normalized_digest": self.normalized_digest,
            "records": self.records,
        }


@dataclass(frozen=True)
class TieDivergence:
    """First normalized-trace divergence between baseline and one policy."""

    policy: str
    #: Index into the normalized line sequence.
    index: int
    #: Simulated time of the diverging record (seconds).
    time: float
    baseline_line: str
    perturbed_line: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "policy": self.policy,
            "index": self.index,
            "time": self.time,
            "baseline_line": self.baseline_line,
            "perturbed_line": self.perturbed_line,
        }


@dataclass(frozen=True)
class TieReplayReport:
    """Outcome of a perturbed-tie replay comparison."""

    seed: int
    days: float
    policies: Tuple[str, ...]
    runs: Tuple[PolicyRun, ...]
    divergences: Tuple[TieDivergence, ...]
    findings: Tuple[Finding, ...] = field(default=())

    @property
    def vacuous(self) -> bool:
        """True when the baseline emitted no trace records at all."""
        return self.runs[0].records == 0

    @property
    def robust(self) -> bool:
        """True when every policy reproduced the baseline's non-empty
        normalized trace."""
        return not self.divergences and not self.vacuous

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "days": self.days,
            "policies": list(self.policies),
            "robust": self.robust,
            "vacuous": self.vacuous,
            "runs": [run.to_dict() for run in self.runs],
            "divergences": [div.to_dict() for div in self.divergences],
            "findings": [finding.to_dict() for finding in self.findings],
        }

    def format(self) -> str:
        """Human-readable verdict, including bisection results on failure."""
        lines = [
            f"tie replay: seed={self.seed} days={self.days:g} "
            f"policies={','.join(self.policies)}"
        ]
        for run in self.runs:
            lines.append(
                f"  {run.policy}: {run.records} records, "
                f"normalized digest {run.normalized_digest[:16]}…"
            )
        if self.robust:
            lines.append("tie replay OK: all policies agree")
            return "\n".join(lines)
        if self.vacuous:
            lines.append("tie replay FAILED: the mission emitted no trace "
                         "records, so the replay proves nothing")
            return "\n".join(lines)
        lines.append("tie replay FAILED: trace depends on same-timestamp order")
        for div in self.divergences:
            lines.append(
                f"  {div.policy}: first divergence at normalized record "
                f"{div.index} (t={div.time:.9f})"
            )
            lines.append(f"    baseline:  {div.baseline_line}")
            lines.append(f"    perturbed: {div.perturbed_line}")
        for finding in self.findings:
            lines.append("  " + finding.render())
        return "\n".join(lines)


#: Builds a runnable mission for one tie-break policy.  Must return an
#: object with ``.sim`` (the :class:`~repro.sim.kernel.Simulation`) and
#: ``.run_days(days)`` — :class:`~repro.core.deployment.Deployment`
#: satisfies this, and tests substitute toy missions.
MissionFactory = Callable[[str], Any]


def _run_policy(factory: MissionFactory, policy: str, days: float) -> List[str]:
    mission = factory(policy)
    mission.run_days(days)
    return trace_lines(mission)


def _policy_run(policy: str, lines: List[str]) -> PolicyRun:
    return PolicyRun(
        policy=policy,
        digest=lines_digest(lines),
        normalized_digest=lines_digest(normalize_tie_order(lines)),
        records=len(lines),
    )


def _first_divergence(policy: str, base_lines: List[str],
                      other_lines: List[str]) -> TieDivergence:
    base_norm = normalize_tie_order(base_lines)
    other_norm = normalize_tie_order(other_lines)
    for index, (a, b) in enumerate(zip(base_norm, other_norm)):
        if a != b:
            return TieDivergence(
                policy=policy, index=index,
                time=float(a.split("|", 1)[0]),
                baseline_line=a, perturbed_line=b,
            )
    index = min(len(base_norm), len(other_norm))
    longer = base_norm if len(base_norm) > len(other_norm) else other_norm
    return TieDivergence(
        policy=policy, index=index,
        time=float(longer[index].split("|", 1)[0]),
        baseline_line=base_norm[index] if index < len(base_norm) else "<end of trace>",
        perturbed_line=other_norm[index] if index < len(other_norm) else "<end of trace>",
    )


def _dispatch_sites_at(factory: MissionFactory, policy: str, days: float,
                       time_key: str) -> List[Tuple[str, int]]:
    """Dispatch-ordered schedule callsites at the instant rendered ``time_key``.

    Re-runs the mission with kernel tie diagnostics enabled and keeps the
    enqueue callsite of every event dispatched at that instant, in
    dispatch order.  The instant is matched on the canonical ``%.9f``
    rendering, the same key the normalized trace groups by.
    """
    mission = factory(policy)
    log = mission.sim.enable_tie_diagnostics()
    mission.run_days(days)
    # String equality of the fixed-precision renderings is deliberate:
    # the ``%.9f`` key *is* the grouping key the normalized trace uses,
    # so matching on it reproduces the exact group membership.
    return [site for when, site, _type, _name in log
            if f"{when:.9f}" == time_key]  # repro-lint: disable=float-equality


def _order_flips(base_sites: List[Tuple[str, int]],
                 other_sites: List[Tuple[str, int]]) -> List[
                     Tuple[Tuple[str, int], Tuple[str, int]]]:
    """Callsite pairs whose relative dispatch order differs between runs.

    Compares first occurrences of each distinct site, so a site firing
    repeatedly within the instant (a self-rescheduling process) counts
    once.  Pairs come out ordered by baseline dispatch position — the
    first flip is the natural suspect.
    """
    base_rank: Dict[Tuple[str, int], int] = {}
    for position, site in enumerate(base_sites):
        base_rank.setdefault(site, position)
    other_rank: Dict[Tuple[str, int], int] = {}
    for position, site in enumerate(other_sites):
        other_rank.setdefault(site, position)
    common = [site for site in base_rank if site in other_rank]
    common.sort(key=base_rank.__getitem__)
    flips = []
    for i, early in enumerate(common):
        for late in common[i + 1:]:
            if other_rank[early] > other_rank[late]:
                flips.append((early, late))
    return flips


def _divergence_findings(divergence: TieDivergence,
                         factory: MissionFactory,
                         days: float,
                         baseline: str) -> List[Finding]:
    """Findings naming the callsite pair(s) behind one divergence.

    Two diagnostic re-runs (baseline and perturbed policy) reconstruct the
    dispatch order at the diverging instant; every order flip among the
    callsites active there becomes a pair of findings, one per callsite,
    each pointing at its partner.
    """
    time_key = f"{divergence.time:.9f}"
    base_sites = _dispatch_sites_at(factory, baseline, days, time_key)
    other_sites = _dispatch_sites_at(factory, divergence.policy, days, time_key)
    flips = _order_flips(base_sites, other_sites)
    findings: List[Finding] = []
    context = (
        f"trace diverges at t={time_key} "
        f"({baseline} vs {divergence.policy}): "
        f"{divergence.baseline_line!r} != {divergence.perturbed_line!r}"
    )
    if not flips:
        # Different event *sets* at the instant (an earlier flip cascaded)
        # or no common sites: report the instant itself at the first
        # baseline site so the finding still lands somewhere actionable.
        path, line = base_sites[0] if base_sites else ("<unknown>", 0)
        findings.append(Finding(
            rule=DIVERGENCE_RULE, path=path, line=line, col=0,
            severity=Severity.ERROR,
            message=f"{context}; dispatched event sets differ at this instant",
        ))
        return findings
    for early, late in flips:
        findings.append(Finding(
            rule=DIVERGENCE_RULE, path=early[0], line=early[1], col=0,
            severity=Severity.ERROR,
            message=(
                f"{context}; this schedule callsite races "
                f"{late[0]}:{late[1]} — their same-timestamp dispatch "
                f"order flipped between policies"
            ),
        ))
        findings.append(Finding(
            rule=DIVERGENCE_RULE, path=late[0], line=late[1], col=0,
            severity=Severity.ERROR,
            message=(
                f"{context}; this schedule callsite races "
                f"{early[0]}:{early[1]} — their same-timestamp dispatch "
                f"order flipped between policies"
            ),
        ))
    return findings


def check_tie_robustness(
    mission_factory: MissionFactory,
    seed: int = 0,
    days: float = 45.0,
    policies: Sequence[str] = DEFAULT_POLICIES,
    baseline_lines: Optional[List[str]] = None,
) -> TieReplayReport:
    """Replay one mission under each policy and diff normalized digests.

    ``policies[0]`` is the baseline; every other policy is compared
    against it.  ``baseline_lines`` supplies the baseline run's canonical
    trace when the caller already ran it (``repro-sim verify`` shares its
    first run); ``seed`` only labels the report.  On divergence the
    report carries the bisected first diverging record and
    ``tie-order-divergence`` findings at the offending schedule callsites
    (diagnosed from two further runs with kernel tie diagnostics enabled).
    """
    if len(policies) < 2:
        raise ValueError("need at least two policies (baseline + perturbed)")
    baseline_policy = policies[0]
    if baseline_lines is None:
        baseline_lines = _run_policy(mission_factory, baseline_policy, days)
    baseline_run = _policy_run(baseline_policy, baseline_lines)
    runs: List[PolicyRun] = [baseline_run]
    divergences: List[TieDivergence] = []
    findings: List[Finding] = []
    for policy in policies[1:]:
        lines = _run_policy(mission_factory, policy, days)
        run = _policy_run(policy, lines)
        runs.append(run)
        if run.normalized_digest == baseline_run.normalized_digest:
            continue
        divergence = _first_divergence(policy, baseline_lines, lines)
        divergences.append(divergence)
        findings.extend(_divergence_findings(
            divergence, mission_factory, days, baseline_policy))
    findings.sort(key=Finding.sort_key)
    return TieReplayReport(
        seed=seed, days=days, policies=tuple(policies),
        runs=tuple(runs), divergences=tuple(divergences),
        findings=tuple(findings),
    )


def policy_factory(scenario) -> MissionFactory:
    """A :data:`MissionFactory` building ``scenario`` under each policy."""
    def build(policy: str):
        return scenario.with_overrides(tie_break=policy).build()

    return build
