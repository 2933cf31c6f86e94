"""Trace digests and the same-seed replay verdict.

The static rules catch the *causes* of nondeterminism; this module checks
the *effect*: two missions built from the same scenario must produce
byte-identical traces.  Every trace record is rendered canonically and
digested; on a mismatch the report names the first diverging record.
``repro-sim verify`` runs the replay (see :mod:`repro.lint.verify`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.sim.trace import TraceRecord


def record_canonical(record: TraceRecord) -> str:
    """A stable one-line rendering of a trace record for digesting.

    Detail dicts are rendered with sorted keys so digest equality never
    depends on insertion order.
    """
    detail = ",".join(f"{k}={record.detail[k]!r}" for k in sorted(record.detail))
    return f"{record.time:.9f}|{record.source}|{record.kind}|{detail}"


def trace_digest(records: Iterable[TraceRecord]) -> str:
    """SHA-256 over the canonical rendering of every record, in order."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(record_canonical(record).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def lines_digest(lines: Iterable[str]) -> str:
    """SHA-256 over pre-rendered canonical lines (tie_replay feeds these
    after normalising same-timestamp groups)."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def trace_lines(mission) -> List[str]:
    """The canonical rendering of every trace record a mission emitted."""
    return [record_canonical(record) for record in mission.sim.trace.records]


def run_mission(scenario) -> Tuple[str, List[str]]:
    """Build and run a :class:`~repro.faults.Scenario`; (digest, lines)."""
    mission = scenario.build()
    mission.run_days(scenario.days)
    lines = trace_lines(mission)
    return lines_digest(lines), lines


@dataclass(frozen=True)
class DeterminismReport:
    """Outcome of a same-seed replay comparison."""

    seed: int
    days: float
    digest_a: str
    digest_b: str
    #: First (line number, run-A line, run-B line) divergence, if any.
    first_divergence: Optional[Tuple[int, str, str]]
    #: Trace records run A emitted; zero makes the comparison vacuous.
    records: int = 0

    @property
    def identical(self) -> bool:
        return self.digest_a == self.digest_b

    @property
    def ok(self) -> bool:
        """Identical digests over a non-empty trace."""
        return self.identical and self.records > 0

    def summary(self) -> str:
        """Human-readable verdict, including the first divergence on failure."""
        if self.ok:
            return (
                f"determinism OK: seed={self.seed} days={self.days:g} "
                f"digest={self.digest_a[:16]}…"
            )
        if self.identical:
            return (f"determinism FAILED: seed={self.seed} days={self.days:g} "
                    f"emitted no trace records, so the replay proves nothing")
        lines = [
            f"determinism FAILED: seed={self.seed} days={self.days:g}",
            f"  run A digest: {self.digest_a}",
            f"  run B digest: {self.digest_b}",
        ]
        if self.first_divergence is not None:
            index, a, b = self.first_divergence
            lines.append(f"  first divergence at trace record {index}:")
            lines.append(f"    A: {a}")
            lines.append(f"    B: {b}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form for verify's ``--report-out FILE.json``."""
        return {
            "seed": self.seed,
            "days": self.days,
            "records": self.records,
            "digest_a": self.digest_a,
            "digest_b": self.digest_b,
            "ok": self.ok,
        }


def compare_replay(seed: int, days: float, lines_a: List[str],
                   lines_b: List[str]) -> DeterminismReport:
    """Diff two runs' canonical trace lines into a replay verdict."""
    digest_a, digest_b = lines_digest(lines_a), lines_digest(lines_b)
    divergence: Optional[Tuple[int, str, str]] = None
    if digest_a != digest_b:
        for index, (a, b) in enumerate(zip(lines_a, lines_b)):
            if a != b:
                divergence = (index, a, b)
                break
        else:
            index = min(len(lines_a), len(lines_b))
            next_a = lines_a[index] if index < len(lines_a) else "<end of trace>"
            next_b = lines_b[index] if index < len(lines_b) else "<end of trace>"
            divergence = (index, next_a, next_b)
    return DeterminismReport(
        seed=seed, days=days, digest_a=digest_a, digest_b=digest_b,
        first_divergence=divergence, records=len(lines_a),
    )
