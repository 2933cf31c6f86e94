"""Sweep results: deterministic merge and canonical serialisation.

The contract every consumer (CLI, CI smoke bench, notebooks) relies on:
a sweep's JSON depends only on the grid, the seeds, the duration and the
package version — not on worker count, completion order or cache state.
:func:`merge_runs` enforces the ordering; :func:`sweep_to_json` keeps the
encoding canonical (sorted keys, fixed separators).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro import __version__


@dataclass
class SweepResult:
    """A finished sweep: ordered runs plus cache statistics.

    ``runs`` entries are dicts with keys ``config`` (the overrides),
    ``config_digest``, ``seed``, ``days`` and ``result`` (the per-run
    summary).  ``cache_hits``/``cache_misses`` are *not* serialised into
    the JSON — they vary between invocations of the identical sweep.
    ``rollup`` is the streaming campaign aggregate
    (:class:`repro.obs.rollup.RollupAggregate`) the runner folds metric
    snapshots into as futures complete; it has its own canonical JSON
    (``--rollup-out``) and never enters the sweep JSON.

    The executor-accounting fields quantify the chunked dispatch loop
    and back the sweep-scale benchmark's deterministic gates; like the
    cache counters they never enter the sweep JSON.  ``chunks_dispatched``
    counts chunks run through :func:`~repro.fleet.executor.run_chunk`;
    ``parent_folds`` counts parent-side rollup fold operations (per-chunk
    partial merges plus per-hit folds of parent-side cache hits);
    ``ipc_payload_bytes`` totals the canonical-JSON size of the chunk
    results handed back to the parent (what crosses the worker→parent
    boundary when a pool runs them).  All three count in-process chunks
    too, so a ``--jobs 1`` cold sweep reports them non-zero.
    """

    runs: List[Dict[str, Any]] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    rollup: Optional[Any] = None
    chunks_dispatched: int = 0
    parent_folds: int = 0
    ipc_payload_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of runs served from cache (0.0 for an empty sweep)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


def merge_runs(runs: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Order run records by ``(config_digest, fault plan, seed)``.

    Completion order out of the process pool is non-deterministic; this
    sort is what makes ``--jobs 1`` and ``--jobs 4`` byte-identical.  The
    fault-plan key (its canonical JSON; "" when absent) slots between
    config and seed so fault-grid sweeps merge as deterministically as
    plain ones — and plain sweeps sort exactly as they always have.

    Exact key duplicates (a cache hit racing a live run of the same job)
    collapse to one record, **last wins** — safe because an identical key
    implies an identical job digest, hence an identical summary; the
    rollup fold relies on the same contract (one fold per key).
    """

    def key(run: Dict[str, Any]):
        plan = run.get("fault_plan")
        plan_key = "" if plan is None else json.dumps(
            plan, sort_keys=True, separators=(",", ":"))
        return (run["config_digest"], plan_key, run["seed"])

    deduped: Dict[Any, Dict[str, Any]] = {}
    for run in runs:
        deduped[key(run)] = run
    return [deduped[k] for k in sorted(deduped)]


def sweep_to_json(result: SweepResult) -> str:
    """Canonical JSON for a sweep (stable across jobs/cache variations)."""
    payload = {
        "version": __version__,
        "runs": merge_runs(result.runs),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), indent=None)
