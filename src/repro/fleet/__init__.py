"""repro.fleet — scale-out sweep engine with a content-addressed cache.

The paper's experiments (EXPERIMENTS.md) are sweeps: the same deployment
run across a grid of station configurations and seeds.  Each run is
deterministic given ``(config, seed)``, so its summary is a pure function
of its inputs — which makes three things cheap:

- **parallelism**: runs share nothing, so warm pool workers drain them
  in adaptively-sized chunks behind a bounded in-flight window
  (:func:`repro.fleet.runner.run_sweep`,
  :mod:`repro.fleet.executor`);
- **caching**: a finished run's summary is stored under a digest of
  ``(config overrides, days, seed, package version)`` — atomically, by
  whichever process computed it — and re-used by any later sweep
  containing the same point (:class:`repro.fleet.cache.SweepCache`);
- **work sharing**: because completion is just "the cache entry exists",
  several hosts can drain one campaign cooperatively and resumably over
  a shared work directory (``backend="shared-dir"``).

Merged sweep output is ordered by ``(config digest, fault plan, seed)``
— never by completion order — so a sweep's JSON is byte-identical
regardless of worker count, chunk size, backend, or cache state.

The runner also maintains a streaming campaign rollup: workers fold
their chunk's metric snapshots into a local
:class:`~repro.obs.rollup.RollupAggregate` and ship one lossless partial
per chunk (stripped from run records), so the campaign-level metric view
costs O(metric families), not O(runs) — see ``docs/telemetry_rollup.md``.
"""

from repro.fleet.cache import GcReport, SweepCache, config_digest, job_digest
from repro.fleet.results import SweepResult, merge_runs, sweep_to_json
from repro.fleet.runner import (
    SweepJob,
    SweepSpec,
    expand_grid,
    run_job,
    run_sweep,
)

__all__ = [
    "GcReport",
    "SweepCache",
    "SweepJob",
    "SweepResult",
    "SweepSpec",
    "config_digest",
    "expand_grid",
    "job_digest",
    "merge_runs",
    "run_job",
    "run_sweep",
    "sweep_to_json",
]
