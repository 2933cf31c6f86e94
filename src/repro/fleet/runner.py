"""The fleet runner: fan a config×seed grid across worker processes.

Each grid point is an independent deployment — no shared state, no
ordering constraints — so the runner is a map over jobs with a cache
lookup in front.  Execution is delegated to a pluggable executor
(:mod:`repro.fleet.executor`):

- ``backend="pool"`` (default) — jobs the parent's cache probe can't
  satisfy ship to warm pool workers in adaptive chunks; workers do their
  own cache loads and atomic stores and return stripped records plus one
  lossless partial rollup per chunk.  Parent-side cache hits are still
  loaded in the parent (a hit is one JSON read — cheaper than a pool
  round-trip), which keeps fully-warm sweeps as fast as ever.
- ``backend="shared-dir"`` — several hosts drain one campaign manifest
  cooperatively through an atomic claim-file protocol over a shared work
  directory; every drainer assembles the identical sweep from the shared
  cache when the campaign completes.

``--jobs 1`` runs in-process; the output is byte-identical across jobs,
chunk sizes, and backends because
:func:`repro.fleet.results.merge_runs` orders by
``(config_digest, fault plan, seed)`` and every rollup fold is exact and
order-independent.
"""

from __future__ import annotations

import dataclasses
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
)

from repro.core.deployment import Deployment
from repro.faults.scenario import Scenario, canonical_json, check_overrides
from repro.fleet.cache import SweepCache, config_digest, job_digest
from repro.fleet.results import SweepResult


@dataclasses.dataclass(frozen=True)
class SweepJob:
    """One grid point: a :class:`~repro.faults.Scenario` and its digests.

    ``config_digest`` keys the merge order (seed-independent);
    ``digest`` is the cache key over the scenario's full inputs.
    """

    scenario: Scenario
    config_digest: str
    digest: str


@dataclasses.dataclass
class SweepSpec:
    """A sweep: every config in ``grid`` crossed with every plan and seed.

    ``fault_plans`` is a list of fault-plan dict forms
    (:meth:`repro.faults.FaultPlan.to_dict`); a ``None`` entry is the
    fault-free baseline.  Omitting it entirely keeps the classic
    config × seed sweep, byte-identical to before the faults layer.
    """

    grid: List[Dict[str, Any]]
    seeds: Sequence[int]
    days: float
    fault_plans: Optional[List[Optional[Dict[str, Any]]]] = None
    #: Parsed alert-rules document applied to every run (None = no rules).
    alert_rules: Optional[Any] = None

    def total_jobs(self) -> int:
        """Job count without expanding the grid (for progress totals)."""
        plans = len(self.fault_plans) if self.fault_plans else 1
        return len(self.grid) * plans * len(self.seeds)

    def iter_jobs(self) -> Iterator[SweepJob]:
        """Lazily yield validated jobs in deterministic order.

        The streaming form of :meth:`jobs` — the chunked executor
        consumes this directly so a million-run campaign never holds the
        full job list (let alone a future per job) in memory.  Per job
        the only hashing is the cache key: one canonical payload and one
        SHA-256; plan and rules JSON are canonicalised once per sweep.
        """
        plans = self.fault_plans if self.fault_plans else [None]
        plan_jsons = [None if plan is None else canonical_json(plan)
                      for plan in plans]
        rules_json = (None if self.alert_rules is None
                      else canonical_json(self.alert_rules))
        for overrides in self.grid:
            check_overrides(overrides)
            items = tuple(sorted(overrides.items()))
            cfg_digest = config_digest(overrides)
            for plan, plan_json in zip(plans, plan_jsons):
                for seed in self.seeds:
                    yield SweepJob(
                        scenario=Scenario(items, int(seed), self.days,
                                          plan_json, rules_json),
                        config_digest=cfg_digest,
                        digest=job_digest(overrides, self.days, seed,
                                          fault_plan=plan,
                                          alert_rules=self.alert_rules),
                    )

    def jobs(self) -> List[SweepJob]:
        """The expanded job list, validated, in deterministic order."""
        return list(self.iter_jobs())


def expand_grid(params: Mapping[str, Sequence[Any]]) -> List[Dict[str, Any]]:
    """Cartesian product of ``{field: [values...]}`` into override dicts.

    An empty mapping yields the single all-defaults config.  Insertion
    order of ``params`` fixes the nesting order, but the merge key is the
    content digest, so grid ordering never changes sweep output.
    """
    grid: List[Dict[str, Any]] = [{}]
    for name, values in params.items():
        grid = [dict(point, **{name: value}) for point in grid for value in values]
    return grid


def run_job(job: SweepJob) -> Dict[str, Any]:
    """Execute one deployment run and return its summary (worker entry).

    Top-level so it pickles into pool workers; everything it needs rides
    in the job's :class:`~repro.faults.Scenario`.
    """
    scenario = job.scenario
    deployment = scenario.build()
    deployment.run_days(scenario.days)
    obs = deployment.sim.obs
    conservation = obs.finalise(deployment.sim)
    summary = summarise(deployment, scenario.days)
    if deployment.fault_engine is not None:
        report = deployment.fault_engine.finish()
        summary["faults"] = {
            "injected": len(report.outcomes),
            "violations": len(report.violations),
            "resolved": len(report.resolved),
            "pending": len(report.pending),
        }
    if conservation is not None:
        summary["provenance"] = conservation.to_dict()
    if obs.alerts is not None:
        summary["alerts"] = obs.alerts.summary()
    # The full registry snapshot rides in the summary so cache hits can be
    # folded into the campaign rollup without re-running anything; the
    # folding side strips it from run records after folding.
    summary["metrics"] = obs.metrics.snapshot()
    return summary


def summarise(deployment: Deployment, days: float) -> Dict[str, Any]:
    """The per-run summary: deterministic, JSON-serialisable scalars only."""
    sim = deployment.sim
    stations: Dict[str, Any] = {}
    for station in deployment.stations:
        stations[station.name] = {
            "daily_runs": station.daily_runs,
            "effective_state": int(station.effective_state),
            "soc": round(station.bus.battery.soc, 6),
            "delivered_bytes": deployment.server.received_bytes(station=station.name),
            "gprs_cost": round(station.modem.cost_total, 6),
            "watchdog_cuts": station.msp.watchdog_cuts,
            "skipped_comms_days": station.skipped_comms_days,
        }
    summary = {
        "days": days,
        "events_processed": sim.events_processed,
        "stations": stations,
        "probes_alive": deployment.surviving_probes(),
        "readings_collected": deployment.base.readings_collected,
    }
    fleet = getattr(deployment, "fleet", None)
    if fleet is not None:
        shard_bytes = [shard.received_bytes() for shard in fleet.shards]
        mean = sum(shard_bytes) / len(shard_bytes) if shard_bytes else 0.0
        summary["fleet"] = {
            "servers": len(fleet.shards),
            "policy": deployment.config.server_policy,
            "shards": {
                shard.name: {
                    "uploads": len(shard.uploads),
                    "bytes": shard.received_bytes(),
                }
                for shard in fleet.shards
            },
            "max_shard_bytes": max(shard_bytes) if shard_bytes else 0,
            "imbalance": round(max(shard_bytes) / mean, 6) if mean else 0.0,
            "hops": sum(
                getattr(station.server, "hops", 0)
                for station in deployment.stations
            ),
            "retransfers": fleet.retransfers,
        }
    return summary


def _record(job: SweepJob, summary: Dict[str, Any]) -> Dict[str, Any]:
    scenario = job.scenario
    record = {
        "config": dict(scenario.overrides),
        "config_digest": job.config_digest,
        "seed": scenario.seed,
        "days": scenario.days,
        "result": summary,
    }
    if scenario.fault_plan_json is not None:
        import json

        record["fault_plan"] = json.loads(scenario.fault_plan_json)
    return record


def _fold_key(job: SweepJob):
    """The rollup fold key: ``(config digest, plan JSON or "", seed)``."""
    scenario = job.scenario
    return (job.config_digest, scenario.fault_plan_json or "", scenario.seed)


def _absorb(result: SweepResult, job: SweepJob,
            summary: Dict[str, Any]) -> None:
    """Fold one finished run into the sweep: rollup first, record second.

    The metrics snapshot is folded into the campaign aggregate and then
    *stripped* from the run record — the runner holds only the aggregate,
    never per-run registries, which is what lets million-run sweeps
    stream.  Folding is keyed by (config digest, fault plan, seed), so
    the aggregate is order-independent regardless of completion order.
    """
    snapshot = summary.pop("metrics", None)
    if snapshot is not None and result.rollup is not None:
        result.rollup.fold(_fold_key(job), snapshot)
        result.parent_folds += 1
    result.runs.append(_record(job, summary))


class SweepProgress:
    """Throttled runs/s reporting through a caller-supplied line sink.

    The runner itself never prints (repro-lint's no-print rule); the CLI
    passes a stderr-writing callable when ``--progress`` is given.  Lines
    are emitted at most every ``interval_s`` and never affect output
    bytes.
    """

    def __init__(self, emit: Callable[[str], None], total: int,
                 interval_s: float = 2.0) -> None:
        import time

        self.emit = emit
        self.total = total
        self.interval_s = interval_s
        self.done = 0
        self._start = time.perf_counter()  # repro-lint: disable=wall-clock
        self._last_emit = self._start

    def advance(self, runs: int) -> None:
        import time

        self.done += runs
        now = time.perf_counter()  # repro-lint: disable=wall-clock
        if now - self._last_emit >= self.interval_s:
            self._last_emit = now
            self.emit(self._line(now))

    def finish(self) -> None:
        import time

        now = time.perf_counter()  # repro-lint: disable=wall-clock
        self.emit(self._line(now))

    def _line(self, now: float) -> str:
        elapsed = max(now - self._start, 1e-9)
        rate = self.done / elapsed
        return (f"sweep: {self.done}/{self.total} runs "
                f"({rate:.0f} runs/s, {elapsed:.1f}s elapsed)")


def _chunk_absorber(result: SweepResult, where: str,
                    progress: Optional[SweepProgress],
                    fold_partials: bool = True,
                    keep_records: bool = True) -> Callable[[Dict[str, Any]], None]:
    """Build the parent-side sink for completed worker chunks."""

    def absorb_chunk(out: Dict[str, Any]) -> None:
        result.chunks_dispatched += 1
        result.ipc_payload_bytes += out.get("payload_bytes", 0)
        result.cache_hits += out.get("hits", 0)
        result.cache_misses += out.get("misses", 0)
        if result.telemetry is not None:
            result.telemetry.inc("sweep_chunks_dispatched_total")
            hits = out.get("hits", 0)
            if hits:
                result.telemetry.inc("sweep_worker_cache_hits_total",
                                     amount=hits, where=where)
        if fold_partials and out.get("rollup") is not None \
                and result.rollup is not None:
            result.rollup.absorb_partial(out["rollup"])
            result.parent_folds += 1
        if keep_records:
            result.runs.extend(out["records"])
        if progress is not None:
            progress.advance(len(out["records"]))

    return absorb_chunk


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    cache: Optional[SweepCache] = None,
    *,
    backend: str = "pool",
    chunk_size: Optional[int] = None,
    work_dir: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
    stale_claim_s: Optional[float] = None,
    pool_factory: Optional[Callable[..., Any]] = None,
) -> SweepResult:
    """Run every grid point, using ``cache`` and up to ``jobs`` workers.

    ``backend="pool"``: cache hits the parent's stat-probe finds are
    loaded parent-side and never reach the pool; misses ship to warm
    workers in bounded chunks (``chunk_size=None`` adapts to measured run
    wall time).  With ``jobs <= 1`` the misses run in-process (no pool,
    no pickling), which is also the path coverage tools and debuggers
    see.

    ``backend="shared-dir"``: ``work_dir`` hosts a campaign manifest, a
    claim directory, and the shared cache; this invocation drains
    whatever blocks it can claim (alongside any other drainers on the
    same directory), waits for the rest, and assembles the full sweep
    from the shared cache — identical bytes on every drainer.
    ``stale_claim_s`` tunes how quickly a killed drainer's claims are
    stolen.

    ``progress`` is an optional line sink (the CLI's ``--progress``)
    for periodic runs/s reporting.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.rollup import RollupAggregate

    result = SweepResult(rollup=RollupAggregate(), telemetry=MetricsRegistry())
    reporter = (SweepProgress(progress, total=spec.total_jobs())
                if progress is not None else None)

    if backend == "shared-dir":
        _run_shared_dir(spec, result, jobs=jobs, work_dir=work_dir,
                        cache=cache, chunk_size=chunk_size,
                        stale_claim_s=stale_claim_s, reporter=reporter,
                        pool_factory=pool_factory)
    elif backend == "pool":
        _run_pool(spec, result, jobs=jobs, cache=cache,
                  chunk_size=chunk_size, reporter=reporter,
                  pool_factory=pool_factory)
    else:
        raise ValueError(f"unknown sweep backend {backend!r} "
                         f"(expected 'pool' or 'shared-dir')")
    if reporter is not None:
        reporter.finish()
    return result


def _run_pool(spec: SweepSpec, result: SweepResult, *, jobs: int,
              cache: Optional[SweepCache], chunk_size: Optional[int],
              reporter: Optional[SweepProgress],
              pool_factory: Optional[Callable[..., Any]]) -> None:
    from repro.fleet import executor

    parent_hits = 0

    def pending() -> Iterator[SweepJob]:
        """Jobs the parent-side cache could not satisfy, lazily.

        Hits are loaded and folded right here — one JSON read, strictly
        cheaper than any pool round-trip, so a hot cache never touches
        the pool.  Workers
        re-probe misses anyway (shared caches can fill underneath us).
        """
        nonlocal parent_hits
        for job in spec.iter_jobs():
            if cache is not None:
                summary = cache.load(job.digest)
                if summary is not None:
                    parent_hits += 1
                    result.cache_hits += 1
                    _absorb(result, job, summary)
                    if reporter is not None:
                        reporter.advance(1)
                    continue
            yield job

    if jobs <= 1:
        for job in pending():
            summary = run_job(job)
            if cache is not None:
                cache.store(job.digest, summary)
            result.cache_misses += 1
            _absorb(result, job, summary)
            if reporter is not None:
                reporter.advance(1)
    else:
        absorb = _chunk_absorber(result, where="worker", progress=reporter)
        kwargs: Dict[str, Any] = {}
        if pool_factory is not None:
            kwargs["pool_factory"] = pool_factory
        executor.run_chunked_pool(
            pending(),
            workers=jobs,
            cache_root=cache.root if cache is not None else None,
            absorb=absorb,
            chunk_size=chunk_size,
            **kwargs,
        )
    # Hit-loop telemetry is batched to one inc — per-hit counter lookups
    # would tax exactly the warm path the parent-side load keeps fast.
    if result.telemetry is not None and parent_hits:
        result.telemetry.inc("sweep_worker_cache_hits_total",
                             amount=parent_hits, where="parent")


def _run_shared_dir(spec: SweepSpec, result: SweepResult, *, jobs: int,
                    work_dir: Optional[str], cache: Optional[SweepCache],
                    chunk_size: Optional[int],
                    stale_claim_s: Optional[float],
                    reporter: Optional[SweepProgress],
                    pool_factory: Optional[Callable[..., Any]]) -> None:
    import os

    from repro.fleet import executor

    if work_dir is None:
        raise ValueError("backend='shared-dir' requires work_dir")
    if cache is not None:
        raise ValueError(
            "backend='shared-dir' manages its own cache under work_dir; "
            "do not pass one")
    executor.ensure_manifest(
        work_dir, spec,
        block_size=chunk_size or executor.DEFAULT_BLOCK_SIZE)
    # Drain-phase chunk results are used for *accounting only* — records
    # and rollup folds come from the deterministic assembly below, so
    # workers skip partial building and the parent drops their records.
    absorb = _chunk_absorber(result, where="worker", progress=reporter,
                             fold_partials=False, keep_records=False)
    kwargs: Dict[str, Any] = {}
    if stale_claim_s is not None:
        kwargs["stale_claim_s"] = stale_claim_s
    if pool_factory is not None:
        kwargs["pool_factory"] = pool_factory
    all_jobs = executor.drain_shared_dir(
        work_dir,
        workers=jobs,
        collect_rollup=False,
        absorb=absorb,
        **kwargs,
    )
    computed = result.cache_misses
    # Assembly: every drainer loads every entry in deterministic job
    # order and folds parent-side — identical sweep and rollup bytes on
    # every host, regardless of who computed what.
    shared_cache = SweepCache(os.path.join(work_dir, executor.CACHE_DIR))
    for job in all_jobs:
        summary = shared_cache.load(job.digest)
        if summary is None:
            raise RuntimeError(
                f"shared-dir drain finished but cache entry {job.digest} "
                f"is missing — was the cache pruned mid-campaign?")
        _absorb(result, job, summary)
    result.cache_misses = computed
    result.cache_hits = len(all_jobs) - computed
    if result.telemetry is not None and result.cache_hits:
        result.telemetry.inc("sweep_worker_cache_hits_total",
                             amount=result.cache_hits, where="parent")

