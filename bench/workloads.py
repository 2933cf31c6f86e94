"""The benchmark's workloads: pinned scenarios built from a seed.

Every workload turns the benchmark seed ``S`` into fixed inputs (``S = 0``
is the scenario as first pinned) and offers the same steps to the
harness:

- ``setup_once()`` -- what a user pays before the first simulated second:
  building and arming a deployment, or starting a sweep's worker pool;
- ``warm_up()`` -- one untimed op on a one-day mission, so imports and
  lazily built tables are in place before timing;
- ``op()`` -- the timed unit of work, built fresh each time;
- ``check(outcome)`` -- the output digest and the workload's own
  correctness checks, run outside the timed region;
- ``counts(outcome)`` -- exact per-layer work counts read from the
  program's own counters after the op.

``days`` shortens the simulated length for the self-tests; the benchmark
itself always runs the full length.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from concurrent.futures import ProcessPoolExecutor

from repro.core import Deployment, DeploymentConfig
from repro.core.config import StationConfig, reference_defaults
from repro.faults import apply_fault_plan
from repro.fleet import SweepCache, SweepSpec, expand_grid, run_sweep, sweep_to_json
from repro.lint.determinism import trace_digest
from repro.server.archive import ScienceArchive

from bench import tracer as tracing

DAYS_PER_YEAR = 365.25
#: Station sampling cadence of the mission workloads: one health sample
#: every six hours, so the probes, protocol and energy layers -- not MSP
#: housekeeping -- carry each mission.
MAINTENANCE_INTERVAL_S = 21600.0
#: ``examples/faults/fleet_outage.json``, copied so the benchmark's inputs
#: cannot drift with the examples: each shard goes dark once.
FLEET_OUTAGE_PLAN = {
    "name": "fleet-outage",
    "faults": [
        {"kind": "server-outage", "server": 0, "at_s": 172800.0,
         "duration_s": 86400.0},
        {"kind": "server-outage", "server": 1, "at_s": 345600.0,
         "duration_s": 64800.0},
    ],
}
#: The 125-config grid of ``benchmarks/test_sweep_scale.py``.
SWEEP_GRID = {"solar_w": [4, 6, 8, 10, 12],
              "wake_hour": [6, 7, 8, 9, 10],
              "comms_hour": [11, 12, 13, 14, 15]}
SWEEP_SEEDS_PER_CONFIG = 4
#: Pinned, never the host's CPU count: the load must not depend on the host.
SWEEP_JOBS = 2
SWEEP_CHUNK_SIZE = 64
#: Stations per sweep run (the paper's base + reference pair).
SWEEP_STATIONS = 2
#: Sweep-engine accounting; the mission workloads report it as zero.
FLEET_COUNTS = ("fleet.chunks", "fleet.ipc_payload_bytes", "fleet.parent_folds",
                "fleet.cache_hits", "fleet.cache_misses", "fleet.chunk_wall_s",
                "fleet.chunk_wait_s")


# ----------------------------------------------------------------------
# Counters read after an op
# ----------------------------------------------------------------------
def _total(families: Mapping[str, list], name: str, **labels: str) -> float:
    """Sum of one counter family, over the members matching ``labels``."""
    total = 0.0
    for metric in families.get(name, ()):
        have = dict(metric.labels)
        if all(have.get(key) == value for key, value in labels.items()):
            total += metric.value
    return total


def _ratio(part: float, whole: float) -> float:
    """``part / whole``; 0 when nothing was attempted (the base reads 0 too)."""
    return part / whole if whole else 0.0


def family_counts(families: Mapping[str, list]) -> Dict[str, float]:
    """Exact per-layer work counts from a metrics registry's families."""
    predicted = _total(families, "energy_crossings_predicted_total")
    frames = _total(families, "probe_frames_total")
    connects = _total(families, "modem_connects_total")
    return {
        "sim.trace_records": _total(families, "trace_records_total"),
        "energy.syncs": _total(families, "energy_syncs_total"),
        "energy.crossings_predicted": predicted,
        "energy.prediction_hit_ratio": _ratio(
            predicted - _total(families, "energy_prediction_misses_total"),
            predicted),
        "probes.readings_taken": _total(families, "provenance_edges_total",
                                        stage="created", cls="reading"),
        "protocol.fetches": (
            _total(families, "trace_records_total", source="protocol.bulk",
                   kind="fetch_done")
            + _total(families, "trace_records_total", source="protocol.stopwait",
                     kind="fetch_done")),
        "comms.probe_frames": frames,
        "comms.probe_frame_ok_ratio": _ratio(
            _total(families, "probe_frames_total", result="delivered"), frames),
        "comms.exact_draws": _total(families, "comms_exact_draws_total"),
        "comms.modem_connects": connects,
        "comms.connect_ok_ratio": _ratio(
            _total(families, "modem_connects_total", result="ok"), connects),
        "core.daily_runs": _total(families, "daily_runs_total"),
        "core.comms_sessions": _total(families, "comms_sessions_total"),
        "core.fleet_hops": _total(families, "fleet_hops_total"),
        "server.uploads": _total(families, "server_uploads_total"),
        "server.upload_bytes": _total(families, "server_upload_bytes_total"),
        "server.retransfers": _total(families, "server_retransfers_total"),
        "server.sync_sessions": _total(families, "server_sync_sessions_total"),
        "faults.injected": _total(families, "faults_injected_total"),
        "faults.recoveries": _total(families, "fault_recoveries_total"),
        "obs.provenance_edges": _total(families, "provenance_edges_total"),
    }


# ----------------------------------------------------------------------
# Mission workloads
# ----------------------------------------------------------------------
@dataclass
class MissionOutcome:
    deployment: Deployment
    conservation: Any
    report: Any


def _maintenance_stations(**base: Any) -> Tuple[StationConfig, StationConfig]:
    station = StationConfig(sample_interval_s=MAINTENANCE_INTERVAL_S, **base)
    reference = reference_defaults()
    reference.sample_interval_s = MAINTENANCE_INTERVAL_S
    return station, reference


def endurance_config(seed: int) -> DeploymentConfig:
    """E20: base and reference stations, no probes, a year on the power budget."""
    base, reference = _maintenance_stations()
    return DeploymentConfig(seed=100 + seed, base=base, reference=reference,
                            probe_ids=())


def probe_config(seed: int) -> DeploymentConfig:
    """Seven probes sampling every two minutes behind a wired probe that lives."""
    base, reference = _maintenance_stations()
    return DeploymentConfig(seed=100 + seed, base=base, reference=reference,
                            probe_sampling_interval_s=120.0)


def fleet_config(seed: int) -> DeploymentConfig:
    """20 stations hopping between 2 server shards that each go dark once."""
    return DeploymentConfig(seed=5 + seed, base=StationConfig(batched_sync=True),
                            extra_stations=18, servers=2, server_policy="hop",
                            fault_plan=FLEET_OUTAGE_PLAN)


class MissionWorkload:
    """One deployment run for ``days``: build, arm, run, close out."""

    root = "core"
    runs_per_op = 1

    def __init__(self, seed: int, config: Callable[[int], DeploymentConfig],
                 days: float,
                 checks: Callable[["MissionWorkload", MissionOutcome], List[str]]) -> None:
        self.config = config(seed)
        self.days = days
        self._checks = checks
        stations = 2 + self.config.extra_stations
        self.station_years_per_op = stations * days / DAYS_PER_YEAR

    def _build(self) -> Tuple[Deployment, Any]:
        deployment = Deployment(self.config)
        return deployment, apply_fault_plan(deployment)

    def setup_once(self) -> None:
        self._build()

    def _mission(self, days: float) -> MissionOutcome:
        deployment, engine = self._build()
        deployment.run_days(days)
        conservation = deployment.sim.obs.finalise(deployment.sim)
        report = engine.finish() if engine is not None else None
        return MissionOutcome(deployment, conservation, report)

    def warm_up(self) -> None:
        self._mission(1.0)

    def op(self) -> MissionOutcome:
        return self._mission(self.days)

    def check(self, outcome: MissionOutcome) -> Tuple[str, List[str]]:
        digest = trace_digest(outcome.deployment.sim.trace.records)
        return digest, self._checks(self, outcome)

    def counts(self, outcome: MissionOutcome) -> Dict[str, float]:
        return family_counts(outcome.deployment.sim.obs.metrics.families())

    def fleet_counts(self, outcome: MissionOutcome) -> Dict[str, float]:
        return dict.fromkeys(FLEET_COUNTS, 0.0)

    def worker_traces(self, outcome: MissionOutcome) -> List[dict]:
        return []

    def close(self) -> None:
        pass


def _endurance_checks(wl: MissionWorkload, out: MissionOutcome) -> List[str]:
    deployment = out.deployment
    # Every station keeps its daily cycle bar ten days a year.
    need = wl.days - 10 * wl.days / DAYS_PER_YEAR
    problems = [f"{station.name}: {station.daily_runs} daily runs < {need:.0f}"
                for station in deployment.stations if station.daily_runs < need]
    brownouts = len(deployment.sim.trace.select(kind="brownout"))
    if brownouts:
        problems.append(f"{brownouts} brown-outs")
    return problems


def _probe_checks(wl: MissionWorkload, out: MissionOutcome) -> List[str]:
    problems = []
    if out.conservation is None or not out.conservation.ok:
        problems.append("provenance not conserved")
    series = ScienceArchive(out.deployment.server).probe_series("conductivity_us")
    if not any(series.values()):
        problems.append("archive holds no probe readings")
    return problems


def _fleet_checks(wl: MissionWorkload, out: MissionOutcome) -> List[str]:
    problems = []
    if out.report is None or not out.report.ok:
        problems.append("invariant violations")
    if out.conservation is None or not out.conservation.ok:
        problems.append("provenance not conserved")
    # Shortened self-test missions end before the shards come back.
    last_outage_end_s = max(f["at_s"] + f["duration_s"]
                            for f in FLEET_OUTAGE_PLAN["faults"])
    if out.report is not None and wl.days * 86400.0 > last_outage_end_s + 86400.0:
        outages = {o.station: o.result for o in out.report.outcomes
                   if o.kind == "server-outage"}
        if outages != {"server0": "reconnected", "server1": "reconnected"}:
            problems.append(f"shard outages not all reconnected: {outages}")
    return problems


# ----------------------------------------------------------------------
# Sweep workloads
# ----------------------------------------------------------------------
@dataclass
class PoolLog:
    """What a sweep's worker pool did: per chunk, submit and done times."""

    traced: bool = False
    #: ``(submitted, done, worker wall_s, worker trace snapshot or None)``
    chunks: List[Tuple[float, float, float, Optional[dict]]] = field(
        default_factory=list)

    def done(self, submitted: float, future: Any) -> None:
        # Runs on the executor's thread: append only (atomic), fold later.
        if future.cancelled() or future.exception() is not None:
            return
        out = future.result()
        self.chunks.append((submitted, time.perf_counter(), out["wall_s"],
                            out.get("bench_trace")))


class ProbePool(ProcessPoolExecutor):
    """The default process pool, timing each chunk from submit to done.

    With ``log.traced`` the workers trace their chunks too
    (:func:`bench.tracer.traced_call`).
    """

    def __init__(self, log: PoolLog, max_workers: int,
                 initializer: Optional[Callable[[], None]] = None) -> None:
        if log.traced:
            initializer = partial(tracing.traced_worker_init, initializer)
        super().__init__(max_workers=max_workers, initializer=initializer)
        self._log = log

    def submit(self, fn: Callable, /, *args: Any, **kwargs: Any) -> Any:
        submitted = time.perf_counter()
        if self._log.traced:
            future = super().submit(tracing.traced_call, fn, *args, **kwargs)
        else:
            future = super().submit(fn, *args, **kwargs)
        future.add_done_callback(partial(self._log.done, submitted))
        return future


@dataclass
class SweepOutcome:
    result: Any
    pool: PoolLog
    cache_dir: str


def sweep_digest(result: Any) -> str:
    """sha256 over the sweep's run records and its rollup, both canonical.

    The records are taken without the package-version envelope, so a
    version bump alone does not move the digest.
    """
    runs = json.loads(sweep_to_json(result))["runs"]
    digest = hashlib.sha256(json.dumps(runs, sort_keys=True).encode())
    digest.update(b"\n")
    digest.update(result.rollup.to_json().encode())
    return digest.hexdigest()


class SweepWorkload:
    """The 500-run sweep campaign; ``cold`` writes a fresh cache, warm reads it."""

    root = "fleet"

    def __init__(self, seed: int, work_dir: str, cold: bool, days: float) -> None:
        self.cold = cold
        self.days = days
        self.work_dir = work_dir
        seeds = list(range(SWEEP_SEEDS_PER_CONFIG * seed,
                           SWEEP_SEEDS_PER_CONFIG * (seed + 1)))
        self.spec = SweepSpec(grid=expand_grid(SWEEP_GRID), seeds=seeds, days=days)
        self.runs_per_op = self.spec.total_jobs()
        self.station_years_per_op = (self.runs_per_op * SWEEP_STATIONS * days
                                     / DAYS_PER_YEAR)
        self._tiny = SweepSpec(grid=[{}], seeds=[seed], days=0.01)
        #: The cache a warm pass reads, and the digest its cold pass wrote.
        self._warm_cache: Optional[str] = None
        self._cold_digest: Optional[str] = None

    def setup_once(self) -> None:
        # Pool start plus warm import: the fixed cost of any 2-job sweep.
        run_sweep(self._tiny, jobs=SWEEP_JOBS, cache=None)

    def _pass(self, spec: SweepSpec, cache_dir: str) -> SweepOutcome:
        log = PoolLog(traced=tracing.installed())
        result = run_sweep(spec, jobs=SWEEP_JOBS, cache=SweepCache(cache_dir),
                           chunk_size=SWEEP_CHUNK_SIZE,
                           pool_factory=partial(ProbePool, log))
        return SweepOutcome(result, log, cache_dir)

    def warm_up(self) -> None:
        cache_dir = tempfile.mkdtemp(dir=self.work_dir)
        one_config = SweepSpec(grid=self.spec.grid[:1], seeds=self.spec.seeds,
                               days=1.0)
        self._pass(one_config, cache_dir)
        shutil.rmtree(cache_dir)
        if not self.cold:
            # The cache every warm pass reads: one cold pass, untimed.
            self._warm_cache = tempfile.mkdtemp(dir=self.work_dir)
            self._cold_digest = sweep_digest(
                self._pass(self.spec, self._warm_cache).result)

    def op(self) -> SweepOutcome:
        if self.cold:
            return self._pass(self.spec, tempfile.mkdtemp(dir=self.work_dir))
        return self._pass(self.spec, self._warm_cache)

    def check(self, outcome: SweepOutcome) -> Tuple[str, List[str]]:
        result = outcome.result
        digest = sweep_digest(result)
        problems = []
        if len(result.runs) != self.runs_per_op:
            problems.append(f"{len(result.runs)} runs, expected {self.runs_per_op}")
        if self.cold:
            shutil.rmtree(outcome.cache_dir)
            if result.cache_misses != self.runs_per_op:
                problems.append(f"cold pass hit the cache {result.cache_hits} times")
        else:
            if result.cache_hits != self.runs_per_op or result.chunks_dispatched:
                problems.append(f"warm pass computed {result.cache_misses} runs")
            if digest != self._cold_digest:
                problems.append("warm pass output differs from the cold pass")
        return digest, problems

    def counts(self, outcome: SweepOutcome) -> Dict[str, float]:
        # A warm pass simulates nothing: its rollup is rebuilt from cached
        # snapshots, so only a cold pass's counters are work done.
        if not self.cold:
            return family_counts({})
        return family_counts(outcome.result.rollup.to_registry().families())

    def fleet_counts(self, outcome: SweepOutcome) -> Dict[str, float]:
        result, chunks = outcome.result, outcome.pool.chunks
        return dict(zip(FLEET_COUNTS, (
            result.chunks_dispatched,
            result.ipc_payload_bytes,
            result.parent_folds,
            result.cache_hits,
            result.cache_misses,
            sum(wall for _sent, _done, wall, _trace in chunks),
            # Queueing behind the in-flight window, pickling and IPC.
            sum(done - sent - wall for sent, done, wall, _trace in chunks),
        )))

    def worker_traces(self, outcome: SweepOutcome) -> List[dict]:
        return [trace for *_rest, trace in outcome.pool.chunks if trace]

    def close(self) -> None:
        if self._warm_cache is not None:
            shutil.rmtree(self._warm_cache, ignore_errors=True)


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
#: name -> (factory(seed, work_dir, days), full length in simulated days)
WORKLOADS: Dict[str, Tuple[Callable[..., Any], float]] = {
    "endurance_year": (
        lambda seed, work_dir, days: MissionWorkload(
            seed, endurance_config, days, _endurance_checks), 365.0),
    "probe_survey": (
        lambda seed, work_dir, days: MissionWorkload(
            seed, probe_config, days, _probe_checks), 30.0),
    "fleet_outage_20x2": (
        lambda seed, work_dir, days: MissionWorkload(
            seed, fleet_config, days, _fleet_checks), 30.0),
    "sweep_cold": (
        lambda seed, work_dir, days: SweepWorkload(seed, work_dir, True, days),
        1.0),
    "sweep_warm": (
        lambda seed, work_dir, days: SweepWorkload(seed, work_dir, False, days),
        1.0),
}


def make(name: str, seed: int, work_dir: str, days: Optional[float] = None) -> Any:
    """Build workload ``name`` for ``seed``; ``days`` shortens it (self-tests)."""
    factory, full_days = WORKLOADS[name]
    return factory(seed, work_dir, full_days if days is None else days)
