"""Scale-out sweep execution: chunked warm workers and shared-dir draining.

``repro.fleet.runner`` used to submit one pool future per job and funnel
every cache read/write and rollup fold through the parent process.  Once
runs are milliseconds that parent-side work is pure Amdahl overhead —
the workers idle while the parent pickles snapshots, writes cache
entries, and folds registries one run at a time.  This module inverts
the shape:

- **Chunked dispatch** — jobs ship to workers in batches, amortising the
  pickle/IPC/scheduling cost per chunk.  Chunk size adapts to measured
  run wall time (:class:`ChunkSizer`) and the submit loop keeps a
  bounded in-flight window instead of materialising every future up
  front, so a million-job campaign holds O(window) futures and a kill
  leaves a cleanly resumable cache.
- **Worker-side cache I/O** — :func:`run_chunk` loads and atomically
  stores cache entries inside the worker (the ``os.replace`` layout is
  concurrency-safe), so summaries never round-trip through the parent
  just to reach disk.
- **Partial-rollup shipping** — each worker folds its chunk's metric
  snapshots into a local :class:`~repro.obs.rollup.RollupAggregate` and
  returns one lossless partial (raw Shewchuk partials, see
  ``rollup.to_partial_doc``) plus metric-stripped run records.  The
  parent's fold cost collapses from O(runs) registry folds to O(chunks)
  partial merges, and per-run IPC payloads shrink by an order of
  magnitude.
- **Shared-dir work sharing** — a campaign manifest plus an atomic
  claim-file protocol over a shared directory lets several hosts drain
  one sweep cooperatively and resumably (:func:`drain_shared_dir`).
  Claims are an *optimisation*, not a lock: results are deterministic
  and cache stores are atomic, so the rare double-computed block is
  harmless.

Byte-identical sweep output across ``--jobs``, chunk sizes, backends,
and completion order stays the hard contract; every path funnels through
the same record builder and exact, order-independent rollup folds.
"""

from __future__ import annotations

import itertools
import json
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
)

from repro.fleet.cache import SweepCache, _canonical

#: Adaptive chunking aims for roughly this much work per chunk: long
#: enough to amortise dispatch, short enough to keep the in-flight
#: window responsive and progress lines honest.
CHUNK_TARGET_S = 0.5
CHUNK_MIN = 1
CHUNK_MAX = 256
#: Shared-dir manifests fix their claim-block size up front so every
#: drainer cuts identical blocks.
DEFAULT_BLOCK_SIZE = 32
#: A claim older than this whose block is still incomplete is presumed
#: abandoned (killed drainer) and may be stolen.
DEFAULT_STALE_CLAIM_S = 300.0

MANIFEST_NAME = "manifest.json"
CLAIMS_DIR = "claims"
CACHE_DIR = "cache"


def _warm_worker() -> None:
    """Pool initializer: pay the simulator import cost once per worker."""
    import repro.core.deployment  # noqa: F401
    import repro.faults  # noqa: F401
    import repro.obs.rollup  # noqa: F401


def run_chunk(chunk: Sequence[Any], cache_root: Optional[str],
              collect_rollup: bool = True) -> Dict[str, Any]:
    """Execute one batch of jobs inside a worker (the chunk entry point).

    For every job: probe the cache, run on a miss, store atomically,
    fold the metrics snapshot into a chunk-local rollup, and keep a
    metric-stripped run record.  Returns one shippable dict::

        {"records": [...],          # stripped run records, job order
         "rollup": {...} | None,    # lossless partial (to_partial_doc)
         "hits": int, "misses": int,
         "wall_s": float,           # worker-side wall time for sizing
         "payload_bytes": int}      # canonical-JSON size of the payload

    ``payload_bytes`` measures what actually rides back over IPC
    (records + partial rollup, canonical JSON) and is deterministic for
    a fixed chunking — the sweep-scale benchmark pins bounds on it.
    """
    import time

    from repro.fleet.runner import _fold_key, _record, run_job
    from repro.obs.rollup import RollupAggregate

    start = time.perf_counter()  # repro-lint: disable=wall-clock
    cache = SweepCache(cache_root) if cache_root is not None else None
    rollup = RollupAggregate() if collect_rollup else None
    records: List[Dict[str, Any]] = []
    hits = misses = 0
    for job in chunk:
        summary = cache.load(job.digest) if cache is not None else None
        if summary is None:
            summary = run_job(job)
            if cache is not None:
                cache.store(job.digest, summary)
            misses += 1
        else:
            hits += 1
        snapshot = summary.pop("metrics", None)
        if snapshot is not None and rollup is not None:
            rollup.fold(_fold_key(job), snapshot)
        records.append(_record(job, summary))
    partial = rollup.to_partial_doc() if rollup is not None else None
    payload = {"records": records, "rollup": partial}
    return {
        "records": records,
        "rollup": partial,
        "hits": hits,
        "misses": misses,
        "wall_s": time.perf_counter() - start,  # repro-lint: disable=wall-clock
        "payload_bytes": len(_canonical(payload)),
    }


class ChunkSizer:
    """Chunk-size policy: fixed when pinned, else adaptive from wall time.

    Adaptive sizing targets :data:`CHUNK_TARGET_S` of measured work per
    chunk: it starts at 1 (cheap calibration probe), keeps an EMA of
    per-run wall seconds from worker reports, and sizes subsequent
    chunks as ``target / per_run`` clamped to ``[CHUNK_MIN, CHUNK_MAX]``.
    Sizing affects only scheduling — never output bytes, which are
    partition-independent by construction.
    """

    def __init__(self, fixed: Optional[int] = None,
                 target_s: float = CHUNK_TARGET_S) -> None:
        if fixed is not None and fixed < 1:
            raise ValueError(f"chunk size must be >= 1, got {fixed}")
        self.fixed = fixed
        self.target_s = target_s
        self._per_run_s: Optional[float] = None

    def size(self) -> int:
        """The size the next chunk should be cut at."""
        if self.fixed is not None:
            return self.fixed
        if self._per_run_s is None:
            return CHUNK_MIN
        if self._per_run_s <= 0.0:
            return CHUNK_MAX
        want = int(self.target_s / self._per_run_s)
        return max(CHUNK_MIN, min(CHUNK_MAX, want))

    def observe(self, runs: int, wall_s: float) -> None:
        """Fold one completed chunk's worker-side wall time into the EMA."""
        if runs <= 0:
            return
        sample = max(0.0, wall_s) / runs
        if self._per_run_s is None:
            self._per_run_s = sample
        else:
            self._per_run_s = 0.5 * self._per_run_s + 0.5 * sample


def iter_chunks(jobs: Iterable[Any], sizer: ChunkSizer) -> Iterator[List[Any]]:
    """Cut a lazy job stream into chunks sized by ``sizer`` at cut time."""
    it = iter(jobs)
    while True:
        chunk = list(itertools.islice(it, sizer.size()))
        if not chunk:
            return
        yield chunk


def run_chunked_pool(
    pending: Iterable[Any],
    *,
    workers: int,
    cache_root: Optional[str],
    absorb: Callable[[Dict[str, Any]], None],
    collect_rollup: bool = True,
    chunk_size: Optional[int] = None,
    window: Optional[int] = None,
    pool_factory: Callable[..., Any] = ProcessPoolExecutor,
) -> None:
    """Drain ``pending`` through warm pool workers in bounded chunks.

    At most ``window`` (default ``2 * workers``) chunk futures exist at
    any moment — the job stream is consumed lazily, so memory is
    O(window x chunk), not O(jobs), and an interrupt abandons only the
    in-flight chunks (everything stored so far is already in the cache).
    ``absorb`` runs in the parent for each completed chunk, in completion
    order; output determinism comes from the merge keys, not arrival.
    """
    sizer = ChunkSizer(chunk_size)
    if window is None:
        window = 2 * workers
    window = max(1, window)
    chunks = iter_chunks(pending, sizer)
    in_flight: Dict[Any, int] = {}
    with pool_factory(max_workers=workers, initializer=_warm_worker) as pool:
        def fill() -> None:
            while len(in_flight) < window:
                chunk = next(chunks, None)
                if chunk is None:
                    return
                future = pool.submit(run_chunk, chunk, cache_root,
                                     collect_rollup)
                in_flight[future] = len(chunk)

        fill()
        while in_flight:
            done, _ = wait(set(in_flight), return_when=FIRST_COMPLETED)
            for future in done:
                runs = in_flight.pop(future)
                out = future.result()
                sizer.observe(runs, out.get("wall_s", 0.0))
                absorb(out)
            fill()


# ----------------------------------------------------------------------
# Shared-dir backend: manifest + claim files over one directory
# ----------------------------------------------------------------------
def manifest_doc(spec: Any, block_size: int = DEFAULT_BLOCK_SIZE) -> Dict[str, Any]:
    """The canonical manifest document for ``spec``.

    The manifest pins everything a drainer needs to regenerate the exact
    job list — grid, seeds, duration, fault plans, alert rules, the
    claim-block size, and the package version (job digests embed it, so
    mixed-version drainers would simply never see each other's entries;
    refusing up front is kinder).
    """
    return {
        "version": 1,
        "repro_version": _repro_version(),
        "block_size": int(block_size),
        "spec": {
            "grid": list(spec.grid),
            "seeds": [int(s) for s in spec.seeds],
            "days": spec.days,
            "fault_plans": spec.fault_plans,
            "alert_rules": spec.alert_rules,
        },
    }


def _repro_version() -> str:
    from repro import __version__

    return __version__


def ensure_manifest(work_dir: str, spec: Any,
                    block_size: int = DEFAULT_BLOCK_SIZE) -> Dict[str, Any]:
    """Create (or verify) the campaign manifest under ``work_dir``.

    Idempotent: a second invoker with the same spec adopts the existing
    manifest — including its claim-block size, which is fixed at
    campaign creation so every drainer cuts identical blocks.  A
    different spec raises: one work directory hosts exactly one
    campaign.
    """
    os.makedirs(os.path.join(work_dir, CLAIMS_DIR), exist_ok=True)
    os.makedirs(os.path.join(work_dir, CACHE_DIR), exist_ok=True)
    path = os.path.join(work_dir, MANIFEST_NAME)
    doc = manifest_doc(spec, block_size)
    text = _canonical(doc)
    if os.path.exists(path):
        existing = load_manifest(work_dir)
        if _canonical(existing["spec"]) != _canonical(doc["spec"]):
            raise ValueError(
                f"work dir {work_dir!r} already holds a different campaign "
                f"manifest — one work dir hosts one campaign")
        return existing
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)
    return doc


def load_manifest(work_dir: str) -> Dict[str, Any]:
    """Read the campaign manifest; raises on absence or version skew."""
    path = os.path.join(work_dir, MANIFEST_NAME)
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("version") != 1:
        raise ValueError(f"unsupported manifest version {doc.get('version')!r}")
    if doc.get("repro_version") != _repro_version():
        raise ValueError(
            f"manifest was written by repro {doc.get('repro_version')!r}, "
            f"this is {_repro_version()!r} — start a fresh campaign dir")
    return doc


def manifest_spec(doc: Dict[str, Any]) -> Any:
    """Reconstruct the :class:`~repro.fleet.runner.SweepSpec`."""
    from repro.fleet.runner import SweepSpec

    spec = doc["spec"]
    return SweepSpec(grid=list(spec["grid"]), seeds=list(spec["seeds"]),
                     days=spec["days"], fault_plans=spec["fault_plans"],
                     alert_rules=spec["alert_rules"])


class ClaimStore:
    """Atomic claim files: at most one *live* drainer per block.

    A claim is created with ``O_CREAT | O_EXCL`` (atomic on every POSIX
    filesystem, including NFS v3+ for local-dir semantics we rely on) and
    simply left in place when the block completes — completion is judged
    by cache-entry presence, never by claim state, which is what makes a
    kill at any instant resumable.  A claim whose block is still
    incomplete after ``stale_after_s`` is presumed orphaned and stolen
    via an atomic ``os.replace``.  Two stealers racing is safe: both
    recompute the same deterministic block and the cache store is
    atomic, so the only cost is duplicated work.
    """

    def __init__(self, work_dir: str, owner: str,
                 stale_after_s: float = DEFAULT_STALE_CLAIM_S) -> None:
        self.root = os.path.join(work_dir, CLAIMS_DIR)
        self.owner = owner
        self.stale_after_s = stale_after_s

    def _path(self, block: int) -> str:
        return os.path.join(self.root, f"block-{block:08d}.claim")

    def try_claim(self, block: int) -> bool:
        """Claim ``block``; True when this drainer now owns it."""
        os.makedirs(self.root, exist_ok=True)
        path = self._path(block)
        payload = _canonical({"owner": self.owner, "pid": os.getpid()})
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return self._try_steal(path, payload)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        return True

    def _try_steal(self, path: str, payload: str) -> bool:
        import time

        try:
            age = time.time() - os.path.getmtime(path)  # repro-lint: disable=wall-clock
        except OSError:
            # Claim vanished between the O_EXCL race and the stat — the
            # other drainer is live and fast; leave the block to it.
            return False
        if age < self.stale_after_s:
            return False
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp, path)
        return True


def drain_shared_dir(
    work_dir: str,
    *,
    workers: int = 1,
    chunk_size: Optional[int] = None,
    stale_claim_s: float = DEFAULT_STALE_CLAIM_S,
    poll_s: float = 0.2,
    collect_rollup: bool = True,
    absorb: Optional[Callable[[Dict[str, Any]], None]] = None,
    pool_factory: Callable[..., Any] = ProcessPoolExecutor,
    owner: Optional[str] = None,
) -> List[Any]:
    """Cooperatively drain the campaign under ``work_dir`` to completion.

    Walks the manifest's claim blocks, claims and runs the incomplete
    ones (through a local warm-worker pool when ``workers > 1``), and
    polls blocks held by other drainers until every job's cache entry
    exists.  Safe to run concurrently on any number of hosts sharing the
    directory, and safe to kill and re-run: completed work is judged
    purely by cache presence.

    ``absorb`` (if given) sees each chunk result *this* drainer computed
    or loaded — other drainers' blocks never transit this process.
    Returns the full deterministic job list so the caller can assemble
    the sweep from the shared cache.
    """
    doc = load_manifest(work_dir)
    spec = manifest_spec(doc)
    block_size = int(doc["block_size"])
    jobs = spec.jobs()
    cache_root = os.path.join(work_dir, CACHE_DIR)
    cache = SweepCache(cache_root)
    if owner is None:
        import socket

        owner = f"{socket.gethostname()}:{os.getpid()}"
    claims = ClaimStore(work_dir, owner, stale_after_s=stale_claim_s)
    blocks = [jobs[i:i + block_size] for i in range(0, len(jobs), block_size)]
    done: set = set()
    claimed_by_us: set = set()
    in_flight: Dict[Any, int] = {}
    window = max(1, 2 * workers)
    pool = pool_factory(max_workers=workers, initializer=_warm_worker) \
        if workers > 1 else None

    def block_complete(index: int) -> bool:
        if index in done:
            return True
        if all(cache.contains(job.digest) for job in blocks[index]):
            done.add(index)
            return True
        return False

    def absorb_future(future: Any, index: int) -> None:
        out = future.result()
        if absorb is not None:
            absorb(out)
        done.add(index)

    import time

    try:
        while True:
            progressed = False
            if pool is not None and in_flight:
                finished, _ = wait(set(in_flight), timeout=0.0)
                for future in finished:
                    absorb_future(future, in_flight.pop(future))
                    progressed = True
            for index in range(len(blocks)):
                if pool is not None and len(in_flight) >= window:
                    break
                if index in claimed_by_us or block_complete(index):
                    continue
                if not claims.try_claim(index):
                    continue
                claimed_by_us.add(index)
                if pool is not None:
                    future = pool.submit(run_chunk, blocks[index], cache_root,
                                         collect_rollup)
                    in_flight[future] = index
                else:
                    out = run_chunk(blocks[index], cache_root, collect_rollup)
                    if absorb is not None:
                        absorb(out)
                    done.add(index)
                progressed = True
            if len(done) == len(blocks) and not in_flight:
                break
            if not progressed:
                if in_flight:
                    finished, _ = wait(set(in_flight),
                                       return_when=FIRST_COMPLETED)
                    for future in finished:
                        absorb_future(future, in_flight.pop(future))
                else:
                    # Every incomplete block is claimed by a live drainer
                    # elsewhere; wait for its cache entries to land (or
                    # for the claim to go stale and become stealable).
                    time.sleep(poll_s)
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
    return jobs
