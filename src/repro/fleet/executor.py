"""Sweep execution: one chunked dispatch loop and shared-dir draining.

Every sweep path runs its jobs through :func:`run_chunked_pool`, which
hands chunks to :func:`run_chunk` — in-process when ``workers <= 1``,
otherwise in warm pool workers:

- **Chunked dispatch** — jobs run in batches, amortising the
  pickle/IPC/scheduling cost per chunk.  Chunk size adapts to measured
  run wall time (:class:`ChunkSizer`) and the pool loop keeps a
  bounded in-flight window instead of materialising every future up
  front, so a million-job campaign holds O(window) futures and a kill
  leaves a cleanly resumable cache.
- **Chunk-side cache I/O** — :func:`run_chunk` loads and atomically
  stores cache entries where it runs (the ``os.replace`` layout is
  concurrency-safe), so summaries never round-trip through the parent
  just to reach disk.
- **Partial-rollup shipping** — each chunk folds its metric snapshots
  into a local :class:`~repro.obs.rollup.RollupAggregate` and returns
  one lossless partial (raw Shewchuk partials, see
  ``rollup.to_partial_doc``) plus metric-stripped run records.  The
  parent's fold cost collapses from O(runs) registry folds to O(chunks)
  partial merges, and per-run IPC payloads shrink by an order of
  magnitude.
- **Shared-dir work sharing** — a campaign manifest plus an atomic
  claim-file protocol over a shared directory lets several hosts drain
  one sweep cooperatively and resumably (:func:`drain_shared_dir`, which
  feeds its claimed blocks through the same dispatch loop).  Claims are
  an *optimisation*, not a lock: results are deterministic and cache
  stores are atomic, so the rare double-computed block is harmless.

Byte-identical sweep output across ``--jobs``, chunk sizes, shared-dir
drainers, and completion order stays the hard contract; every path
funnels through the same record builder and exact, order-independent
rollup folds.
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
    """Execute one batch of jobs, in a pool worker or in-process.

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
    """Drain ``pending`` through :func:`run_chunk`, one chunk at a time.

    The one place a sweep runs a chunk.  With ``workers <= 1`` each chunk
    runs in-process (no pool, no pickling — the path coverage tools and
    debuggers see).  Otherwise chunks go to warm pool workers and at most
    ``window`` (default ``2 * workers``) chunk futures exist at any
    moment — the job stream is consumed lazily, so memory is
    O(window x chunk), not O(jobs), and an interrupt abandons only the
    in-flight chunks (everything stored so far is already in the cache).
    ``absorb`` runs in the parent for each completed chunk, in completion
    order; output determinism comes from the merge keys, not arrival.
    """
    sizer = ChunkSizer(chunk_size)
    chunks = iter_chunks(pending, sizer)
    if workers <= 1:
        for chunk in chunks:
            out = run_chunk(chunk, cache_root, collect_rollup)
            sizer.observe(len(chunk), out["wall_s"])
            absorb(out)
        return
    if window is None:
        window = 2 * workers
    window = max(1, window)
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
# Shared-dir draining: manifest + claim files over one directory
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
    absorb: Callable[[Dict[str, Any]], None],
    workers: int = 1,
    stale_claim_s: float = DEFAULT_STALE_CLAIM_S,
    poll_s: float = 0.2,
    collect_rollup: bool = True,
    pool_factory: Callable[..., Any] = ProcessPoolExecutor,
    owner: Optional[str] = None,
) -> List[Any]:
    """Cooperatively drain the campaign under ``work_dir`` to completion.

    Each pass streams the blocks this drainer can claim through
    :func:`run_chunked_pool`, cut at the manifest's block size — every
    block but the last is full, so chunks coincide with blocks, and a
    block is claimed only when a window slot frees to run it.  Blocks
    held by other drainers are re-probed every ``poll_s`` (and stolen
    once their claim goes stale) until every job's cache entry exists.
    Safe to run concurrently on any number of hosts sharing the
    directory, and safe to kill and re-run: completed work is judged
    purely by cache presence.

    ``absorb`` sees each chunk result *this* drainer computed or loaded —
    other drainers' blocks never transit this process.  Returns the full
    deterministic job list so the caller can assemble the sweep from the
    shared cache.
    """
    import time

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
    # Blocks found complete in the cache, or claimed (hence run) here.
    done: set = set()

    def incomplete(index: int) -> bool:
        if index not in done and all(cache.contains(job.digest)
                                     for job in blocks[index]):
            done.add(index)
        return index not in done

    def claimed_jobs() -> Iterator[Any]:
        for index, block in enumerate(blocks):
            if incomplete(index) and claims.try_claim(index):
                done.add(index)
                yield from block

    while True:
        run_chunked_pool(claimed_jobs(), workers=workers,
                         cache_root=cache_root, absorb=absorb,
                         collect_rollup=collect_rollup,
                         chunk_size=block_size, pool_factory=pool_factory)
        if not any(incomplete(index) for index in range(len(blocks))):
            return jobs
        # Every incomplete block is claimed by a live drainer elsewhere;
        # wait for its cache entries to land (or for the claim to go
        # stale and become stealable).
        time.sleep(poll_s)
