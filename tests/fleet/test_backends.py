"""Cross-path byte-equality: in-process, pool, shared-dir, concurrent drainers.

The hard contract under test: a sweep's JSON and rollup bytes depend
only on the spec and the package version — never on ``--jobs``, chunk
size, a shared work dir, completion order, cache temperature, or which
of several cooperating drainers computed which block.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.fleet import (
    SweepCache,
    SweepSpec,
    expand_grid,
    run_sweep,
    sweep_to_json,
)

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def small_spec(days=0.25, seeds=(0, 1)):
    # Integer override values to match what the CLI parses from
    # ``--param solar_w=5,10``.
    return SweepSpec(grid=expand_grid({"solar_w": [5, 10]}),
                     seeds=list(seeds), days=days)


def outputs(result):
    return sweep_to_json(result), result.rollup.to_json()


@pytest.fixture(scope="module")
def reference():
    """The jobs=1, no-cache ground truth for ``small_spec()``."""
    return outputs(run_sweep(small_spec(), jobs=1))


class TestPoolBackend:
    @pytest.mark.parametrize("chunk_size", [1, 3, None])
    def test_chunked_pool_matches_inline(self, tmp_path, reference, chunk_size):
        result = run_sweep(small_spec(), jobs=2,
                           cache=SweepCache(str(tmp_path / "c")),
                           chunk_size=chunk_size)
        assert outputs(result) == reference
        assert result.chunks_dispatched > 0
        assert result.parent_folds <= result.chunks_dispatched

    def test_warm_rerun_stays_identical_and_parent_side(self, tmp_path, reference):
        cache = SweepCache(str(tmp_path / "c"))
        run_sweep(small_spec(), jobs=2, cache=cache, chunk_size=2)
        warm = run_sweep(small_spec(), jobs=2, cache=cache, chunk_size=2)
        assert outputs(warm) == reference
        assert warm.cache_misses == 0
        # Hits are served by the parent's probe, never the pool.
        assert warm.chunks_dispatched == 0

    def test_in_process_cold_sweep_runs_through_chunks(self, tmp_path,
                                                       reference):
        result = run_sweep(small_spec(), jobs=1,
                           cache=SweepCache(str(tmp_path / "c")))
        assert outputs(result) == reference
        assert result.cache_misses == 4
        assert result.chunks_dispatched >= 1
        assert result.parent_folds == result.chunks_dispatched

    def test_progress_lines_reach_the_sink(self, tmp_path):
        lines = []
        run_sweep(small_spec(), jobs=1,
                  cache=SweepCache(str(tmp_path / "c")),
                  progress=lines.append)
        assert lines  # at least the final summary line
        assert lines[-1].startswith("sweep: 4/4 runs")


class TestSharedDirBackend:
    def test_single_drainer_matches_inline(self, tmp_path, reference):
        result = run_sweep(small_spec(), jobs=1,
                           work_dir=str(tmp_path / "wd"), chunk_size=1)
        assert outputs(result) == reference
        assert result.cache_misses == 4
        assert result.cache_hits == 0

    def test_pooled_cold_drain_matches_inline(self, tmp_path, reference):
        result = run_sweep(small_spec(), jobs=2,
                           work_dir=str(tmp_path / "wd"), chunk_size=1)
        assert outputs(result) == reference
        assert result.cache_misses == 4
        assert result.cache_hits == 0

    def test_warm_rerun_assembles_identically(self, tmp_path, reference):
        work_dir = str(tmp_path / "wd")
        run_sweep(small_spec(), jobs=1, work_dir=work_dir)
        warm = run_sweep(small_spec(), jobs=2, work_dir=work_dir)
        assert outputs(warm) == reference
        assert warm.cache_misses == 0
        assert warm.cache_hits == 4

    def test_rejects_external_cache(self, tmp_path):
        with pytest.raises(ValueError, match="its own cache"):
            run_sweep(small_spec(), work_dir=str(tmp_path / "wd"),
                      cache=SweepCache(str(tmp_path / "c")))

    def test_different_spec_same_work_dir_rejected(self, tmp_path):
        work_dir = str(tmp_path / "wd")
        run_sweep(small_spec(), work_dir=work_dir)
        with pytest.raises(ValueError, match="different campaign"):
            run_sweep(small_spec(seeds=(7, 8)), work_dir=work_dir)


def drainer_cmd(work_dir, out, rollup_out, days="0.25", seeds="0,1",
                extra=()):
    return [sys.executable, "-m", "repro.cli", "sweep",
            "--days", days, "--seeds", seeds, "--param", "solar_w=5,10",
            "--work-dir", work_dir,
            "--chunk-size", "1", "--output", out,
            "--rollup-out", rollup_out, *extra]


def drainer_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC
    return env


class TestConcurrentDrainers:
    def test_two_drainers_produce_identical_bytes(self, tmp_path, reference):
        work_dir = str(tmp_path / "wd")
        procs = []
        for tag in ("a", "b"):
            out = str(tmp_path / f"sweep-{tag}.json")
            rollup = str(tmp_path / f"rollup-{tag}.json")
            procs.append((out, rollup, subprocess.Popen(
                drainer_cmd(work_dir, out, rollup),
                env=drainer_env(), stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)))
        for _, _, proc in procs:
            assert proc.wait(timeout=120) == 0
        sweep_ref, rollup_ref = reference
        for out, rollup, _ in procs:
            assert Path(out).read_text(encoding="utf-8") == sweep_ref
            assert Path(rollup).read_text(encoding="utf-8") == rollup_ref

    def test_kill_and_resume_mid_sweep(self, tmp_path):
        # Slower runs and more of them, so the SIGKILL lands mid-drain;
        # the resume steals the orphaned claim (stale_claim_s=0) and
        # completes the campaign from whatever the victim left in cache.
        spec = SweepSpec(grid=expand_grid({"solar_w": [5, 10]}),
                         seeds=[0, 1, 2], days=30.0)
        ref = outputs(run_sweep(spec, jobs=1))
        work_dir = str(tmp_path / "wd")
        cache_dir = Path(work_dir) / "cache"
        out = str(tmp_path / "victim.json")
        victim = subprocess.Popen(
            drainer_cmd(work_dir, out, str(tmp_path / "victim-rollup.json"),
                        days="30", seeds="0,1,2"),
            env=drainer_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60  # repro-lint: disable=wall-clock
            while time.monotonic() < deadline:  # repro-lint: disable=wall-clock
                entries = (list(cache_dir.glob("*/*.json"))
                           if cache_dir.is_dir() else [])
                if entries or victim.poll() is not None:
                    break
                time.sleep(0.01)
            if victim.poll() is None:
                victim.send_signal(signal.SIGKILL)
        finally:
            victim.wait(timeout=60)
        resumed = run_sweep(spec, jobs=1, work_dir=work_dir,
                            stale_claim_s=0.0)
        assert outputs(resumed) == ref
        assert resumed.cache_hits + resumed.cache_misses == 6
