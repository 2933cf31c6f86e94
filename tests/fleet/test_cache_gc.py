"""Cache GC: prune superseded generations, never touch what isn't ours."""

import json
import os
import time

import pytest

from repro import __version__
from repro.fleet import SweepCache

DIGEST_A = "a" * 64
DIGEST_B = "b" * 64
DIGEST_C = "c" * 64
DIGEST_D = "d" * 64


def write_entry(root, digest, payload):
    """Plant a raw cache file, bypassing SweepCache.store's envelope."""
    shard = root / digest[:2]
    shard.mkdir(parents=True, exist_ok=True)
    path = shard / f"{digest}.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestGc:
    def test_current_version_entries_kept(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        cache.store(DIGEST_A, {"answer": 42})
        report = cache.gc()
        assert report.kept_entries == 1
        assert report.removed_entries == 0
        assert cache.load(DIGEST_A) == {"answer": 42}

    def test_stale_version_entries_pruned_with_byte_count(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        cache.store(DIGEST_A, {"answer": 42})
        old = write_entry(tmp_path, DIGEST_B,
                          {"v": "0.0.0-old", "summary": {"answer": 41}})
        old_size = old.stat().st_size
        report = cache.gc()
        assert report.removed_entries == 1
        assert report.reclaimed_bytes >= old_size
        assert report.kept_entries == 1
        assert not old.exists()
        assert cache.load(DIGEST_A) == {"answer": 42}

    def test_corrupt_foreign_and_legacy_files_untouched(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        corrupt = write_entry(tmp_path, DIGEST_A, {})
        corrupt.write_text("{truncated", encoding="utf-8")
        legacy = write_entry(tmp_path, DIGEST_B, {"answer": 42})
        shard = tmp_path / DIGEST_C[:2]
        shard.mkdir(exist_ok=True)
        foreign_file = shard / "README.txt"
        foreign_file.write_text("hands off", encoding="utf-8")
        foreign_dir = tmp_path / "not-a-shard"
        foreign_dir.mkdir()
        (foreign_dir / "data.json").write_text("{}", encoding="utf-8")
        report = cache.gc()
        assert report.removed_entries == 0
        assert report.removed_tmp == 0
        assert report.skipped_foreign >= 4
        assert corrupt.exists() and legacy.exists()
        assert foreign_file.exists() and foreign_dir.exists()
        # The legacy unwrapped payload still loads.
        assert cache.load(DIGEST_B) == {"answer": 42}

    def test_wrapped_lookalike_with_extra_keys_untouched(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        lookalike = write_entry(
            tmp_path, DIGEST_D,
            {"v": "0.0.0-old", "summary": {}, "extra": True})
        report = cache.gc()
        assert report.removed_entries == 0
        assert lookalike.exists()

    def test_old_tmp_reaped_fresh_tmp_kept(self, tmp_path):
        from repro.fleet.cache import TMP_REAP_AGE_S

        cache = SweepCache(str(tmp_path))
        shard = tmp_path / DIGEST_A[:2]
        shard.mkdir(parents=True)
        old_tmp = shard / f"{DIGEST_A}.json.tmp.12345"
        old_tmp.write_text("partial write", encoding="utf-8")
        past = time.time() - TMP_REAP_AGE_S * 2  # repro-lint: disable=wall-clock
        os.utime(old_tmp, (past, past))
        fresh_tmp = shard / f"{DIGEST_B}.json.tmp.12345"
        fresh_tmp.write_text("live write", encoding="utf-8")
        report = cache.gc()
        assert report.removed_tmp == 1
        assert not old_tmp.exists()
        assert fresh_tmp.exists()

    def test_missing_root_is_a_clean_noop(self, tmp_path):
        report = SweepCache(str(tmp_path / "never-created")).gc()
        assert report.removed_entries == 0
        assert report.kept_entries == 0

    def test_versioned_store_roundtrips_through_envelope(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        cache.store(DIGEST_A, {"answer": 42})
        raw = json.loads(
            (tmp_path / DIGEST_A[:2] / f"{DIGEST_A}.json").read_text(
                encoding="utf-8"))
        assert raw == {"v": __version__, "summary": {"answer": 42}}
        assert cache.load(DIGEST_A) == {"answer": 42}


class TestCacheGcCli:
    def run_cli(self, argv, capsys):
        from repro.cli import main

        code = main(argv)
        return code, capsys.readouterr()

    def test_cache_gc_reports_and_exits(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        cache = SweepCache(str(cache_dir))
        cache.store(DIGEST_A, {"answer": 42})
        write_entry(cache_dir, DIGEST_B,
                    {"v": "0.0.0-old", "summary": {}})
        code, captured = self.run_cli(
            ["sweep", "--cache-gc", "--cache-dir", str(cache_dir)], capsys)
        assert code == 0
        assert "removed 1 stale entry" in captured.err
        assert "kept 1 current entry" in captured.err
        assert "reclaimed" in captured.err
        assert captured.out == ""  # no sweep ran

    def test_cache_gc_with_no_cache_is_contradictory(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit, match="contradictory"):
            main(["sweep", "--cache-gc", "--no-cache"])

    def test_cache_gc_shared_dir_targets_work_dir_cache(self, tmp_path, capsys):
        work_dir = tmp_path / "wd"
        cache = SweepCache(str(work_dir / "cache"))
        write_entry(work_dir / "cache", DIGEST_B,
                    {"v": "0.0.0-old", "summary": {}})
        code, captured = self.run_cli(
            ["sweep", "--cache-gc", "--work-dir", str(work_dir)], capsys)
        assert code == 0
        assert "removed 1 stale entry" in captured.err
        assert cache.gc().removed_entries == 0  # already pruned
