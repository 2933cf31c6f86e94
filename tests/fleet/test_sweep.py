"""Fleet sweep tests: caching, deterministic merge, parallel equivalence."""

import json
import random

import pytest

from repro.fleet import (
    SweepCache,
    SweepSpec,
    config_digest,
    expand_grid,
    job_digest,
    merge_runs,
    run_sweep,
    sweep_to_json,
)


def small_spec(days=1.0, seeds=(0, 1)):
    return SweepSpec(grid=expand_grid({"solar_w": [5.0, 10.0]}),
                     seeds=list(seeds), days=days)


class TestDigests:
    def test_config_digest_ignores_dict_order(self):
        a = config_digest({"solar_w": 5.0, "wind_w": 0.0})
        b = config_digest({"wind_w": 0.0, "solar_w": 5.0})
        assert a == b

    def test_job_digest_changes_with_config(self):
        assert job_digest({"solar_w": 5.0}, 1.0, 0) != job_digest(
            {"solar_w": 6.0}, 1.0, 0
        )

    def test_job_digest_changes_with_seed_days_version(self):
        base = job_digest({}, 1.0, 0)
        assert job_digest({}, 1.0, 1) != base
        assert job_digest({}, 2.0, 0) != base
        assert job_digest({}, 1.0, 0, version="0.0.0-other") != base


class TestExpandGrid:
    def test_empty_params_single_default_point(self):
        assert expand_grid({}) == [{}]

    def test_cartesian_product(self):
        grid = expand_grid({"solar_w": [5.0, 10.0], "wind_w": [0.0, 50.0]})
        assert len(grid) == 4
        assert {"solar_w": 10.0, "wind_w": 50.0} in grid

    # Besides a made-up name: the retired engine knobs.  A stale campaign
    # that still sets one must fail here, not silently run the default.
    @pytest.mark.parametrize("field", [
        "not_a_field", "energy_mode", "comms_mode", "energy_step_s",
        "energy_max_step_s", "probe_defer_sampling",
    ])
    def test_unknown_field_rejected_at_job_expansion(self, field):
        spec = SweepSpec(grid=[{field: 1}], seeds=[0], days=1.0)
        with pytest.raises(ValueError, match=field):
            spec.jobs()


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        digest = job_digest({}, 1.0, 0)
        assert cache.load(digest) is None
        cache.store(digest, {"answer": 42})
        assert cache.load(digest) == {"answer": 42}
        assert cache.stats() == (1, 1)

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        digest = job_digest({}, 1.0, 0)
        cache.store(digest, {"ok": True})
        path = cache._path(digest)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"truncated')
        assert cache.load(digest) is None

    def test_sweep_second_invocation_all_hits(self, tmp_path):
        spec = small_spec()
        first = run_sweep(spec, jobs=1, cache=SweepCache(str(tmp_path)))
        assert first.cache_hits == 0 and first.cache_misses == 4
        second = run_sweep(spec, jobs=1, cache=SweepCache(str(tmp_path)))
        assert second.cache_misses == 0
        assert second.hit_rate >= 0.9
        assert sweep_to_json(first) == sweep_to_json(second)

    def test_config_change_invalidates(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        spec = SweepSpec(grid=[{"solar_w": 5.0}], seeds=[0], days=1.0)
        run_sweep(spec, jobs=1, cache=cache)
        changed = SweepSpec(grid=[{"solar_w": 6.0}], seeds=[0], days=1.0)
        result = run_sweep(changed, jobs=1, cache=cache)
        assert result.cache_hits == 0 and result.cache_misses == 1

    def test_version_change_invalidates(self, tmp_path, monkeypatch):
        cache = SweepCache(str(tmp_path))
        spec = SweepSpec(grid=[{}], seeds=[0], days=1.0)
        run_sweep(spec, jobs=1, cache=cache)
        import repro.fleet.cache as cache_mod

        monkeypatch.setattr(cache_mod, "__version__", "999.0.0")
        result = run_sweep(spec, jobs=1, cache=SweepCache(str(tmp_path)))
        assert result.cache_misses == 1


class TestDeterministicMerge:
    def test_merge_orders_by_digest_then_seed(self):
        runs = [
            {"config_digest": "bb", "seed": 1, "r": 3},
            {"config_digest": "aa", "seed": 2, "r": 2},
            {"config_digest": "aa", "seed": 1, "r": 1},
        ]
        merged = merge_runs(runs)
        assert [(r["config_digest"], r["seed"]) for r in merged] == [
            ("aa", 1), ("aa", 2), ("bb", 1)
        ]

    def test_shuffled_completion_order_same_json(self):
        spec = small_spec()
        result = run_sweep(spec, jobs=1, cache=None)
        text = sweep_to_json(result)
        shuffled = type(result)(runs=list(result.runs))
        random.Random(7).shuffle(shuffled.runs)  # repro-lint: disable=rng-discipline
        assert sweep_to_json(shuffled) == text

    def test_json_excludes_cache_stats(self, tmp_path):
        spec = small_spec(seeds=(0,))
        cold = run_sweep(spec, jobs=1, cache=SweepCache(str(tmp_path)))
        warm = run_sweep(spec, jobs=1, cache=SweepCache(str(tmp_path)))
        assert (cold.cache_misses, warm.cache_hits) == (2, 2)
        assert sweep_to_json(cold) == sweep_to_json(warm)


class TestParallelEquivalence:
    def test_parallel_matches_serial_byte_for_byte(self):
        spec = small_spec(seeds=(0,))
        serial = sweep_to_json(run_sweep(spec, jobs=1, cache=None))
        parallel = sweep_to_json(run_sweep(spec, jobs=2, cache=None))
        assert parallel == serial

    def test_parallel_populates_cache_for_serial(self, tmp_path):
        spec = small_spec(seeds=(0,))
        run_sweep(spec, jobs=2, cache=SweepCache(str(tmp_path)))
        warm = run_sweep(spec, jobs=1, cache=SweepCache(str(tmp_path)))
        assert warm.cache_misses == 0

    def test_summary_shape(self):
        spec = SweepSpec(grid=[{}], seeds=[3], days=1.0)
        result = run_sweep(spec, jobs=1, cache=None)
        (run,) = result.runs
        summary = run["result"]
        assert set(summary["stations"]) == {"base", "reference"}
        assert summary["events_processed"] > 0
        assert summary["days"] == 1.0
        for station in summary["stations"].values():
            assert station["daily_runs"] >= 1


def tiny_plan_dict(at_s=3600.0):
    return {"name": "tiny", "faults": [
        {"kind": "rtc-reset", "station": "base", "at_s": at_s}]}


class TestFaultGrid:
    def test_plan_changes_job_digest_none_does_not(self):
        base = job_digest({}, 1.0, 0)
        assert job_digest({}, 1.0, 0, fault_plan=None) == base
        assert job_digest({}, 1.0, 0, fault_plan=tiny_plan_dict()) != base

    def test_jobs_cross_grid_with_plans(self):
        spec = SweepSpec(grid=[{}], seeds=[0, 1], days=1.0,
                         fault_plans=[None, tiny_plan_dict()])
        jobs = spec.jobs()
        assert len(jobs) == 4
        assert len({j.digest for j in jobs}) == 4
        assert sum(1 for j in jobs if j.scenario.fault_plan_json is None) == 2

    def test_faulted_run_carries_faults_summary(self):
        spec = SweepSpec(grid=[{}], seeds=[0], days=1.0,
                         fault_plans=[None, tiny_plan_dict()])
        result = run_sweep(spec, jobs=1, cache=None)
        by_plan = {json.dumps(r.get("fault_plan"), sort_keys=True): r
                   for r in result.runs}
        plain = by_plan["null"]
        faulted = next(r for k, r in by_plan.items() if k != "null")
        assert "faults" not in plain["result"]
        faults = faulted["result"]["faults"]
        assert faults["injected"] == 1
        assert faults["violations"] == 0
        assert faulted["fault_plan"] == tiny_plan_dict()

    def test_merge_is_stable_across_plan_ordering(self):
        a = SweepSpec(grid=[{}], seeds=[0], days=1.0,
                      fault_plans=[None, tiny_plan_dict()])
        b = SweepSpec(grid=[{}], seeds=[0], days=1.0,
                      fault_plans=[tiny_plan_dict(), None])
        assert sweep_to_json(run_sweep(a, jobs=1, cache=None)) == \
            sweep_to_json(run_sweep(b, jobs=1, cache=None))

    def test_fault_grid_parallel_matches_serial(self):
        spec = SweepSpec(grid=[{}], seeds=[0], days=1.0,
                         fault_plans=[None, tiny_plan_dict()])
        serial = sweep_to_json(run_sweep(spec, jobs=1, cache=None))
        parallel = sweep_to_json(run_sweep(spec, jobs=2, cache=None))
        assert parallel == serial

    def test_plain_sweep_cache_keys_survive_fault_feature(self, tmp_path):
        """A pre-faults cache entry (no fault_plan in the key) must still
        hit for a fault-free sweep."""
        cache = SweepCache(str(tmp_path))
        spec = SweepSpec(grid=[{}], seeds=[0], days=1.0)
        run_sweep(spec, jobs=1, cache=cache)
        with_plans_field = SweepSpec(grid=[{}], seeds=[0], days=1.0,
                                     fault_plans=None)
        warm = run_sweep(with_plans_field, jobs=1,
                         cache=SweepCache(str(tmp_path)))
        assert warm.cache_misses == 0


class TestSweepCli:
    def run_cli(self, argv, tmp_path, capsys):
        from repro.cli import main

        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0
        return captured

    def test_cli_jobs_byte_identical_and_cached(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        out1 = str(tmp_path / "a.json")
        out2 = str(tmp_path / "b.json")
        argv = ["sweep", "--days", "1", "--seeds", "0,1",
                "--param", "solar_w=5,10", "--cache-dir", cache_dir]
        first = self.run_cli(argv + ["--jobs", "2", "--output", out1],
                             tmp_path, capsys)
        second = self.run_cli(argv + ["--jobs", "1", "--output", out2],
                              tmp_path, capsys)
        with open(out1, encoding="utf-8") as fh1, open(out2, encoding="utf-8") as fh2:
            assert fh1.read() == fh2.read()
        assert "4 cached, 0 computed" in second.err

    def test_cli_no_cache_writes_nothing(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = ["sweep", "--days", "1", "--seeds", "0", "--no-cache",
                "--cache-dir", str(cache_dir),
                "--output", str(tmp_path / "out.json")]
        self.run_cli(argv, tmp_path, capsys)
        assert not cache_dir.exists()

    def test_cli_stdout_json_parses(self, tmp_path, capsys):
        argv = ["sweep", "--days", "1", "--seeds", "0", "--no-cache"]
        captured = self.run_cli(argv, tmp_path, capsys)
        payload = json.loads(captured.out)
        assert len(payload["runs"]) == 1

    def test_cli_rejects_malformed_param(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["sweep", "--param", "solar_w"])
