"""The benchmark harness: failed-op accounting, the result line, the spec, check."""

import json
import re

import pytest

from bench import BENCHMARK_JSON, check, harness, workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


class TestFailedOps:
    def test_a_consistent_run_passes_and_reports_every_metric(self, spec):
        result = harness.measure("endurance_year", 0, 0.0, days=1.0)
        assert result["correct"]
        assert result["attempted"] == harness.MIN_OPS
        assert result["failed"] == 0
        line = harness.contract_line(result)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [m["name"] for m in spec["end_to_end"]]
        assert all(m["value"] > 0 for m in line["metrics"].values())

    def test_a_digest_mismatch_is_a_failed_op(self):
        wrong = {"endurance_year": {"0": "0" * 64}}
        result = harness.measure("endurance_year", 0, 0.0, days=1.0, pins=wrong)
        assert not result["correct"]
        assert result["failed"] == result["attempted"] == harness.MIN_OPS
        assert "digest" in result["problems"][0]
        assert harness.contract_line(result)["failed"] == harness.MIN_OPS


def test_a_traced_sweep_reports_worker_spans_and_every_layer_metric(spec):
    result = harness.measure("sweep_cold", 0, 0.0, trace=True, days=0.01)
    assert result["correct"], result["problems"]
    values = {k: m["samples"][0] for k, m in result["metrics"].items()}
    assert list(values) == [m["name"] for m in spec["per_layer"]]
    runs = 125 * workloads.SWEEP_SEEDS_PER_CONFIG
    assert values["fleet.cache_misses"] == runs
    # Parent probe plus worker probe per job, merged from both sides.
    assert values["fleet.cache_load_calls"] == 2 * runs
    assert values["sim.events"] > 0 and values["energy.self_s"] > 0.0
    assert values["fleet.chunk_wall_s"] > 0.0


class TestSpec:
    def test_keys_and_limits(self, spec):
        assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
        assert 1 <= len(spec["end_to_end"]) <= 16
        assert 1 <= len(spec["per_layer"]) <= 128
        assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

    def test_names_and_units(self, spec):
        names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for entry in spec[key]]
        assert all(NAME.match(name) for name in names)
        assert len(names) == len(set(names))
        for entry in spec["end_to_end"] + spec["per_layer"]:
            assert UNIT.match(entry["unit"])
            assert entry["better"] in ("higher", "lower")

    def test_bounds_within_the_format_limit(self, spec):
        # The values come from calibration (bench/README.md); a file with a
        # bound outside (0, 0.25] is refused before a single run.
        assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        assert (setup["unit"], setup["better"]) == ("s", "lower")


def run_doc(samples, failed=0):
    """A ``bench run`` document with one workload and the given samples."""
    metrics = {name: {"unit": "u", "samples": values}
               for name, values in samples.items()}
    return {"workloads": {"w": {"correct": failed == 0, "failed": failed,
                                "metrics": metrics}}}


SPEC = {"end_to_end": [
    {"name": "speed", "unit": "1/s", "better": "higher", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2},
]}


class TestCheck:
    def verdicts(self, a, b):
        rows, regressed = check.compare(a, b, SPEC)
        return {row[1]: row[-1] for row in rows}, regressed

    def test_within_bounds_passes(self):
        a = run_doc({"speed": [10, 10, 10], "setup_s": [1, 1, 1]})
        b = run_doc({"speed": [9.5, 9.5, 9.5], "setup_s": [1.1, 1.1, 1.1]})
        assert self.verdicts(a, b) == ({"speed": "ok", "setup_s": "ok"}, False)

    def test_worse_than_the_bound_in_its_direction_regresses(self):
        a = run_doc({"speed": [10, 10, 10], "setup_s": [1, 1, 1]})
        b = run_doc({"speed": [8, 8, 8], "setup_s": [0.5, 0.5, 0.5]})
        assert self.verdicts(a, b) == (
            {"speed": "REGRESSION", "setup_s": "ok"}, True)

    def test_spread_wider_than_the_bound_is_unresolved(self):
        a = run_doc({"speed": [5, 10, 15], "setup_s": [1, 1, 1]})
        b = run_doc({"speed": [4, 8, 12], "setup_s": [1, 1, 1]})
        assert self.verdicts(a, b) == (
            {"speed": "unresolved", "setup_s": "ok"}, False)

    def test_more_failed_ops_regresses(self):
        same = {"speed": [10, 10, 10], "setup_s": [1, 1, 1]}
        verdicts, regressed = self.verdicts(run_doc(same), run_doc(same, failed=1))
        assert regressed and verdicts["failed ops"] == "REGRESSION"
