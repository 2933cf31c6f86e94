"""The performance gate: ``benchmarks/check_regression.py`` and ``BENCH.json``.

The checker's exit codes are driven from a tmp reference and a tmp
pytest-benchmark run JSON; the committed reference is checked for rows
that name real benchmarks and for the >= 10x counter claims its notes
make against the retired engines.
"""

import json
import re
from pathlib import Path

import pytest

from benchmarks import check_regression

BENCHMARKS_DIR = Path(check_regression.__file__).parent


def write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_doc(*rows):
    """A pytest-benchmark run document: ``(name, min_ms, extra_info)`` rows."""
    return {"benchmarks": [
        {"name": name, "stats": {"min": min_ms / 1000.0}, "extra_info": extra}
        for name, min_ms, extra in rows
    ]}


REFERENCE = {"benchmarks": {
    "test_fast": {"current_min_ms": 10.0},
    "test_counted": {
        "current_min_ms": 100.0,
        "counters": {"events": {"max": 500}, "draws": {"min": 10}},
    },
}}


@pytest.fixture
def check(tmp_path, monkeypatch):
    """``check(run, reference=REFERENCE)`` -> the checker's exit code."""
    monkeypatch.delenv("REPRO_BENCH_TOLERANCE", raising=False)

    def _check(run, reference=REFERENCE):
        return check_regression.main([
            write_json(tmp_path / "run.json", run),
            "--reference", write_json(tmp_path / "ref.json", reference),
        ])

    return _check


def good_rows(fast_ms=12.0, events=400, draws=20):
    return (("test_fast", fast_ms, {}),
            ("test_counted", 100.0, {"events": events, "draws": draws}))


class TestExitCodes:
    def test_within_tolerance_passes(self, check):
        assert check(run_doc(*good_rows())) == 0

    def test_faster_than_reference_passes(self, check):
        assert check(run_doc(*good_rows(fast_ms=1.0))) == 0

    def test_slower_than_tolerance_fails(self, check):
        # The default tolerance, 0.30, allows up to 13 ms.
        assert check(run_doc(*good_rows(fast_ms=12.9))) == 0
        assert check(run_doc(*good_rows(fast_ms=13.5))) == 1

    def test_counter_above_max_fails(self, check):
        assert check(run_doc(*good_rows(events=501))) == 1

    def test_counter_below_min_fails(self, check):
        assert check(run_doc(*good_rows(draws=9))) == 1

    def test_counter_at_its_bounds_passes(self, check):
        assert check(run_doc(*good_rows(events=500, draws=10))) == 0

    def test_missing_row_fails(self, check):
        assert check(run_doc(good_rows()[1])) == 1

    def test_missing_counter_fails(self, check):
        assert check(run_doc(("test_fast", 10.0, {}),
                             ("test_counted", 100.0, {"events": 1}))) == 1

    def test_extra_run_rows_are_ignored(self, check):
        assert check(run_doc(*good_rows(), ("test_unpinned", 1e6, {}))) == 0

    def test_empty_run_is_bad_input(self, check):
        assert check(run_doc()) == 2

    def test_unreadable_run_is_bad_input(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_TOLERANCE", raising=False)
        bad = tmp_path / "run.json"
        bad.write_text("{not json", encoding="utf-8")
        assert check_regression.main([str(bad)]) == 2
        assert check_regression.main([str(tmp_path / "absent.json")]) == 2

    def test_unreadable_reference_is_bad_input(self, tmp_path):
        run = write_json(tmp_path / "run.json", run_doc(*good_rows()))
        assert check_regression.main(
            [run, "--reference", str(tmp_path / "absent.json")]) == 2
        assert check_regression.main(
            [run, "--reference", write_json(tmp_path / "ref.json", {})]) == 2


class TestTolerance:
    def test_env_var_sets_the_default(self, check, monkeypatch):
        run = run_doc(*good_rows(fast_ms=14.0))
        assert check(run) == 1
        monkeypatch.setenv("REPRO_BENCH_TOLERANCE", "0.50")
        assert check(run) == 0

    def test_row_tolerance_beats_the_env_var(self, check, monkeypatch):
        reference = json.loads(json.dumps(REFERENCE))
        reference["benchmarks"]["test_fast"]["tolerance"] = 1.0
        monkeypatch.setenv("REPRO_BENCH_TOLERANCE", "0.10")
        assert check(run_doc(*good_rows(fast_ms=19.0)), reference) == 0
        assert check(run_doc(*good_rows(fast_ms=21.0)), reference) == 1
        reference["benchmarks"]["test_fast"]["tolerance"] = 0.05
        monkeypatch.setenv("REPRO_BENCH_TOLERANCE", "0.50")
        assert check(run_doc(*good_rows(fast_ms=11.0)), reference) == 1

    def test_unparsable_env_var_is_bad_input(self, check, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_TOLERANCE", "loose")
        assert check(run_doc(*good_rows())) == 2


class TestCommittedReference:
    @pytest.fixture(scope="class")
    def rows(self):
        doc = json.loads(check_regression.DEFAULT_REFERENCE.read_text(encoding="utf-8"))
        return doc["benchmarks"]

    def test_is_the_only_reference_file(self):
        assert check_regression.DEFAULT_REFERENCE.name == "BENCH.json"
        assert sorted(p.name for p in BENCHMARKS_DIR.glob("BENCH*.json")) == ["BENCH.json"]

    def test_every_row_names_a_benchmark(self, rows):
        defined = set()
        for module in BENCHMARKS_DIR.glob("test_*.py"):
            defined.update(re.findall(r"^def (test_\w+)\(",
                                      module.read_text(encoding="utf-8"), re.M))
        for name in rows:
            assert name.split("[", 1)[0] in defined, name

    def test_every_row_is_gated(self, rows):
        for name, row in rows.items():
            assert row["current_min_ms"] > 0, name
            assert 0 < row.get("tolerance", check_regression.DEFAULT_TOLERANCE) <= 1.0

    @pytest.mark.parametrize("row,engine,counter", [
        ("test_throughput_e20_batched", "fixed_tick_bus", "energy_syncs_total"),
        ("test_throughput_fleet_batched", "legacy_comms_stack", "events_processed"),
        ("test_sweep_cold_batched", "per_job_engine", "ipc_payload_bytes"),
        ("test_sweep_cold_batched", "per_job_engine", "parent_folds"),
    ])
    def test_tenfold_claims_are_enforced(self, rows, row, engine, counter):
        frozen = rows[row]["baselines"][engine]["counters"][counter]
        bound = rows[row]["counters"][counter]["max"]
        assert frozen / bound >= 10

    def test_counter_bounds_are_not_loosened(self, rows):
        assert {name: row["counters"] for name, row in rows.items()
                if "counters" in row} == {
            "test_deployment_day_shuffle": {
                "shuffle_over_fifo_pct": {"max": 110.0}},
            "test_throughput_e20_batched": {
                "energy_syncs_total": {"max": 6000},
                "events_processed": {"max": 90000},
                "dispatch_batches": {"max": 35000},
                "comms_exact_draws": {"min": 1000}},
            "test_throughput_fleet_batched": {
                "events_processed": {"max": 65000},
                "dispatch_batches": {"max": 25000},
                "comms_exact_draws": {"min": 1000}},
            "test_sweep_cold_batched": {
                "cache_misses": {"min": 500, "max": 500},
                "ipc_payload_bytes": {"max": 650000},
                "parent_folds": {"max": 8},
                "chunks_dispatched": {"min": 8, "max": 8}},
            "test_sweep_warm_batched": {
                "cache_hits": {"min": 500, "max": 500},
                "chunks_dispatched": {"max": 0},
                "ipc_payload_bytes": {"max": 0}},
            "test_mission_with_provenance": {
                "provenance_created": {"min": 247, "max": 247},
                "provenance_conserved": {"min": 1, "max": 1}},
        }
