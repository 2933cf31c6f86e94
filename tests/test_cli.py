"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main, scenario_from_args

CHAOS_PLAN = "examples/faults/canonical_chaos.json"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.days == 7.0
        assert args.seed == 0
        assert args.override is None

    def test_override_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--override", "5"])

    def test_flags(self):
        args = build_parser().parse_args(
            ["science", "--days", "3", "--seed", "9", "--no-wind", "--solar-w", "4"]
        )
        assert args.days == 3.0 and args.seed == 9
        assert args.no_wind and args.solar_w == 4.0


class TestCommands:
    def test_simulate_prints_summary(self, capsys):
        assert main(["simulate", "--days", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "base" in out and "reference" in out
        assert "Delivered (MB)" in out
        assert "Probes alive" in out

    def test_simulate_with_override(self, capsys):
        assert main(["simulate", "--days", "2", "--override", "1"]) == 0
        out = capsys.readouterr().out
        assert "State" in out

    def test_science_prints_velocity(self, capsys):
        assert main(["science", "--days", "4", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "Ice velocity" in out
        assert "Differential solution fraction" in out

    def test_health_prints_indicators(self, capsys):
        assert main(["health", "--days", "3", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Battery declining" in out
        assert "Burial risk" in out

    def test_no_wind_variant_runs(self, capsys):
        assert main(["simulate", "--days", "2", "--no-wind", "--solar-w", "3"]) == 0


class TestObservabilityCli:
    def test_metrics_prints_prometheus_dump(self, capsys):
        assert main(["metrics", "--days", "2", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE battery_soc gauge" in out
        assert "# TYPE kernel_events_processed gauge" in out
        assert "gprs_upload_bytes_total" in out
        assert 'daily_runs_total{station="base"}' in out

    def test_metrics_out_writes_prometheus_or_json(self, tmp_path, capsys):
        prom = tmp_path / "metrics.prom"
        blob = tmp_path / "metrics.json"
        assert main(["simulate", "--days", "1", "--seed", "1",
                     "--metrics-out", str(prom)]) == 0
        assert main(["simulate", "--days", "1", "--seed", "1",
                     "--metrics-out", str(blob)]) == 0
        capsys.readouterr()
        assert "# TYPE" in prom.read_text()
        import json
        assert json.loads(blob.read_text())["version"] == 1

    def test_spans_out_writes_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "spans.json"
        assert main(["simulate", "--days", "1", "--seed", "1",
                     "--spans-out", str(out)]) == 0
        capsys.readouterr()
        import json
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        assert any(e["ph"] == "M" for e in doc["traceEvents"])

    def test_spans_out_ndjson(self, tmp_path, capsys):
        out = tmp_path / "spans.ndjson"
        assert main(["simulate", "--days", "1", "--seed", "1",
                     "--spans-out", str(out)]) == 0
        capsys.readouterr()
        import json
        lines = out.read_text().splitlines()
        assert lines and all(json.loads(line)["name"] for line in lines)

    def test_same_seed_exports_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.prom", tmp_path / "b.prom"]
        for path in paths:
            assert main(["simulate", "--days", "1", "--seed", "42",
                         "--metrics-out", str(path)]) == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_report_has_observability_section(self, capsys):
        assert main(["report", "--days", "2", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "Observability" in out
        assert "Span totals" in out


class TestFaultCli:
    @staticmethod
    def write_plan(tmp_path, at_s=3600.0):
        import json

        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"name": "cli", "faults": [
            {"kind": "rtc-reset", "station": "base", "at_s": at_s}]}))
        return str(path)

    def test_verify_describes_the_same_scenario_as_simulate(self):
        # No implicit chaos plan or mission length: verify checks exactly
        # the scenario any run command with the same flags would run.
        flags = ["--days", "3", "--stations", "4", "--batched-sync"]
        verify = scenario_from_args(build_parser().parse_args(["verify"] + flags))
        simulate = scenario_from_args(
            build_parser().parse_args(["simulate"] + flags))
        assert verify == simulate
        assert verify.fault_plan_json is None and verify.days == 3.0

    def test_inject_with_plan_exits_on_verdict(self, tmp_path, capsys):
        plan = self.write_plan(tmp_path)
        assert main(["verify", "--days", "2", "--seed", "4",
                     "--faults", plan]) == 0
        out = capsys.readouterr().out
        assert "invariants: OK" in out
        assert "rtc-reset" in out

    def test_verify_writes_metrics_of_the_checked_run(self, tmp_path, capsys):
        metrics = tmp_path / "verify.prom"
        assert main(["verify", "--days", "2", "--seed", "4",
                     "--faults", self.write_plan(tmp_path),
                     "--metrics-out", str(metrics)]) == 0
        capsys.readouterr()
        text = metrics.read_text()
        for family in ("faults_injected_total", "fault_recoveries_total"):
            assert f"# TYPE {family} " in text

    def test_inject_report_out(self, tmp_path, capsys):
        plan = self.write_plan(tmp_path)
        report = tmp_path / "report.txt"
        assert main(["verify", "--days", "2", "--seed", "4", "--faults", plan,
                     "--report-out", str(report)]) == 0
        capsys.readouterr()
        assert "invariants: OK" in report.read_text()

    def test_simulate_accepts_faults_flag(self, tmp_path, capsys):
        plan = self.write_plan(tmp_path)
        assert main(["simulate", "--days", "2", "--seed", "4",
                     "--faults", plan]) == 0
        out = capsys.readouterr().out
        assert "base" in out

    def test_faulted_metrics_include_injection_counters(self, tmp_path, capsys):
        plan = self.write_plan(tmp_path)
        assert main(["metrics", "--days", "2", "--seed", "4",
                     "--faults", plan]) == 0
        out = capsys.readouterr().out
        assert "faults_injected_total" in out

    def test_sweep_fault_grid(self, tmp_path, capsys):
        import json

        plan = self.write_plan(tmp_path)
        out_path = tmp_path / "sweep.json"
        assert main(["sweep", "--days", "1", "--seeds", "0", "--no-cache",
                     "--faults", plan, "--faults", "none",
                     "--output", str(out_path)]) == 0
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        assert len(payload["runs"]) == 2
        with_plan = [r for r in payload["runs"] if "fault_plan" in r]
        assert len(with_plan) == 1
        assert with_plan[0]["result"]["faults"]["injected"] == 1


class TestCliErrors:
    """S2: bad formats and unwritable paths exit non-zero with a clear
    message, never a traceback."""

    def test_unknown_metrics_format_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["metrics", "--days", "1", "--format", "xml"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'xml'" in capsys.readouterr().err

    def test_unknown_export_format_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["export", "--days", "1", "--format", "yaml"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_unwritable_metrics_out_exits_2(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "metrics.prom"
        code = main(["simulate", "--days", "1", "--seed", "0",
                     "--metrics-out", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot write" in captured.err and str(target) in captured.err

    def test_unwritable_spans_out_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "spans.json"
        code = main(["simulate", "--days", "1", "--seed", "0",
                     "--spans-out", str(target)])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    def test_unwritable_sweep_output_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "sweep.json"
        code = main(["sweep", "--days", "1", "--seeds", "0", "--no-cache",
                     "--output", str(target)])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    def test_missing_alert_rules_file_is_clean_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--days", "1",
                  "--alerts", "/no/such/rules.json"])
        assert excinfo.value.code == 2
        assert "repro-sim: cannot load alert rules" in capsys.readouterr().err

    def test_malformed_alert_rules_is_clean_error(self, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        rules.write_text('{"rules": [{"name": "x", "type": "bogus"}]}')
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--days", "1", "--alerts", str(rules)])
        assert excinfo.value.code == 2
        assert "unknown type" in capsys.readouterr().err


class TestScenarioInputErrors:
    """One validation rule for scenario inputs: every command that takes
    a plan, rules or a station count loads and checks them once, and a
    bad input exits 2 with a ``repro-sim: ...`` message, no traceback."""

    @staticmethod
    def bogus_plan(tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"faults": [{"kind": "meteor-strike", '
                        '"station": "base", "at_s": 10}]}')
        return str(path)

    @staticmethod
    def exits_2(argv, capsys, message):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"repro-sim: {message}" in capsys.readouterr().err

    def test_missing_plan_file(self, capsys):
        self.exits_2(["simulate", "--days", "1", "--faults", "/nonexistent.json"],
                     capsys, "cannot load fault plan /nonexistent.json")

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_unknown_fault_kind(self, tmp_path, capsys, command):
        self.exits_2([command, "--days", "1", "--faults", self.bogus_plan(tmp_path)],
                     capsys, "cannot load fault plan")

    def test_sweep_plans_validated_before_fan_out(self, tmp_path, capsys):
        self.exits_2(["sweep", "--days", "1", "--no-cache",
                      "--faults", "none", "--faults", self.bogus_plan(tmp_path)],
                     capsys, "cannot load fault plan")

    def test_sweep_missing_rules_file(self, capsys):
        self.exits_2(["sweep", "--days", "1", "--no-cache",
                      "--alerts", "/no/such/rules.json"],
                     capsys, "cannot load alert rules")

    @pytest.mark.parametrize("command", ["simulate", "verify", "sweep"])
    def test_single_station_rejected(self, capsys, command):
        self.exits_2([command, "--days", "1", "--stations", "1"],
                     capsys, "--stations must be >= 2")


class TestVerifyCli:
    def test_json_report_has_determinism_section(self, tmp_path, capsys):
        report = tmp_path / "verify.json"
        assert main(["verify", "--days", "0.05",
                     "--report-out", str(report)]) == 0
        capsys.readouterr()
        payload = json.loads(report.read_text())
        assert payload["ok"] is True
        assert payload["checks"] == {"determinism": True, "tie_replay": True,
                                     "invariants": True}
        det = payload["determinism"]
        assert det["digest_a"] == det["digest_b"]
        assert len(det["digest_a"]) == 64
        assert payload["tie_replay"]["robust"] is True
        assert payload["invariants"] is None  # no plan armed

    def test_vacuous_mission_fails(self, capsys):
        # 0.01 days ends before the first trace record: nothing to compare.
        assert main(["verify", "--days", "0.01"]) == 1
        out = capsys.readouterr().out
        assert "no trace records" in out
        assert "verify FAILED: determinism, tie_replay, invariants" in out


class TestMetricsFormat:
    def test_metrics_json_format(self, capsys):
        import json

        assert main(["metrics", "--days", "1", "--seed", "0",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 1
        assert any(m["name"] == "battery_soc" for m in doc["metrics"])


class TestProvenanceCli:
    def test_inject_prints_conservation_line(self, capsys):
        assert main(["verify", "--days", "2", "--seed", "4",
                     "--faults", CHAOS_PLAN]) == 0
        out = capsys.readouterr().out
        assert "conservation: OK" in out
        assert "created=" in out and "archived=" in out

    def test_report_has_provenance_section(self, capsys):
        assert main(["report", "--days", "2", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "Data provenance" in out
        assert "conservation: OK" in out

    def test_metrics_dump_carries_provenance_families(self, capsys):
        assert main(["metrics", "--days", "2", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "provenance_edges_total" in out
        assert "provenance_conserved 1" in out


class TestAlertsCli:
    @staticmethod
    def write_rules(tmp_path, value=1e9):
        import json

        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"rules": [
            {"name": "soc-floor", "type": "threshold",
             "signal": {"source": "base", "kind": "local_state",
                        "field": "voltage"},
             "op": "<", "value": value},
        ]}))
        return str(path)

    def test_quiet_rules_print_ok(self, tmp_path, capsys):
        rules = self.write_rules(tmp_path, value=0.0)  # never fires
        assert main(["simulate", "--days", "1", "--seed", "0",
                     "--alerts", rules]) == 0
        out = capsys.readouterr().out
        assert "alerts: OK (1 rules, none fired)" in out

    def test_firing_rules_are_listed(self, tmp_path, capsys):
        rules = self.write_rules(tmp_path, value=1e9)  # always fires
        assert main(["simulate", "--days", "1", "--seed", "0",
                     "--alerts", rules]) == 0
        out = capsys.readouterr().out
        assert "[soc-floor]" in out

    def test_report_gains_alerts_section(self, tmp_path, capsys):
        rules = self.write_rules(tmp_path, value=0.0)
        assert main(["report", "--days", "1", "--seed", "0",
                     "--alerts", rules]) == 0
        out = capsys.readouterr().out
        assert "Alerts\n" in out

    def test_shipped_slo_rules_run_clean_mission(self, capsys):
        assert main(["simulate", "--days", "1", "--seed", "0",
                     "--alerts", "examples/alerts/mission_slo.json"]) == 0
        out = capsys.readouterr().out
        assert "alerts:" in out


class TestRollupCli:
    def sweep(self, tmp_path, capsys, name, seeds):
        out = tmp_path / f"{name}.json"
        rollup = tmp_path / f"{name}_rollup.json"
        assert main(["sweep", "--days", "1", "--seeds", seeds, "--no-cache",
                     "--output", str(out), "--rollup-out", str(rollup)]) == 0
        capsys.readouterr()
        return rollup

    def test_sweep_rollup_out_and_merge_identity(self, tmp_path, capsys):
        import json

        shard_a = self.sweep(tmp_path, capsys, "a", "0")
        shard_b = self.sweep(tmp_path, capsys, "b", "1")
        combined = self.sweep(tmp_path, capsys, "ab", "0,1")
        merged_path = tmp_path / "merged.json"
        assert main(["rollup", str(shard_a), str(shard_b),
                     "--output", str(merged_path)]) == 0
        assert merged_path.read_text() == combined.read_text()
        doc = json.loads(merged_path.read_text())
        assert doc["runs"] == 2

    def test_rollup_table_renders(self, tmp_path, capsys):
        shard = self.sweep(tmp_path, capsys, "t", "0")
        assert main(["rollup", str(shard), "--table"]) == 0
        out = capsys.readouterr().out
        assert "Campaign rollup: 1 run(s)" in out
        assert "Counters (summed across runs)" in out

    def test_overlapping_shards_exit_1(self, tmp_path, capsys):
        shard = self.sweep(tmp_path, capsys, "dup", "0")
        assert main(["rollup", str(shard), str(shard)]) == 1
        assert "overlap" in capsys.readouterr().err

    def test_unreadable_shard_exits_2(self, tmp_path, capsys):
        assert main(["rollup", str(tmp_path / "nope.json")]) == 2
        assert "cannot read rollup shard" in capsys.readouterr().err
