"""Perturbed-tie replay harness: robustness verdicts and bisection.

The harness replays one mission under several tie-break policies and
diffs tie-normalized trace digests.  A tie-robust toy mission must pass
under every policy; an intentionally order-dependent mission must fail
*and* bisect to the exact pair of schedule callsites that race.
"""

import pytest

from repro.cli import main
from repro.faults import Scenario
from repro.lint.findings import Severity
from repro.lint.tie_replay import (
    DIVERGENCE_RULE,
    check_tie_robustness,
    normalize_tie_order,
    policy_factory,
)
from repro.sim import Simulation


class TestNormalizeTieOrder:
    def test_sorts_within_instants_only(self):
        lines = [
            "1.000000000|b|x|",
            "1.000000000|a|y|",
            "2.000000000|z|k|",
            "2.000000000|a|k|",
        ]
        assert normalize_tie_order(lines) == [
            "1.000000000|a|y|",
            "1.000000000|b|x|",
            "2.000000000|a|k|",
            "2.000000000|z|k|",
        ]

    def test_cross_instant_order_preserved(self):
        lines = ["5.000000000|a|x|", "1.000000000|b|y|"]
        # Instants arrive in trace order; normalization never re-sorts
        # across group boundaries, even if timestamps were (impossibly)
        # out of order.
        assert normalize_tie_order(lines) == lines

    def test_empty(self):
        assert normalize_tie_order([]) == []


class RobustMission:
    """Same-instant emissions whose *content* is tie-independent."""

    def __init__(self, policy):
        self.sim = Simulation(seed=0, tie_break=policy)

    def run_days(self, days):
        sim = self.sim
        for label in ("a", "b", "c"):
            sim.call_at(10.0, lambda label=label: sim.trace.emit(
                "toy", "ping", label=label))
        sim.run(until=days * 86400.0)


class RacyMission:
    """Two same-instant callbacks sharing a counter: a genuine race."""

    WRITER_OFFSET = 11  # lines below class def: the writer call_at
    READER_OFFSET = 12  # lines below class def: the reader call_at

    def __init__(self, policy):
        self.sim = Simulation(seed=0, tie_break=policy)
        self.counter = {"n": 0}

    def run_days(self, days):
        sim, counter = self.sim, self.counter

        def writer():
            counter["n"] += 1
            sim.trace.emit("toy", "write", n=counter["n"])

        def reader():
            sim.trace.emit("toy", "read", n=counter["n"])

        sim.call_at(10.0, writer)
        sim.call_at(10.0, reader)
        sim.run(until=days * 86400.0)


def _racy_callsite_lines():
    """Absolute line numbers of the two racing ``call_at`` calls."""
    import inspect

    source, start = inspect.getsourcelines(RacyMission)
    lines = {}
    for offset, text in enumerate(source):
        if "sim.call_at(10.0, writer)" in text:
            lines["writer"] = start + offset
        if "sim.call_at(10.0, reader)" in text:
            lines["reader"] = start + offset
    return lines


class TestRobustMission:
    def test_passes_under_all_policies(self):
        report = check_tie_robustness(
            days=0.01, policies=("fifo", "lifo", "shuffle:1", "shuffle:9"),
            mission_factory=RobustMission)
        assert report.robust
        assert report.divergences == ()
        assert report.findings == ()
        digests = {run.normalized_digest for run in report.runs}
        assert len(digests) == 1
        # The raw (un-normalized) digests need not agree: within-instant
        # order is presentation.
        assert len(report.runs) == 4

    def test_format_mentions_ok(self):
        report = check_tie_robustness(days=0.01, policies=("fifo", "lifo"),
                                      mission_factory=RobustMission)
        assert "tie replay OK" in report.format()


class TestRacyMission:
    @pytest.fixture(scope="class")
    def report(self):
        return check_tie_robustness(days=0.01, policies=("fifo", "lifo"),
                                    mission_factory=RacyMission)

    def test_detected(self, report):
        assert not report.robust
        assert len(report.divergences) == 1
        divergence = report.divergences[0]
        assert divergence.policy == "lifo"
        assert divergence.time == 10.0
        assert "read" in divergence.baseline_line

    def test_bisected_to_callsite_pair(self, report):
        lines = _racy_callsite_lines()
        assert set(lines) == {"writer", "reader"}
        located = {(f.path, f.line) for f in report.findings}
        assert {line for _path, line in located} == set(lines.values())
        assert all(path.endswith("test_tie_replay.py") for path, _line in located)
        for finding in report.findings:
            assert finding.rule == DIVERGENCE_RULE
            assert finding.severity is Severity.ERROR
            assert "dispatch order flipped" in finding.message

    def test_report_round_trips_to_dict(self, report):
        payload = report.to_dict()
        assert payload["robust"] is False
        assert payload["policies"] == ["fifo", "lifo"]
        assert len(payload["findings"]) == len(report.findings)
        assert payload["divergences"][0]["time"] == 10.0

    def test_format_shows_bisection(self, report):
        text = report.format()
        assert "tie replay FAILED" in text
        assert "first divergence" in text
        assert "tie-order-divergence" in text


class TestValidation:
    def test_needs_two_policies(self):
        with pytest.raises(ValueError):
            check_tie_robustness(policies=("fifo",),
                                 mission_factory=RobustMission)


class TestCanonicalMission:
    def test_short_canonical_mission_is_tie_robust(self):
        # The CI smoke runs 10 days; one day here keeps the suite quick
        # while still crossing the noon schedule boundary that produced
        # the original voltage_sample race.
        report = check_tie_robustness(
            seed=0, days=1.0, policies=("fifo", "lifo", "shuffle:1"),
            mission_factory=policy_factory(Scenario.of(seed=0)))
        assert report.robust, report.format()


class SilentMission:
    """Emits nothing at all: every policy agrees, vacuously."""

    def __init__(self, policy):
        self.sim = Simulation(seed=0, tie_break=policy)

    def run_days(self, days):
        self.sim.run(until=days * 86400.0)


class TestVacuousReplay:
    def test_empty_trace_is_not_robust(self):
        report = check_tie_robustness(days=0.01, policies=("fifo", "lifo"),
                                      mission_factory=SilentMission)
        assert report.divergences == ()
        assert report.vacuous and not report.robust
        assert "no trace records" in report.format()


class TestMain:
    def test_exit_zero_on_robust_mission(self, capsys):
        # The tie replay's command-line entry point is ``repro-sim verify``
        # (fifo against shuffle:1 on the scenario the flags describe).
        assert main(["verify", "--days", "0.25"]) == 0
        assert "tie replay OK" in capsys.readouterr().out
