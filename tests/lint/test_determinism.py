"""Regression: same-seed missions replay bit-for-bit; different seeds don't."""

from repro.cli import main as cli_main
from repro.faults import Scenario
from repro.lint.determinism import (
    DeterminismReport,
    compare_replay,
    record_canonical,
    run_mission,
    trace_digest,
)
from repro.sim.trace import TraceRecord

#: Short but non-trivial: covers an MSP430 sampling cycle and sensor reads.
DAYS = 0.15


def check_determinism(seed, days):
    """Run the same scenario twice and diff the traces."""
    scenario = Scenario.of(seed=seed, days=days)
    _digest_a, lines_a = run_mission(scenario)
    _digest_b, lines_b = run_mission(scenario)
    return compare_replay(seed, days, lines_a, lines_b)


class TestDigest:
    def test_canonical_sorts_detail_keys(self):
        a = TraceRecord(time=1.0, source="s", kind="k", detail={"b": 2, "a": 1})
        b = TraceRecord(time=1.0, source="s", kind="k", detail={"a": 1, "b": 2})
        assert record_canonical(a) == record_canonical(b)

    def test_digest_sensitive_to_order_and_content(self):
        r1 = TraceRecord(time=1.0, source="s", kind="k", detail={"v": 1})
        r2 = TraceRecord(time=2.0, source="s", kind="k", detail={"v": 1})
        assert trace_digest([r1, r2]) != trace_digest([r2, r1])
        assert trace_digest([r1]) != trace_digest([r2])
        assert trace_digest([]) != trace_digest([r1])


class TestHarness:
    def test_same_seed_identical(self):
        report = check_determinism(seed=0, days=DAYS)
        assert report.identical, report.summary()
        assert report.digest_a == report.digest_b
        assert report.first_divergence is None
        assert "determinism OK" in report.summary()

    def test_run_mission_produces_records(self):
        digest, lines = run_mission(Scenario.of(seed=0, days=DAYS))
        assert len(digest) == 64
        assert lines, "a mission this long must emit trace records"

    def test_different_seeds_diverge(self):
        """Sanity: the digest actually reflects the randomness, not just time."""
        digest_a, _ = run_mission(Scenario.of(seed=0, days=DAYS))
        digest_b, _ = run_mission(Scenario.of(seed=1, days=DAYS))
        assert digest_a != digest_b

    def test_main_exit_codes(self, capsys):
        # The replay's command-line entry point is ``repro-sim verify``.
        assert cli_main(["verify", "--seed", "0", "--days", str(DAYS)]) == 0
        assert "determinism OK" in capsys.readouterr().out


class TestVacuousReplay:
    def test_empty_trace_is_not_a_pass(self):
        report = compare_replay(0, 0.01, [], [])
        assert report.identical and not report.ok
        assert "determinism FAILED" in report.summary()
        assert "no trace records" in report.summary()

    def test_mission_too_short_to_emit_fails(self):
        _digest, lines = run_mission(Scenario.of(seed=0, days=0.01))
        assert lines == []
        assert not compare_replay(0, 0.01, lines, lines).ok


class TestDivergenceReporting:
    def test_summary_pinpoints_first_divergence(self):
        report = check_determinism(seed=0, days=DAYS)
        # Forge a diverged report from the real one to exercise the renderer.
        forged = DeterminismReport(
            seed=0, days=DAYS,
            digest_a=report.digest_a,
            digest_b="0" * 64,
            first_divergence=(3, "A-line", "B-line"),
        )
        text = forged.summary()
        assert "FAILED" in text and "record 3" in text
        assert "A-line" in text and "B-line" in text
