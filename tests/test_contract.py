"""The behaviour contract: pinned trace digests and sweep cache keys.

The three trace digests are the ones ``docs/determinism.md`` shows
(same-seed replay, chaos replay, tie-normalized chaos replay); a change
that moves one changes what every seed means.  The sweep digests are the
merge and cache keys that reach every cached sweep output, so moving them
must be a deliberate cache-version bump, never a side effect.
"""

import json
from pathlib import Path

import pytest

from repro.faults import Scenario
from repro.fleet import SweepSpec
from repro.lint.determinism import lines_digest, run_mission
from repro.lint.tie_replay import normalize_tie_order

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
CHAOS = json.loads((EXAMPLES / "faults" / "canonical_chaos.json").read_text())
SLO = json.loads((EXAMPLES / "alerts" / "mission_slo.json").read_text())


class TestTraceDigests:
    def test_seed_0_half_day(self):
        digest, _lines = run_mission(Scenario.of(seed=0, days=0.5))
        assert digest == (
            "024caf07a0855c84de64d034b162c242bb7dfa77183bdf75886fcb04f17d5dc9")

    def test_canonical_chaos_seed_42(self):
        # The plan arms the invariant checker, which only observes: the
        # digest is the one pinned before the checker was always armed.
        digest, _lines = run_mission(
            Scenario.of(seed=42, days=45.0, fault_plan=CHAOS))
        assert digest == (
            "ac2c9fddbbf15d8ba6039a727acf2044b0036db393df481367699f37dd5c3fd1")

    @pytest.mark.parametrize("policy", ["fifo", "shuffle:1"])
    def test_canonical_chaos_tie_normalized(self, policy):
        _digest, lines = run_mission(Scenario.of(
            {"tie_break": policy}, seed=0, days=45.0, fault_plan=CHAOS))
        assert len(lines) == 17058
        assert lines_digest(normalize_tie_order(lines)) == (
            "3e26d926b2a2a2d67dbc661776e22f692db83480a2c8cf314e4820a48399c668")


CONFIG_DIGEST = "0b509e99904e5c18cf11eea319b15c61feec79bad930b7ceb51605675d17b6ab"


class TestSweepDigests:
    @pytest.mark.parametrize("plan, rules, job", [
        (None, None,
         "22834ecbecdc7bedafaa27d6b178d2e657ecffad06f80ccd2bf8ac1aa8a3eea3"),
        (CHAOS, None,
         "1316ea5d40c90d9ae6fc3ef39045720b5d7026c47093ebb86b1be0637fa004c2"),
        (None, SLO,
         "e7d238cdde5e7610c2c9ff41eb9bb16956544569dcef0c477c0f9d5c6d22d853"),
        (CHAOS, SLO,
         "38145f2340bb4dce46a5778eecb149b584e1635ce06e2cbddcd8ee989d502dc5"),
    ], ids=["plain", "faulted", "alerted", "faulted+alerted"])
    def test_config_and_job_digest(self, plan, rules, job):
        spec = SweepSpec(grid=[{"solar_w": 5.0, "servers": 2}], seeds=[3],
                         days=2.0, fault_plans=[plan], alert_rules=rules)
        (only,) = spec.jobs()
        assert only.config_digest == CONFIG_DIGEST
        assert only.digest == job
