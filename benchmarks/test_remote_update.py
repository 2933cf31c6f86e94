"""E13 — Section VI: remote configuration latencies and checksum updates.

Three measurements:

1. special-command output arrives in Southampton ~24 h after execution
   (it rides the next day's log upload), so acting on it takes ~48 h from
   staging;
2. the checksum of a code update is visible *immediately* (the HTTP-GET
   side channel) — the paper's workaround for that delay;
3. a corrupted download is detected and the old version keeps running.
"""

import pytest

from benchmarks.conftest import run_once
from repro.analysis.report import format_table
from repro.core import Deployment, DeploymentConfig
from repro.server.deployment import CodeRelease, InstallOutcome, verify_and_install
from repro.sim.simtime import DAY, HOUR


def run_special_latency():
    deployment = Deployment(DeploymentConfig(seed=80))
    deployment.run_days(0.4)  # before the first comms window
    staged_at = deployment.sim.now
    deployment.server.stage_special("base", lambda: "battery report")
    deployment.run_days(3)
    trace = deployment.sim.trace
    executed = trace.select(source="base", kind="special_executed")[0].time
    output_upload = next(
        u.time
        for u in deployment.server.uploads
        if u.station == "base" and u.kind == "logs" and u.payload["special_outputs"]
    )
    return staged_at, executed, output_upload


def test_special_output_takes_a_day(benchmark, emit):
    staged_at, executed, output_at = run_once(benchmark, run_special_latency)
    execute_delay_h = (executed - staged_at) / HOUR
    output_delay_h = (output_at - executed) / HOUR
    round_trip_h = (output_at - staged_at) / HOUR
    # Executed at the next daily contact (same day here: staged at 09:36).
    assert execute_delay_h < 24.0
    # "a 24 hour delay between executing the code and getting the results".
    assert output_delay_h == pytest.approx(24.0, abs=2.0)
    # "a 48 hours delay between the code being sent and the results ...
    # being acted upon": acting means staging a follow-up for the *next*
    # window, ~24 h after the output lands.
    act_h = round_trip_h + 24.0
    assert 40.0 < act_h < 56.0
    emit(
        "Section VI — special-command latencies",
        format_table(
            ["Stage", "Hours"],
            [
                ("staged -> executed", round(execute_delay_h, 1)),
                ("executed -> output in Southampton", round(output_delay_h, 1)),
                ("staged -> can act on result", round(act_h, 1)),
            ],
        ),
    )


def test_checksum_report_is_immediate(benchmark, emit):
    """The HTTP-GET MD5 report lands within the same session."""

    def run():
        deployment = Deployment(DeploymentConfig(seed=81))
        release = CodeRelease("basestation.py", version=2,
                              content="v2 control script", size_bytes=60_000)
        deployment.server.publish_release(release)
        # Drive an update inside a normal comms session.
        sim = deployment.sim

        def update_session(sim):
            modem = deployment.base.modem
            yield sim.process(modem.connect())
            start = sim.now
            outcome = yield sim.process(
                verify_and_install(
                    sim, modem, deployment.base.server, "base", "basestation.py",
                    deployment.base.installed_versions,
                )
            )
            modem.disconnect()
            report = deployment.server.last_checksum_report("basestation.py")
            return start, outcome, report, release

        proc = sim.process(update_session(sim))
        deployment.run_days(0.2)
        return proc.value

    start, outcome, report, release = run_once(benchmark, run)
    assert outcome is InstallOutcome.INSTALLED
    assert report is not None
    latency_s = report[0] - start
    assert latency_s < 15 * 60  # same session: seconds-to-minutes, not a day
    assert report[3] == release.md5
    emit(
        "Section VI — checksum visibility",
        format_table(
            ["Measure", "Value"],
            [("checksum visible after (s)", round(latency_s, 1)),
             ("matches published md5", report[3] == release.md5)],
        ),
    )


def test_corrupt_update_keeps_old_version(benchmark):
    def run():
        deployment = Deployment(DeploymentConfig(seed=82))
        release = CodeRelease("basestation.py", version=3, content="v3", size_bytes=60_000)
        deployment.server.publish_release(release)
        deployment.base.installed_versions["basestation.py"] = 2
        sim = deployment.sim

        def update_session(sim):
            modem = deployment.base.modem
            yield sim.process(modem.connect())
            outcome = yield sim.process(
                verify_and_install(
                    sim, modem, deployment.base.server, "base", "basestation.py",
                    deployment.base.installed_versions,
                    corruption_probability=1.0,
                )
            )
            modem.disconnect()
            return outcome

        proc = sim.process(update_session(sim))
        deployment.run_days(0.2)
        return proc.value, deployment.base.installed_versions, deployment.server

    outcome, versions, server = run_once(benchmark, run)
    assert outcome is InstallOutcome.CHECKSUM_MISMATCH
    assert versions["basestation.py"] == 2  # old file kept
    # Southampton can see the mismatch immediately.
    report = server.last_checksum_report("basestation.py")
    assert report is not None
    assert report[3] != CodeRelease("basestation.py", 3, "v3", 60_000).md5
