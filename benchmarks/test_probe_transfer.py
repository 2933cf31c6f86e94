"""E8 — Section V: the 3000-reading summer fetch with ~400 missed packets.

"With 3000 readings being sent in the summer, across the weakest link (due
to summer water) 400 missed packets were common.  Fetching that many
individual readings was never considered in the testing phase and the
process could fail.  Fortunately the task was not marked as complete in the
probes; so many missing readings were obtained in subsequent days."

The bench streams a 3000-reading task over the summer-loss link, counts the
missed packets, then replays daily sessions until the task completes —
asserting multi-day recovery and regenerating the per-day table.
"""

import pytest

from benchmarks.conftest import run_once
from repro.analysis.report import format_table
from repro.comms.probe_radio import ProbeRadioLink
from repro.environment.glacier import GlacierModel
from repro.probes.probe import Probe
from repro.protocol.bulk import BulkFetcher, FetchStrategy
from repro.sensors.probe_sensors import make_probe_sensor_suite
from repro.sim import Simulation
from repro.sim.simtime import DAY, HOUR

SUMMER_LOSS = 400.0 / 3000.0


def build_backlogged_probe(sim, n_readings=3000, seed=33):
    glacier = GlacierModel(seed=seed)
    probe = Probe(
        sim, probe_id=25, sensors=make_probe_sensor_suite(glacier, 25),
        sampling_interval_s=10.0, lifetime_days=10_000.0,
    )
    sim.run(until=n_readings * 10.0 + 5.0)
    assert probe.buffered_count == n_readings
    return probe


def run_summer_fetch(seed=33):
    sim = Simulation(seed=seed)
    probe = build_backlogged_probe(sim, seed=seed)
    link = ProbeRadioLink(sim, loss_fn=lambda ts: [SUMMER_LOSS] * len(ts), name="e8.link")
    fetcher = BulkFetcher(sim)
    sessions = []
    for _day in range(10):
        proc = sim.process(fetcher.fetch(probe, link, budget_s=0.4 * 2 * HOUR))
        sim.run(until=sim.now + 4 * HOUR)
        result = proc.value
        sessions.append(result)
        sim.run(until=sim.now + DAY - 4 * HOUR)
        if result.complete:
            break
    return sessions, probe


def test_summer_3000_reading_fetch(benchmark, emit):
    sessions, probe = run_once(benchmark, run_summer_fetch)

    first = sessions[0]
    assert first.strategy is FetchStrategy.STREAM
    assert first.total == 3000
    # "400 missed packets were common": the first stream leaves ~400 missing.
    assert 300 <= first.missing_after <= 520, first.missing_after
    assert not first.complete

    # "so many missing readings were obtained in subsequent days".
    assert len(sessions) >= 2
    assert sessions[-1].complete
    assert probe.tasks_completed == 1
    # Later sessions use the selective strategy (few enough missing).
    assert sessions[1].strategy is FetchStrategy.SELECTIVE

    emit(
        "Section V — the summer fetch, day by day",
        format_table(
            ["Day", "Strategy", "New readings", "Still missing", "Complete"],
            [
                (i + 1, s.strategy.value, s.received_new, s.missing_after, s.complete)
                for i, s in enumerate(sessions)
            ],
        ),
    )


def test_missed_packets_scale_with_loss(benchmark, emit):
    """The seasonal story: winter (dry ice) leaves almost nothing missing;
    summer water leaves hundreds."""

    def sweep():
        rows = []
        for label, loss in (("winter", 0.02), ("spring", 0.07), ("summer", SUMMER_LOSS)):
            sim = Simulation(seed=40)
            probe = build_backlogged_probe(sim, seed=40)
            link = ProbeRadioLink(sim, loss_fn=lambda ts, p=loss: [p] * len(ts), name=f"e8.{label}")
            fetcher = BulkFetcher(sim)
            proc = sim.process(fetcher.fetch(probe, link, budget_s=2 * HOUR))
            sim.run(until=sim.now + 5 * HOUR)
            rows.append((label, loss, proc.value.missing_after))
        return rows

    rows = run_once(benchmark, sweep)
    missing = [m for _l, _p, m in rows]
    assert missing[0] < missing[1] < missing[2]
    assert missing[0] < 120  # winter: almost clean
    emit(
        "Section V — missed packets vs season (3000-reading task)",
        format_table(["Season", "Packet loss", "Missed after stream"], rows),
    )


def test_task_completion_flag_is_what_saves_the_data(benchmark):
    """Ablation of the paper's save: if the task were marked complete after
    the first (incomplete) session, the missing readings would be lost."""

    def run():
        sim = Simulation(seed=41)
        probe = build_backlogged_probe(sim, n_readings=500, seed=41)
        link = ProbeRadioLink(sim, loss_fn=lambda ts: [0.3] * len(ts), name="e8.flag")
        fetcher = BulkFetcher(sim)
        proc = sim.process(fetcher.fetch(probe, link, budget_s=2 * HOUR))
        sim.run(until=sim.now + 3 * HOUR)
        first = proc.value
        # The WRONG design: premature completion.
        probe.mark_complete(first.task_id)
        held = len(fetcher.holdings(25, first.task_id))
        return first, held, probe.task()

    first, held, next_task = run_once(benchmark, run)
    assert not first.complete
    assert held < 500  # data is short...
    # ...and the probe has discarded the task: those readings are gone.
    assert next_task is None or next_task.task_id != first.task_id
