"""E14 — ablation: the NACK-free protocol vs the stop-and-wait baseline.

Why the paper's "new technique, avoiding acknowledge packets" wins: across
the whole loss range the NACK-free stream + selective refetch moves the
same task in less airtime (bytes on the half-duplex link ~ energy and
window time), and its cross-day task memory delivers *everything* where the
baseline strands readings.
"""

import pytest

from benchmarks.conftest import run_once
from repro.analysis.report import format_table
from repro.comms.probe_radio import ProbeRadioLink
from repro.environment.glacier import GlacierModel
from repro.probes.probe import Probe
from repro.protocol.bulk import BulkFetcher
from repro.protocol.stopwait import StopWaitFetcher
from repro.sensors.probe_sensors import make_probe_sensor_suite
from repro.sim import Simulation
from repro.sim.simtime import HOUR

LOSS_SWEEP = (0.0, 0.05, 0.13, 0.25, 0.40)
TASK_SIZE = 400


def build_probe(sim, seed):
    glacier = GlacierModel(seed=seed)
    probe = Probe(
        sim, probe_id=22, sensors=make_probe_sensor_suite(glacier, 22),
        sampling_interval_s=10.0, lifetime_days=10_000.0,
    )
    sim.run(until=TASK_SIZE * 10.0 + 5.0)
    return probe


def run_bulk(loss, seed=90):
    sim = Simulation(seed=seed)
    probe = build_probe(sim, seed)
    link = ProbeRadioLink(sim, loss_fn=lambda ts: [loss] * len(ts), name="e14.bulk")
    fetcher = BulkFetcher(sim)
    airtime = 0
    sessions = 0
    for _ in range(12):
        proc = sim.process(fetcher.fetch(probe, link))
        sim.run(until=sim.now + 6 * HOUR)
        airtime += proc.value.airtime_bytes
        sessions += 1
        if proc.value.complete:
            break
    delivered = TASK_SIZE if probe.tasks_completed else TASK_SIZE - proc.value.missing_after
    return airtime, sessions, delivered


def run_stopwait(loss, seed=90):
    sim = Simulation(seed=seed)
    probe = build_probe(sim, seed)
    link = ProbeRadioLink(sim, loss_fn=lambda ts: [loss] * len(ts), name="e14.sw")
    fetcher = StopWaitFetcher(sim, retries_per_reading=6)
    proc = sim.process(fetcher.fetch(probe, link))
    sim.run(until=sim.now + 12 * HOUR)
    return proc.value.airtime_bytes, 1, proc.value.delivered


def test_protocol_ablation_sweep(benchmark, emit):
    def sweep():
        rows = []
        for loss in LOSS_SWEEP:
            bulk_air, bulk_sessions, bulk_delivered = run_bulk(loss)
            sw_air, _s, sw_delivered = run_stopwait(loss)
            rows.append(
                (loss, bulk_air, sw_air, round(sw_air / bulk_air, 2),
                 bulk_delivered, sw_delivered, bulk_sessions)
            )
        return rows

    rows = run_once(benchmark, sweep)
    for loss, bulk_air, sw_air, ratio, bulk_delivered, sw_delivered, _sessions in rows:
        # The headline: NACK-free always uses less airtime.
        assert bulk_air < sw_air, f"bulk lost at loss={loss}"
        # And never delivers less.
        assert bulk_delivered >= sw_delivered, f"delivery gap at loss={loss}"
    # Everything eventually arrives via the task-memory resume.
    assert all(bulk_delivered == TASK_SIZE for _l, _b, _s, _r, bulk_delivered, _sd, _n in rows)
    # Stop-and-wait strands readings once loss is severe.
    worst = rows[-1]
    assert worst[5] < TASK_SIZE
    emit(
        "E14 — NACK-free vs stop-and-wait over the probe link",
        format_table(
            ["Loss", "Bulk airtime (B)", "S&W airtime (B)", "S&W/Bulk",
             "Bulk delivered", "S&W delivered", "Bulk sessions"],
            rows,
        ),
    )


def test_refetch_all_threshold_ablation(benchmark, emit):
    """The 'request them all again' heuristic: per-reading requests beat a
    full re-stream only when few readings are missing."""

    def compare(missing_fraction):
        from repro.protocol.framing import DATA_HEADER_BYTES, READING_BYTES, REQUEST_BYTES

        total = TASK_SIZE
        missing = int(total * missing_fraction)
        packet = DATA_HEADER_BYTES + READING_BYTES
        selective_bytes = missing * (REQUEST_BYTES + packet)
        restream_bytes = total * packet
        return selective_bytes, restream_bytes

    def sweep():
        rows = []
        for fraction in (0.05, 0.2, 0.4, 0.5, 0.79, 0.9):
            selective, restream = compare(fraction)
            rows.append((fraction, selective, restream,
                         "selective" if selective < restream else "re-stream"))
        return rows

    rows = run_once(benchmark, sweep)
    # Break-even at packet/(request+packet) ~ 0.79 of the task missing.
    assert rows[0][3] == "selective"
    assert rows[-1][3] == "re-stream"
    emit(
        "E14 — selective refetch vs full re-stream (airtime bytes)",
        format_table(["Missing fraction", "Selective (B)", "Re-stream (B)", "Cheaper"], rows),
    )


def test_request_batching_strategy(benchmark, emit):
    """The §V remote fix quantified: batching the selective requests is
    what makes a ~400-miss recovery tractable.  Sweep loss with the
    deployed per-reading requests (batch=1) vs batched (16)."""

    def run_selective(loss, batch):
        sim = Simulation(seed=97)
        probe = build_probe(sim, 97)
        link = ProbeRadioLink(sim, loss_fn=lambda ts: [loss] * len(ts), name=f"e14b.{batch}")
        fetcher = BulkFetcher(sim, request_batch_size=batch)
        task = probe.task()
        key = (22, task.task_id)
        # Yesterday's stream delivered all but ~100 readings.
        fetcher.received[key] = set(range(TASK_SIZE - 100))
        fetcher.store[key] = {}
        proc = sim.process(fetcher.fetch(probe, link))
        sim.run(until=sim.now + 6 * HOUR)
        return proc.value

    def sweep():
        rows = []
        for loss in (0.05, 0.13, 0.25):
            single = run_selective(loss, batch=1)
            batched = run_selective(loss, batch=16)
            rows.append(
                (loss, single.airtime_bytes, round(single.duration_s, 1),
                 batched.airtime_bytes, round(batched.duration_s, 1))
            )
        return rows

    rows = run_once(benchmark, sweep)
    for loss, single_air, single_s, batched_air, batched_s in rows:
        # Batched requests always spend less airtime and less time.
        assert batched_air < single_air, f"loss={loss}"
        assert batched_s <= single_s + 1.0, f"loss={loss}"
    emit(
        "E14 — selective refetch of 100 misses: per-reading vs batched requests",
        format_table(
            ["Loss", "batch=1 airtime (B)", "batch=1 time (s)",
             "batch=16 airtime (B)", "batch=16 time (s)"],
            rows,
        ),
    )
