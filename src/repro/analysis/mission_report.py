"""The mission report: one document summarising a deployment run.

What the Glacsweb team would want on one page after N simulated days:
station status, power history, communication economics, probe fleet
health, science products, and notable incidents — all pulled from the
deployment object and the Southampton archive.
"""

from __future__ import annotations

from typing import List

from repro.analysis.report import format_table
from repro.analysis.science import (
    diurnal_amplitude,
    diurnal_velocity_profile,
    velocity_pressure_correlation,
)
from repro.server.archive import ScienceArchive
from repro.sim.simtime import DAY


def _station_section(deployment) -> str:
    rows = []
    for station in deployment.stations:
        station.bus.sync()
        rows.append(
            (
                station.name,
                station.daily_runs,
                int(station.effective_state),
                round(station.bus.battery.soc, 2),
                round(station.gumstix.total_on_time_s / 3600.0, 1),
                station.gumstix.unclean_shutdowns,
                round(station.modem.cost_total, 2),
            )
        )
    return format_table(
        ["Station", "Runs", "State", "SoC", "Gumstix h", "Hard cuts", "GPRS cost"],
        rows,
        title="Stations",
    )


def _power_section(deployment) -> str:
    rows = []
    for station in deployment.stations:
        station.bus.sync()
        per_load = station.bus.loads.energy_report_wh()
        top = sorted(per_load.items(), key=lambda kv: -kv[1])[:3]
        rows.append(
            (
                station.name,
                round(sum(per_load.values()), 1),
                ", ".join(f"{name.split('.')[-1]}={wh:.1f}" for name, wh in top),
            )
        )
    return format_table(
        ["Station", "Total load (Wh)", "Top consumers (Wh)"], rows, title="Power",
    )


def _comms_section(deployment) -> str:
    server = deployment.server
    rows = []
    for station in deployment.stations:
        rows.append(
            (
                station.name,
                round(server.received_bytes(station=station.name) / 1e6, 2),
                station.modem.connect_failures,
                station.modem.drops,
            )
        )
    return format_table(
        ["Station", "Delivered (MB)", "Connect fails", "Mid-session drops"],
        rows,
        title="Communications",
    )


def _fleet_section(deployment) -> str:
    fleet = deployment.fleet
    rows = []
    shard_bytes = []
    for shard in fleet.shards:
        nbytes = shard.received_bytes()
        shard_bytes.append(nbytes)
        rows.append(
            (
                shard.name,
                len(shard.uploads),
                round(nbytes / 1e6, 2),
                shard.state_uploads,
                shard.retransfers,
            )
        )
    table = format_table(
        ["Shard", "Uploads", "Received (MB)", "State syncs", "Retransfers"],
        rows,
        title="Server fleet",
    )
    mean = sum(shard_bytes) / len(shard_bytes) if shard_bytes else 0.0
    hops = sum(getattr(s.server, "hops", 0) for s in deployment.stations)
    extra = (
        f"\nPolicy: {deployment.config.server_policy}; "
        f"load imbalance (max/mean bytes): "
        f"{(max(shard_bytes) / mean) if mean else 0.0:.3f}; "
        f"station hops: {hops}"
    )
    return table + extra


def _probe_section(deployment) -> str:
    rows = []
    for probe in deployment.probes:
        rows.append(
            (
                probe.probe_id,
                "alive" if probe.is_alive else "dead",
                probe.tasks_completed,
                probe.buffered_count,
                round(abs(probe.clock_error_s()), 2),
            )
        )
    extra = (
        f"\nWired probe: {'ok' if deployment.wired_probe.is_alive else 'FAILED'}; "
        f"readings collected: {deployment.base.readings_collected}"
    )
    return format_table(
        ["Probe", "Status", "Tasks done", "Buffered", "Clock err (s)"],
        rows,
        title="Probe fleet",
    ) + extra


def _science_section(deployment) -> str:
    archive = ScienceArchive(deployment.server)
    lines = [f"Differential dGPS fraction: {archive.differential_fraction():.0%}"]
    velocities = archive.daily_velocity()
    if velocities:
        mean_v = sum(v for _d, v in velocities) / len(velocities)
        lines.append(f"Mean ice velocity: {mean_v:.3f} m/day over {len(velocities)} days")
        slips = archive.stick_slip_days()
        lines.append(f"Stick-slip candidate days: {slips if slips else 'none'}")
    solutions = [s for s in archive.solutions() if s.differential]
    profile = diurnal_velocity_profile(solutions)
    if profile and len(profile) >= 6:
        lines.append(f"Diurnal velocity amplitude: {diurnal_amplitude(profile):.3f} m/day")
    pressure = [
        sample
        for series in archive.probe_series("pressure_m").values()
        for sample in series
    ]
    if pressure and velocities:
        r, days = velocity_pressure_correlation(velocities, pressure)
        lines.append(f"Velocity-pressure correlation: r={r:.2f} over {days} days")
    return "Science\n" + "\n".join(f"  {line}" for line in lines)


def _observability_section(deployment) -> str:
    obs = deployment.sim.obs
    obs.collect_kernel(deployment.sim)
    lines: List[str] = []

    counters = [
        m for m in obs.metrics.metrics()
        if obs.metrics.kind_of(m.name) == "counter" and m.value > 0
    ]
    top = sorted(counters, key=lambda m: (-m.value, m.sort_key()))[:6]
    if top:
        lines.append("Top counters:")
        for metric in top:
            labels = ",".join(f"{k}={v}" for k, v in metric.labels)
            suffix = f"{{{labels}}}" if labels else ""
            lines.append(f"  {metric.name}{suffix} = {metric.value:g}")

    histograms = [
        m for m in obs.metrics.metrics()
        if obs.metrics.kind_of(m.name) == "histogram" and m.count > 0
    ]
    if histograms:
        lines.append("Histograms:")
        for metric in histograms:
            labels = ",".join(f"{k}={v}" for k, v in metric.labels)
            suffix = f"{{{labels}}}" if labels else ""
            lines.append(
                f"  {metric.name}{suffix}: n={metric.count} mean={metric.mean():g}"
            )

    totals = obs.spans.totals_by_name()
    if totals:
        lines.append("Span totals (sim-time):")
        busiest = sorted(totals.items(), key=lambda kv: (-kv[1][1], kv[0]))[:6]
        for name, (count, seconds) in busiest:
            lines.append(f"  {name}: {count}x, {seconds / 3600.0:.2f} h")

    if not lines:
        lines = ["no metrics recorded"]
    return "Observability\n" + "\n".join(f"  {line}" for line in lines)


def _provenance_section(deployment) -> str:
    obs = deployment.sim.obs
    if obs.provenance is None:
        return "Data provenance\n  disabled"
    report = obs.provenance.finish(deployment.sim.now)
    return "Data provenance\n" + "\n".join(
        f"  {line}" for line in report.format().splitlines())


def _alerts_section(deployment) -> str:
    engine = deployment.sim.obs.alerts
    engine.finish(deployment.sim.now)
    return "Alerts\n" + "\n".join(
        f"  {line}" for line in engine.format().splitlines())


def _incidents_section(deployment) -> str:
    trace = deployment.sim.trace
    incidents: List[str] = []
    for kind, label in (
        ("brownout", "battery brown-out"),
        ("watchdog_cut", "watchdog power cut"),
        ("rtc_untrusted", "RTC distrust / recovery"),
        ("antenna_damaged", "antenna damaged"),
        ("probe_comms_impossible", "probe comms blocked (wired probe)"),
        ("oversized_file", "oversized file flagged"),
        ("cf_corrupted_skipping_upload", "CF card corruption"),
        ("priority_comms", "priority upload (state 0)"),
    ):
        records = trace.select(kind=kind)
        if records:
            days = sorted({int(r.time // DAY) for r in records})
            shown = ", ".join(str(d) for d in days[:8]) + ("..." if len(days) > 8 else "")
            incidents.append(f"  {label}: {len(records)}x (days {shown})")
    if not incidents:
        incidents = ["  none"]
    return "Incidents\n" + "\n".join(incidents)


def mission_report(deployment) -> str:
    """Render the full plain-text report for a deployment."""
    elapsed_days = deployment.sim.now / DAY
    header = (
        f"GLACSWEB DEPLOYMENT REPORT — {deployment.sim.utcnow():%d %b %Y} "
        f"(day {elapsed_days:.0f}, seed {deployment.config.seed})"
    )
    sections = [
        header + "\n" + "=" * len(header),
        _station_section(deployment),
        _power_section(deployment),
        _comms_section(deployment),
    ]
    if getattr(deployment, "fleet", None) is not None:
        sections.append(_fleet_section(deployment))
    sections += [
        _probe_section(deployment),
        _science_section(deployment),
        _observability_section(deployment),
        _provenance_section(deployment),
    ]
    if deployment.sim.obs.alerts is not None:
        sections.append(_alerts_section(deployment))
    sections.append(_incidents_section(deployment))
    return "\n\n".join(sections)
