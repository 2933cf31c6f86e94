"""Command-line interface: run deployments and print reports.

Usage::

    repro-sim simulate --days 7 --seed 42
    repro-sim simulate --days 30 --override 2 --no-wind
    repro-sim science --days 14 --seed 3
    repro-sim health --days 10
    repro-sim metrics --days 7 --seed 0
    repro-sim simulate --days 2 --metrics-out metrics.prom --spans-out spans.json
    repro-sim verify --days 45 --seed 42 --faults examples/faults/canonical_chaos.json
    repro-sim sweep --days 7 --seeds 0,1,2,3 --param solar_w=5,10 --jobs 4
    repro-sim sweep --days 7 --seeds 0,1 --rollup-out rollup.json \\
        --alerts examples/alerts/mission_slo.json
    repro-sim rollup shard_a.json shard_b.json --table
    repro-sim lint src/repro

Every run command takes the same scenario flags (:func:`add_scenario_args`)
and builds through :meth:`repro.faults.Scenario.build`; ``verify`` runs the
same-seed replay, the tie replay and the invariant verdict on that one
scenario.  (Equivalently ``python -m repro.cli ...``.  ``repro-sim lint``
forwards to the ``repro-lint`` static-analysis gate; see :mod:`repro.lint`.)
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, List, NoReturn, Optional, Tuple

from repro.analysis.report import format_table
from repro.core import Deployment
from repro.faults import FaultPlan, Scenario
from repro.obs.alerts import AlertEngine
from repro.server.archive import ScienceArchive


def add_scenario_args(parser: argparse.ArgumentParser) -> None:
    """The flags that describe a :class:`~repro.faults.Scenario`."""
    parser.add_argument("--days", type=float, default=7.0, help="days to simulate")
    parser.add_argument("--seed", type=int, default=0, help="master random seed")
    parser.add_argument("--no-wind", action="store_true",
                        help="disable the base station's wind turbine")
    parser.add_argument("--solar-w", type=float, default=None,
                        help="override the base station's solar rating")
    parser.add_argument("--override", type=int, default=None, choices=(0, 1, 2, 3),
                        help="server-side manual power-state override")
    parser.add_argument("--faults", metavar="PLAN.json", default=None,
                        help="fault plan to arm before the run (JSON; see "
                             "repro.faults) — same seed + same plan replays "
                             "byte-identically")
    parser.add_argument("--alerts", metavar="RULES.json", default=None,
                        help="declarative alert/SLO rules evaluated against "
                             "the run (JSON; see docs/telemetry_rollup.md)")
    parser.add_argument("--stations", type=int, default=None, metavar="N",
                        help="total station count (>= 2: base + reference + "
                             "solar-only extras)")
    parser.add_argument("--servers", type=int, default=None, metavar="N",
                        help="server fleet size (default 1 = the classic "
                             "single Southampton server)")
    parser.add_argument("--server-policy",
                        choices=("static", "round-robin", "hop"), default=None,
                        help="station upload-target policy against a multi-"
                             "server fleet (default: static)")
    parser.add_argument("--tenant-size", type=int, default=None, metavar="K",
                        help="group stations into tenants of K for per-tenant "
                             "override state (default: one global tenant)")
    parser.add_argument("--batched-sync", action="store_true",
                        help="stations use the single-request sync_session "
                             "endpoint (state up + override + specials + "
                             "load hints in one modem exchange)")


def scenario_from_args(args: argparse.Namespace) -> Scenario:
    """The scenario :func:`add_scenario_args` flags describe.

    Plans and rules are loaded and validated here, once; an input that
    cannot load exits 2 with a ``repro-sim: cannot load ...`` message.
    """
    overrides: dict = {}
    if args.no_wind:
        overrides["wind_w"] = 0.0
    if args.solar_w is not None:
        overrides["solar_w"] = args.solar_w
    if args.batched_sync:
        overrides["batched_sync"] = True
    if args.stations is not None:
        overrides["extra_stations"] = _extra_stations(args.stations)
    for name in ("servers", "server_policy", "tenant_size"):
        if getattr(args, name) is not None:
            overrides[name] = getattr(args, name)
    return Scenario.of(
        overrides, seed=args.seed, days=args.days,
        fault_plan=None if args.faults is None else load_fault_plan(args.faults),
        alert_rules=None if args.alerts is None else load_alert_rules(args.alerts),
        manual_override=args.override,
    )


def _fail(message: str) -> NoReturn:
    """Exit 2 with a one-line ``repro-sim:`` message (no traceback)."""
    print(f"repro-sim: {message}", file=sys.stderr)
    raise SystemExit(2)


def _extra_stations(stations: int) -> int:
    """``--stations N`` as an extra-station count; N < 2 exits 2."""
    if stations < 2:
        _fail("--stations must be >= 2 (base + reference)")
    return stations - 2


def _load_input(path: str, what: str, validate: Callable[[Any], Any]) -> Any:
    """Read one JSON scenario input and validate it; exit 2 on failure."""
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        validate(doc)
    except (OSError, ValueError, TypeError) as exc:
        _fail(f"cannot load {what} {path}: {exc}")
    return doc


def load_fault_plan(path: str) -> dict:
    """A validated fault-plan document (see :class:`repro.faults.FaultPlan`)."""
    return _load_input(path, "fault plan", FaultPlan.from_dict)


def load_alert_rules(path: str) -> Any:
    """A validated alert-rules document (see :mod:`repro.obs.alerts`)."""
    return _load_input(path, "alert rules", AlertEngine)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Glacsweb Gumsense deployment simulator (Martinez et al., 2010)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def run_command(name: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        add_scenario_args(p)
        p.add_argument("--metrics-out", metavar="FILE", default=None,
                       help="write metrics after the run (.json = JSON dump, "
                            "anything else = Prometheus text)")
        p.add_argument("--spans-out", metavar="FILE", default=None,
                       help="write spans after the run (.ndjson = NDJSON, "
                            "anything else = Chrome trace JSON); also enables "
                            "per-event kernel spans")
        return p

    run_command("simulate", "run a deployment and summarise")
    run_command("science", "run, then print the dGPS/probe products")
    run_command("health", "run, then print station-health indicators")
    run_command("report", "run, then print the full mission report")

    metrics = run_command("metrics", "run, then print the Prometheus metrics dump")
    metrics.add_argument("--format", choices=("prom", "json"), default="prom",
                         help="metrics dump format (default: prom)")

    export = run_command("export", "run, then print archive data as CSV/JSON")
    export.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format")
    export.add_argument("--what", choices=("velocity", "voltage", "snapshot"),
                        default="velocity", help="which product to export")

    verify = run_command(
        "verify",
        "check one scenario: same-seed replay, fifo vs shuffle:1 tie "
        "replay, and the fault-invariant/conservation verdict")
    verify.add_argument("--report-out", metavar="FILE", default=None,
                        help="also write the report (.json = JSON, anything "
                             "else = text)")

    sweep = sub.add_parser(
        "sweep",
        help="run a config-grid x seed sweep in parallel, with result caching",
    )
    sweep.add_argument("--days", type=float, default=7.0, help="days per run")
    sweep.add_argument("--seeds", default="0", metavar="S1,S2,...",
                       help="comma-separated seed list (default: 0)")
    sweep.add_argument("--param", action="append", default=[],
                       metavar="FIELD=V1,V2,...",
                       help="StationConfig field to sweep; repeatable — the "
                            "grid is the cartesian product of all --param")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default: 1 = in-process)")
    sweep.add_argument("--cache-dir", default=".repro-sweep-cache",
                       help="result cache directory (default: .repro-sweep-cache)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="ignore and do not write the result cache")
    sweep.add_argument("--output", metavar="FILE", default=None,
                       help="write the sweep JSON here instead of stdout")
    sweep.add_argument("--faults", action="append", default=[],
                       metavar="PLAN.json",
                       help="fault plan to cross into the grid; repeatable. "
                            "Use the literal 'none' for the fault-free "
                            "baseline alongside plan files")
    sweep.add_argument("--alerts", metavar="RULES.json", default=None,
                       help="alert rules evaluated inside every run; "
                            "per-run firings land in the run summaries "
                            "and alerts_fired_total in the rollup")
    sweep.add_argument("--rollup-out", metavar="FILE", default=None,
                       help="write the streaming campaign metric rollup "
                            "(canonical JSON, byte-identical across --jobs "
                            "and cache states)")
    sweep.add_argument("--backend", choices=("pool", "shared-dir"),
                       default="pool",
                       help="execution backend: 'pool' (local warm-worker "
                            "pool, default) or 'shared-dir' (cooperatively "
                            "drain a shared --work-dir with other hosts)")
    sweep.add_argument("--chunk-size", type=int, default=None, metavar="N",
                       help="jobs per worker batch (default: adaptive from "
                            "measured run wall time; for shared-dir, the "
                            "claim-block size fixed at campaign creation)")
    sweep.add_argument("--work-dir", metavar="DIR", default=None,
                       help="shared campaign directory (manifest + claims + "
                            "cache); required by --backend shared-dir")
    sweep.add_argument("--progress", action="store_true",
                       help="print a periodic runs/s progress line to stderr")
    sweep.add_argument("--stale-claim-s", type=float, default=None,
                       metavar="SECONDS",
                       help="shared-dir only: steal another drainer's claim "
                            "once this old if its block is still incomplete "
                            "(default: 300)")
    sweep.add_argument("--cache-gc", action="store_true",
                       help="prune cache entries written by older repro "
                            "versions, report reclaimed bytes, and exit "
                            "without sweeping")
    sweep.add_argument("--stations", type=int, default=None, metavar="N",
                       help="total station count per run (sugar for "
                            "--param extra_stations=N-2)")
    sweep.add_argument("--servers", default=None, metavar="N1,N2,...",
                       help="server fleet size(s) as a grid axis (sugar for "
                            "--param servers=...)")
    sweep.add_argument("--server-policy", default=None, metavar="P1,P2,...",
                       help="upload-target policy grid axis: static, "
                            "round-robin, hop (sugar for "
                            "--param server_policy=...)")

    rollup = sub.add_parser(
        "rollup",
        help="merge rollup JSON shards from separate sweeps into one "
             "campaign aggregate",
    )
    rollup.add_argument("shards", nargs="+", metavar="ROLLUP.json",
                        help="rollup files written by sweep --rollup-out")
    rollup.add_argument("--output", metavar="FILE", default=None,
                        help="write the merged rollup here instead of stdout")
    rollup.add_argument("--table", action="store_true",
                        help="print the campaign results table "
                             "(analysis/campaign_table) instead of JSON")

    lint = sub.add_parser(
        "lint",
        help="run the determinism/correctness static analysis (repro-lint)",
        add_help=False,
    )
    lint.add_argument("lint_args", nargs=argparse.REMAINDER,
                      help="arguments forwarded to repro-lint")
    return parser


def _write_file(path: str, text: str) -> int:
    """Write an exporter artefact; unwritable paths are a clean error.

    Returns 0 on success, 2 (with a message on stderr, no traceback) when
    the path cannot be written — the S2 contract for exporter-facing CLI
    paths.
    """
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"repro-sim: cannot write {path}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    return 0


def _write_observability(deployment: Deployment, args) -> int:
    """Honour ``--metrics-out`` / ``--spans-out``.

    File format follows the extension: ``.json`` selects the JSON metric
    dump / Chrome trace JSON, ``.ndjson`` selects span NDJSON, anything
    else gets Prometheus text (metrics) or Chrome trace JSON (spans).

    Finalises observability first (kernel gauges, provenance close-out,
    alert settlement) so every dump carries the complete mission view.
    Returns a process exit code: 0, or 2 when an output path is
    unwritable.
    """
    from repro.obs.export import (
        metrics_to_json,
        metrics_to_prometheus,
        spans_to_chrome_trace,
        spans_to_ndjson,
    )

    obs = deployment.sim.obs
    obs.finalise(deployment.sim)
    code = 0
    if args.metrics_out:
        if args.metrics_out.endswith(".json"):
            text = metrics_to_json(obs.metrics)
        else:
            text = metrics_to_prometheus(obs.metrics)
        code = _write_file(args.metrics_out, text) or code
    if args.spans_out:
        if args.spans_out.endswith(".ndjson"):
            text = spans_to_ndjson(obs.spans)
        else:
            text = spans_to_chrome_trace(obs.spans)
        code = _write_file(args.spans_out, text) or code
    return code


def _run(args) -> Tuple[Deployment, int]:
    """Build the flags' scenario, run it, write exports; (deployment, code)."""
    scenario = scenario_from_args(args)
    deployment = scenario.build()
    if args.spans_out:
        deployment.sim.obs.enable_kernel_spans()
    deployment.run_days(scenario.days)
    return deployment, _write_observability(deployment, args)


def _print_alerts(deployment: Deployment) -> None:
    engine = deployment.sim.obs.alerts
    if engine is not None:
        print()
        print(engine.format())


def _cmd_simulate(args) -> int:
    deployment, code = _run(args)
    rows = []
    for station in deployment.stations:
        rows.append(
            (
                station.name,
                station.daily_runs,
                int(station.effective_state),
                round(station.bus.battery.soc, 3),
                round(deployment.server.received_bytes(station=station.name) / 1e6, 2),
                round(station.modem.cost_total, 2),
            )
        )
    print(format_table(
        ["Station", "Runs", "State", "SoC", "Delivered (MB)", "GPRS cost"],
        rows,
        title=f"{args.days:g} simulated days (seed {args.seed})",
    ))
    print(f"\nProbes alive: {deployment.surviving_probes()}/{len(deployment.probes)}; "
          f"readings collected: {deployment.base.readings_collected}")
    _print_alerts(deployment)
    return code


def _cmd_science(args) -> int:
    deployment, code = _run(args)
    archive = ScienceArchive(deployment.server)
    velocities = archive.daily_velocity()
    print(format_table(
        ["Day", "Ice velocity (m/day)"],
        [(d, round(v, 4)) for d, v in velocities],
        title="dGPS daily velocity (differential solutions)",
    ))
    print(f"\nDifferential solution fraction: {archive.differential_fraction():.0%}")
    slips = archive.stick_slip_days()
    print(f"Stick-slip candidate days: {slips if slips else 'none'}")
    series = archive.probe_series("conductivity_us")
    if series:
        rows = [
            (pid, len(values), round(values[-1][1], 2))
            for pid, values in sorted(series.items())
        ]
        print()
        print(format_table(["Probe", "Readings", "Latest conductivity (µS)"], rows,
                           title="Sub-glacial probes"))
    _print_alerts(deployment)
    return code


def _cmd_health(args) -> int:
    deployment, code = _run(args)
    archive = ScienceArchive(deployment.server)
    rows = []
    for station in ("base", "reference"):
        minima = archive.battery_daily_minima(station)
        rows.append(
            (
                station,
                round(minima[-1][1], 2) if minima else None,
                "yes" if archive.battery_declining(station) else "no",
                "YES" if archive.snow_burial_risk(station) else "no",
                "YES" if archive.enclosure_humidity_alert(station) else "no",
            )
        )
    print(format_table(
        ["Station", "Last daily-min V", "Battery declining", "Burial risk",
         "Humidity alert"],
        rows,
        title=f"Station health after {args.days:g} days",
    ))
    _print_alerts(deployment)
    return code


def _cmd_report(args) -> int:
    from repro.analysis.mission_report import mission_report

    deployment, code = _run(args)
    print(mission_report(deployment))
    return code


def _cmd_metrics(args) -> int:
    from repro.obs.export import metrics_to_json, metrics_to_prometheus

    deployment, code = _run(args)
    if args.format == "json":
        print(metrics_to_json(deployment.sim.obs.metrics), end="")
    else:
        print(metrics_to_prometheus(deployment.sim.obs.metrics), end="")
    return code


def _cmd_verify(args) -> int:
    """Replay, tie replay and the invariant verdict on one scenario.

    Exit 0 iff all three checks pass, 1 when one fails, 2 when an input
    cannot load or an output cannot be written.
    """
    import json

    from repro.lint.verify import verify

    report = verify(scenario_from_args(args), kernel_spans=bool(args.spans_out))
    code = _write_observability(report.mission, args)
    text = report.format()
    print(text)
    _print_alerts(report.mission)
    if args.report_out:
        if args.report_out.endswith(".json"):
            text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
        code = _write_file(args.report_out, text + "\n") or code
    return code if report.ok else 1


def _cmd_export(args) -> int:
    from repro.analysis.export import (
        archive_snapshot_json,
        series_to_csv,
        series_to_json,
    )

    deployment, code = _run(args)
    archive = ScienceArchive(deployment.server)
    if args.what == "snapshot":
        print(archive_snapshot_json(archive))
        return code
    if args.what == "velocity":
        series = [(float(d) * 86400.0, v) for d, v in archive.daily_velocity()]
        name = "velocity_m_per_day"
    else:
        series = archive.voltage_series("base")
        name = "volts"
    if args.format == "csv":
        print(series_to_csv(series, value_name=name), end="")
    else:
        print(series_to_json(series, value_name=name,
                             metadata={"seed": args.seed, "days": args.days}))
    return code


def _parse_param_value(raw: str):
    """``--param`` value literal: int, then float, then bool, else string."""
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def _cmd_sweep(args) -> int:
    from repro.fleet import SweepCache, SweepSpec, expand_grid, run_sweep, sweep_to_json

    params = {}
    for spec_arg in args.param:
        name, sep, values = spec_arg.partition("=")
        if not sep or not values:
            raise SystemExit(f"--param must look like FIELD=V1,V2,... (got {spec_arg!r})")
        params[name] = [_parse_param_value(v) for v in values.split(",")]
    # Fleet sugar: the flags expand to ordinary grid axes, so they cross
    # with --param and land in config digests like any other override.
    if args.stations is not None:
        params.setdefault("extra_stations", [_extra_stations(args.stations)])
    if args.servers:
        params.setdefault("servers",
                          [int(v) for v in args.servers.split(",") if v])
    if args.server_policy:
        params.setdefault(
            "server_policy",
            [p.strip() for p in args.server_policy.split(",") if p.strip()])
    seeds = [int(s) for s in args.seeds.split(",") if s]
    # Plans and rules are validated once here, before fan-out.
    fault_plans = [None if path == "none" else load_fault_plan(path)
                   for path in args.faults] or None
    alert_rules = load_alert_rules(args.alerts) if args.alerts else None
    spec = SweepSpec(grid=expand_grid(params), seeds=seeds, days=args.days,
                     fault_plans=fault_plans, alert_rules=alert_rules)
    if args.cache_gc:
        if args.no_cache:
            raise SystemExit("--cache-gc and --no-cache are contradictory")
        gc_root = args.cache_dir
        if args.backend == "shared-dir":
            import os

            from repro.fleet.executor import CACHE_DIR

            if not args.work_dir:
                raise SystemExit("--backend shared-dir requires --work-dir")
            gc_root = os.path.join(args.work_dir, CACHE_DIR)
        report = SweepCache(gc_root).gc()
        print(report.format(), file=sys.stderr)
        return 0
    cache = None
    if args.backend == "shared-dir":
        if not args.work_dir:
            raise SystemExit("--backend shared-dir requires --work-dir")
        if args.no_cache:
            raise SystemExit("--backend shared-dir needs the cache "
                             "(--no-cache is contradictory)")
    elif not args.no_cache:
        cache = SweepCache(args.cache_dir)
    progress = None
    if args.progress:
        def progress(line: str) -> None:
            print(line, file=sys.stderr)
    result = run_sweep(spec, jobs=args.jobs, cache=cache,
                       backend=args.backend, chunk_size=args.chunk_size,
                       work_dir=args.work_dir, progress=progress,
                       stale_claim_s=args.stale_claim_s)
    text = sweep_to_json(result)
    code = 0
    if args.output:
        code = _write_file(args.output, text) or code
    else:
        print(text)
    if args.rollup_out and result.rollup is not None:
        code = _write_file(args.rollup_out, result.rollup.to_json()) or code
    print(
        f"sweep: {len(result.runs)} runs "
        f"({result.cache_hits} cached, {result.cache_misses} computed, "
        f"jobs={args.jobs})",
        file=sys.stderr,
    )
    return code


def _cmd_rollup(args) -> int:
    """Merge rollup shards; print (or write) the campaign aggregate."""
    import json

    from repro.obs.rollup import merge_rollups

    docs = []
    for path in args.shards:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                docs.append(json.load(fh))
        except (OSError, ValueError) as exc:
            print(f"repro-sim: cannot read rollup shard {path}: {exc}",
                  file=sys.stderr)
            return 2
    try:
        merged = merge_rollups(docs)
    except ValueError as exc:
        print(f"repro-sim: {exc}", file=sys.stderr)
        return 1
    if args.table:
        from repro.analysis.campaign_table import campaign_table

        text = campaign_table(merged)
    else:
        text = json.dumps(merged, indent=2, sort_keys=True) + "\n"
    if args.output:
        return _write_file(args.output, text)
    print(text, end="")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # Forwarded before argparse: REMAINDER cannot capture a leading
        # option (e.g. ``repro-sim lint --help``), bpo-17050.
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "science": _cmd_science,
        "health": _cmd_health,
        "report": _cmd_report,
        "metrics": _cmd_metrics,
        "export": _cmd_export,
        "verify": _cmd_verify,
        "sweep": _cmd_sweep,
        "rollup": _cmd_rollup,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
