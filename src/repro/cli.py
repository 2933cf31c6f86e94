"""Command-line interface: run deployments and print reports.

Usage::

    repro-sim simulate --days 7 --seed 42
    repro-sim simulate --days 30 --override 2 --no-wind
    repro-sim science --days 14 --seed 3
    repro-sim health --days 10
    repro-sim metrics --days 7 --seed 0
    repro-sim simulate --days 2 --metrics-out metrics.prom --spans-out spans.json
    repro-sim sweep --days 7 --seeds 0,1,2,3 --param solar_w=5,10 --jobs 4
    repro-sim sweep --days 7 --seeds 0,1 --rollup-out rollup.json \\
        --alerts examples/alerts/mission_slo.json
    repro-sim rollup shard_a.json shard_b.json --table
    repro-sim lint src/repro --check-determinism
    repro-sim races --days 45 --faults examples/faults/canonical_chaos.json

(Equivalently ``python -m repro.cli ...``.  ``repro-sim lint`` forwards to
the ``repro-lint`` static-analysis gate; see :mod:`repro.lint`.)
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.report import format_table
from repro.core import Deployment, DeploymentConfig
from repro.core.config import StationConfig, reference_defaults
from repro.server.archive import ScienceArchive
from repro.sim.simtime import DAY


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Glacsweb Gumsense deployment simulator (Martinez et al., 2010)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--days", type=float, default=7.0, help="days to simulate")
        p.add_argument("--seed", type=int, default=0, help="master random seed")
        p.add_argument("--no-wind", action="store_true",
                       help="disable the base station's wind turbine")
        p.add_argument("--solar-w", type=float, default=None,
                       help="override the base station's solar rating")
        p.add_argument("--override", type=int, default=None, choices=(0, 1, 2, 3),
                       help="server-side manual power-state override")
        p.add_argument("--metrics-out", metavar="FILE", default=None,
                       help="write metrics after the run (.json = JSON dump, "
                            "anything else = Prometheus text)")
        p.add_argument("--spans-out", metavar="FILE", default=None,
                       help="write spans after the run (.ndjson = NDJSON, "
                            "anything else = Chrome trace JSON); also enables "
                            "per-event kernel spans")
        p.add_argument("--self-profile", action="store_true",
                       help="measure wall-clock time per process and print a "
                            "hotspot report to stderr (host-dependent; never "
                            "part of any exported artefact)")
        p.add_argument("--faults", metavar="PLAN.json", default=None,
                       help="fault plan to arm before the run (JSON; see "
                            "repro.faults) — same seed + same plan replays "
                            "byte-identically")
        p.add_argument("--alerts", metavar="RULES.json", default=None,
                       help="declarative alert/SLO rules evaluated against "
                            "the run (JSON; see docs/telemetry_rollup.md)")
        fleet_args(p)

    def fleet_args(p):
        p.add_argument("--stations", type=int, default=None, metavar="N",
                       help="total station count (>= 2: base + reference + "
                            "solar-only extras)")
        p.add_argument("--servers", type=int, default=None, metavar="N",
                       help="server fleet size (default 1 = the classic "
                            "single Southampton server)")
        p.add_argument("--server-policy",
                       choices=("static", "round-robin", "hop"), default=None,
                       help="station upload-target policy against a multi-"
                            "server fleet (default: static)")
        p.add_argument("--tenant-size", type=int, default=None, metavar="K",
                       help="group stations into tenants of K for per-tenant "
                            "override state (default: one global tenant)")
        p.add_argument("--batched-sync", action="store_true",
                       help="stations use the single-request sync_session "
                            "endpoint (state up + override + specials + "
                            "load hints in one modem exchange)")

    simulate = sub.add_parser("simulate", help="run a deployment and summarise")
    common(simulate)

    science = sub.add_parser("science", help="run, then print the dGPS/probe products")
    common(science)

    health = sub.add_parser("health", help="run, then print station-health indicators")
    common(health)

    report = sub.add_parser("report", help="run, then print the full mission report")
    common(report)

    metrics = sub.add_parser(
        "metrics", help="run, then print the Prometheus metrics dump")
    common(metrics)
    metrics.add_argument("--format", choices=("prom", "json"), default="prom",
                         help="metrics dump format (default: prom)")

    export = sub.add_parser("export", help="run, then print archive data as CSV/JSON")
    common(export)
    export.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format")
    export.add_argument("--what", choices=("velocity", "voltage", "snapshot"),
                        default="velocity", help="which product to export")

    inject = sub.add_parser(
        "inject",
        help="run under a fault plan and check the recovery invariants",
    )
    common(inject)
    inject.add_argument("--report-out", metavar="FILE", default=None,
                        help="also write the invariant report to this file")
    inject.set_defaults(days=45.0)

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

    races = sub.add_parser(
        "races",
        help="event-ordering race check: static tie-sensitivity lint plus "
             "perturbed-tie replay",
    )
    races.add_argument("--days", type=float, default=45.0,
                       help="replay length in simulated days (default: 45)")
    races.add_argument("--seed", type=int, default=0, help="master seed")
    races.add_argument("--faults", metavar="PLAN.json", default=None,
                       help="fault plan to arm in every replay (JSON file)")
    fleet_args(races)
    races.add_argument("--policies", default="fifo,shuffle:1",
                       metavar="P1,P2,...",
                       help="tie-break policies; the first is the replay "
                            "baseline (default: %(default)s)")
    races.add_argument("--paths", nargs="*", default=["src/repro"],
                       help="paths the static race rules lint "
                            "(default: src/repro)")
    races.add_argument("--format", choices=("text", "json"), default="text",
                       help="report format")
    races.add_argument("--output", metavar="FILE", default=None,
                       help="write the report here as well as stdout")

    lint = sub.add_parser(
        "lint",
        help="run the determinism/correctness static analysis (repro-lint)",
        add_help=False,
    )
    lint.add_argument("lint_args", nargs=argparse.REMAINDER,
                      help="arguments forwarded to repro-lint")
    return parser


def _load_fault_plan(args) -> Optional[dict]:
    """The ``--faults`` plan as its dict form, or None."""
    path = getattr(args, "faults", None)
    if not path:
        return None
    import json

    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _fleet_overrides(args) -> dict:
    """``--stations/--servers/...`` as DeploymentConfig kwargs."""
    overrides = {}
    stations = getattr(args, "stations", None)
    if stations is not None:
        if stations < 2:
            raise SystemExit("repro-sim: --stations must be >= 2 "
                             "(base + reference)")
        overrides["extra_stations"] = stations - 2
    if getattr(args, "servers", None) is not None:
        overrides["servers"] = args.servers
    if getattr(args, "server_policy", None) is not None:
        overrides["server_policy"] = args.server_policy
    if getattr(args, "tenant_size", None) is not None:
        overrides["tenant_size"] = args.tenant_size
    return overrides


def _build_deployment(args, check_invariants: bool = False) -> Deployment:
    base = StationConfig()
    reference = reference_defaults()
    if args.no_wind:
        base.wind_w = 0.0
    if args.solar_w is not None:
        base.solar_w = args.solar_w
    if getattr(args, "batched_sync", False):
        base.batched_sync = True
    deployment = Deployment(DeploymentConfig(seed=args.seed, base=base,
                                             reference=reference,
                                             fault_plan=_load_fault_plan(args),
                                             **_fleet_overrides(args)))
    #: Armed fault engine (None without --faults); ``inject`` reads the
    #: invariant report off it after the run.
    deployment.fault_engine = None
    if deployment.config.fault_plan is not None:
        from repro.faults import apply_fault_plan

        deployment.fault_engine = apply_fault_plan(
            deployment, check_invariants=check_invariants)
    if args.override is not None:
        deployment.set_manual_override(args.override)
    #: Armed alert engine (None without --alerts); every command that
    #: finalises observability also settles and prints its firings.
    deployment.alert_engine = None
    if getattr(args, "alerts", None):
        from repro.obs.alerts import AlertEngine

        try:
            engine = AlertEngine.from_file(args.alerts,
                                           metrics=deployment.sim.obs.metrics)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"repro-sim: cannot load alert rules: {exc}")
        engine.attach(deployment.sim.trace)
        deployment.alert_engine = engine
    if getattr(args, "spans_out", None):
        deployment.sim.obs.enable_kernel_spans()
    if getattr(args, "self_profile", False):
        deployment.sim.obs.enable_self_profile()
    return deployment


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
    """Honour ``--metrics-out`` / ``--spans-out`` / ``--self-profile``.

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
    engine = getattr(deployment, "alert_engine", None)
    if engine is not None:
        engine.finish(deployment.sim.now)
    code = 0
    if getattr(args, "metrics_out", None):
        if args.metrics_out.endswith(".json"):
            text = metrics_to_json(obs.metrics)
        else:
            text = metrics_to_prometheus(obs.metrics)
        code = _write_file(args.metrics_out, text) or code
    if getattr(args, "spans_out", None):
        if args.spans_out.endswith(".ndjson"):
            text = spans_to_ndjson(obs.spans)
        else:
            text = spans_to_chrome_trace(obs.spans)
        code = _write_file(args.spans_out, text) or code
    if getattr(args, "self_profile", False) and obs.profile is not None:
        print(obs.profile.report(), file=sys.stderr)
    return code


def _print_alerts(deployment: Deployment) -> None:
    engine = getattr(deployment, "alert_engine", None)
    if engine is not None:
        print()
        print(engine.format())


def _cmd_simulate(args) -> int:
    deployment = _build_deployment(args)
    deployment.run_days(args.days)
    code = _write_observability(deployment, args)
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
    deployment = _build_deployment(args)
    deployment.run_days(args.days)
    code = _write_observability(deployment, args)
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
    deployment = _build_deployment(args)
    deployment.run_days(args.days)
    code = _write_observability(deployment, args)
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

    deployment = _build_deployment(args)
    deployment.run_days(args.days)
    code = _write_observability(deployment, args)
    print(mission_report(deployment))
    return code


def _cmd_metrics(args) -> int:
    from repro.obs.export import metrics_to_json, metrics_to_prometheus

    deployment = _build_deployment(args)
    deployment.run_days(args.days)
    code = _write_observability(deployment, args)
    if args.format == "json":
        print(metrics_to_json(deployment.sim.obs.metrics), end="")
    else:
        print(metrics_to_prometheus(deployment.sim.obs.metrics), end="")
    return code


def _cmd_inject(args) -> int:
    """Run under a fault plan and verdict the recovery invariants.

    Without ``--faults`` the canonical chaos scenario runs (every fault
    kind over 45 days — the CI chaos-smoke configuration).  Exit code is
    the invariant verdict: 0 iff no violation.
    """
    from repro.faults import apply_fault_plan, canonical_chaos_plan

    deployment = _build_deployment(args, check_invariants=True)
    if deployment.fault_engine is None:
        deployment.fault_engine = apply_fault_plan(
            deployment, canonical_chaos_plan(), check_invariants=True)
    deployment.run_days(args.days)
    code = _write_observability(deployment, args)
    report = deployment.fault_engine.finish()
    text = report.format()
    conservation = deployment.sim.obs.finalise(deployment.sim)
    if conservation is not None:
        text += "\n" + conservation.format()
    print(text)
    _print_alerts(deployment)
    if args.report_out:
        code = _write_file(args.report_out, text + "\n") or code
    if not report.ok:
        return 1
    if conservation is not None and not conservation.ok:
        return 1
    return code


def _cmd_export(args) -> int:
    from repro.analysis.export import (
        archive_snapshot_json,
        series_to_csv,
        series_to_json,
    )

    deployment = _build_deployment(args)
    deployment.run_days(args.days)
    code = _write_observability(deployment, args)
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
    import json

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
        if args.stations < 2:
            raise SystemExit("repro-sim: --stations must be >= 2")
        params.setdefault("extra_stations", [args.stations - 2])
    if args.servers:
        params.setdefault("servers",
                          [int(v) for v in args.servers.split(",") if v])
    if args.server_policy:
        params.setdefault(
            "server_policy",
            [p.strip() for p in args.server_policy.split(",") if p.strip()])
    seeds = [int(s) for s in args.seeds.split(",") if s]
    fault_plans = None
    if args.faults:
        fault_plans = []
        for path in args.faults:
            if path == "none":
                fault_plans.append(None)
            else:
                with open(path, "r", encoding="utf-8") as fh:
                    fault_plans.append(json.load(fh))
    alert_rules = None
    if args.alerts:
        from repro.obs.alerts import AlertEngine

        try:
            with open(args.alerts, "r", encoding="utf-8") as fh:
                alert_rules = json.load(fh)
            AlertEngine(alert_rules)  # validate once, before fan-out
        except (OSError, ValueError) as exc:
            raise SystemExit(f"repro-sim: cannot load alert rules: {exc}")
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


def _cmd_races(args) -> int:
    """Two-pronged event-ordering race check.

    Static prong: the three tie-sensitivity rules over ``--paths``.
    Dynamic prong: the mission replayed once per ``--policies`` entry,
    normalized trace digests diffed against the first (baseline) policy,
    divergences bisected to the offending schedule callsites.  Exit 0 iff
    both prongs are clean.
    """
    import json

    from repro.lint.engine import lint_paths
    from repro.lint.races import RACE_RULE_IDS
    from repro.lint.rules import default_rules
    from repro.lint.tie_replay import check_tie_robustness

    static_findings = lint_paths(
        args.paths, rules=default_rules(select=list(RACE_RULE_IDS)))
    fault_plan = _load_fault_plan(args)
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    report = check_tie_robustness(seed=args.seed, days=args.days,
                                  policies=policies, fault_plan=fault_plan,
                                  overrides=_fleet_overrides(args) or None)
    if args.format == "json":
        text = json.dumps({
            "static": [finding.to_dict() for finding in static_findings],
            "replay": report.to_dict(),
        }, indent=2)
    else:
        lines = [f"static race rules: {len(static_findings)} finding(s) "
                 f"over {' '.join(args.paths)}"]
        lines.extend("  " + finding.render() for finding in static_findings)
        lines.append(report.format())
        text = "\n".join(lines)
    print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0 if not static_findings and report.robust else 1


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
        "inject": _cmd_inject,
        "sweep": _cmd_sweep,
        "rollup": _cmd_rollup,
        "races": _cmd_races,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
