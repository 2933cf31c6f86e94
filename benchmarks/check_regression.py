"""Compare a fresh pytest-benchmark JSON run against the committed reference.

Usage (what CI runs)::

    PYTHONPATH=src python -m pytest benchmarks/test_kernel_performance.py \
        benchmarks/test_tiebreak_performance.py benchmarks/test_throughput.py \
        benchmarks/test_sweep_scale.py benchmarks/test_obs_overhead.py \
        benchmarks/test_fleet_smoke.py --benchmark-json=bench_run.json
    python benchmarks/check_regression.py bench_run.json

Every row of ``benchmarks/BENCH.json`` is gated.  A row fails when its
measured ``min`` is more than the tolerance slower than its
``current_min_ms``.  The tolerance is the row's own ``tolerance`` when it
has one, else the ``REPRO_BENCH_TOLERANCE`` environment variable, else
0.30.  Faster-than-reference results never fail — they are the point —
but are reported so the reference can be re-pinned when an improvement
lands.

A row may also carry a ``counters`` table bounding values the benchmark
recorded in ``benchmark.extra_info`` (e.g. the E20 row bounds the power
bus's sync count).  Counter bounds are absolute — simulation counters
are deterministic for a pinned seed, so no noise tolerance applies; the
pinned bounds themselves carry the headroom.  ``baselines`` records each
retired engine's last measurement for reference and is not gated.

Exit codes: 0 ok, 1 regression(s), 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

DEFAULT_REFERENCE = Path(__file__).parent / "BENCH.json"
#: Allowed slowdown fraction for rows without their own ``tolerance``.
DEFAULT_TOLERANCE = 0.30


def load_run(path: str) -> dict:
    """``{name: {"min_ms": float, "extra_info": dict}}`` from a run JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return {
        bench["name"]: {
            "min_ms": bench["stats"]["min"] * 1000.0,
            "extra_info": bench.get("extra_info", {}),
        }
        for bench in data.get("benchmarks", [])
    }


def check_counters(name: str, ref_counters: dict, extra_info: dict,
                   failures: list) -> None:
    """Gate recorded ``extra_info`` counters against pinned bounds."""
    for key, bounds in sorted(ref_counters.items()):
        measured = extra_info.get(key)
        if measured is None:
            print(f"  MISSING {name}[{key}]: benchmark recorded no such counter")
            failures.append(f"{name}[{key}]")
            continue
        verdict = "ok"
        if "max" in bounds and measured > bounds["max"]:
            verdict = f"REGRESSION (> max {bounds['max']})"
            failures.append(f"{name}[{key}]")
        elif "min" in bounds and measured < bounds["min"]:
            verdict = f"REGRESSION (< min {bounds['min']})"
            failures.append(f"{name}[{key}]")
        bound_text = ", ".join(f"{k} {v}" for k, v in sorted(bounds.items()))
        print(f"  {name}[{key}]: {measured} vs bound ({bound_text}) — {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run_json", help="pytest-benchmark --benchmark-json output")
    parser.add_argument("--reference", default=str(DEFAULT_REFERENCE),
                        help="committed reference (default: benchmarks/BENCH.json)")
    args = parser.parse_args(argv)

    try:
        default_tolerance = float(os.environ.get("REPRO_BENCH_TOLERANCE",
                                                 DEFAULT_TOLERANCE))
        run = load_run(args.run_json)
        with open(args.reference, "r", encoding="utf-8") as fh:
            reference = json.load(fh)["benchmarks"]
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print(f"check_regression: cannot load inputs: {exc}", file=sys.stderr)
        return 2
    if not run:
        print("check_regression: run JSON contains no benchmarks", file=sys.stderr)
        return 2

    failures = []
    for name, ref in sorted(reference.items()):
        if name not in run:
            print(f"  MISSING {name}: not in this run (skipped?)")
            failures.append(name)
            continue
        tolerance = ref.get("tolerance", default_tolerance)
        measured = run[name]["min_ms"]
        ratio = measured / ref["current_min_ms"]
        verdict = "ok"
        if measured > ref["current_min_ms"] * (1.0 + tolerance):
            verdict = "REGRESSION"
            failures.append(name)
        elif ratio < 1.0 - tolerance:
            verdict = "faster (consider re-pinning the reference)"
        print(f"  {name}: min {measured:.3f} ms vs reference "
              f"{ref['current_min_ms']:.3f} ms ({ratio:.2f}x, "
              f"tolerance {tolerance:.0%}) — {verdict}")
        if "counters" in ref:
            check_counters(name, ref["counters"], run[name]["extra_info"],
                           failures)

    if failures:
        print(f"check_regression: {len(failures)} benchmark(s) regressed: "
              f"{', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"check_regression: all {len(reference)} benchmarks within "
          f"tolerance of the reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
