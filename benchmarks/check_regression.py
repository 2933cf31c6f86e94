"""Compare a fresh pytest-benchmark JSON run against the committed reference.

Usage (what CI runs)::

    PYTHONPATH=src python -m pytest benchmarks/test_kernel_performance.py \
        --benchmark-json=bench_run.json
    python benchmarks/check_regression.py bench_run.json

A benchmark fails the gate when its measured ``min`` is more than
``tolerance`` slower than the reference ``current_min_ms`` in
``benchmarks/BENCH_kernel.json`` (default 30%; override with
``--tolerance`` or the ``REPRO_BENCH_TOLERANCE`` environment variable).
Faster-than-reference results never fail — they are the point — but are
reported so the reference can be re-pinned when an improvement lands.

A reference entry may also carry a ``counters`` table pinning bounds on
values the benchmark recorded in ``benchmark.extra_info`` (e.g. the
endurance reference ``BENCH_endurance.json`` bounds the adaptive bus's
sync count).  Counter bounds are absolute — simulation counters are
deterministic for a pinned seed, so no noise tolerance applies; the
pinned bounds themselves carry the headroom.  ``baseline_min_ms`` and
``baseline_counters`` record a retired engine's last measurement for
reference and are not gated.

Exit codes: 0 ok, 1 regression(s), 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

DEFAULT_REFERENCE = Path(__file__).parent / "BENCH_kernel.json"


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
                        help="committed reference (default: BENCH_kernel.json)")
    parser.add_argument("--tolerance", type=float,
                        default=float(os.environ.get("REPRO_BENCH_TOLERANCE", 0.30)),
                        help="allowed slowdown fraction vs the reference "
                             "(default 0.30, env REPRO_BENCH_TOLERANCE)")
    args = parser.parse_args(argv)

    try:
        run = load_run(args.run_json)
        with open(args.reference, "r", encoding="utf-8") as fh:
            reference = json.load(fh)["benchmarks"]
    except (OSError, KeyError, ValueError) as exc:
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
        measured = run[name]["min_ms"]
        allowed = ref["current_min_ms"] * (1.0 + args.tolerance)
        ratio = measured / ref["current_min_ms"]
        verdict = "ok"
        if measured > allowed:
            verdict = "REGRESSION"
            failures.append(name)
        elif ratio < 1.0 - args.tolerance:
            verdict = "faster (consider re-pinning the reference)"
        print(f"  {name}: min {measured:.3f} ms vs reference "
              f"{ref['current_min_ms']:.3f} ms ({ratio:.2f}x) — {verdict}")
        if "counters" in ref:
            check_counters(name, ref["counters"], run[name]["extra_info"],
                           failures)

    if failures:
        print(f"check_regression: {len(failures)} benchmark(s) regressed beyond "
              f"{args.tolerance:.0%}: {', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"check_regression: all {len(reference)} benchmarks within "
          f"{args.tolerance:.0%} of the reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
