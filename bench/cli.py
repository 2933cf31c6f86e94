"""Command line: ``run``, ``trace``, ``check`` and the one-workload ``measure``."""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence

from bench import check, harness, workloads
from bench.tracer import LAYERS


def _table(header: List[str], rows: List[List[str]]) -> str:
    widths = [max(len(row[i]) for row in [header] + rows) for i in range(len(header))]
    return "\n".join("  ".join(cell.ljust(width) for cell, width in zip(row, widths))
                     for row in [header] + rows)


def _one_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)


def _measure(args: argparse.Namespace) -> Dict[str, Any]:
    return harness.measure(args.workload, args.seed, args.seconds, bool(args.trace))


def drive(argv: Optional[Sequence[str]] = None) -> int:
    """One workload; print the result line (each metric's median)."""
    parser = argparse.ArgumentParser(prog="bench/run.py")
    _one_workload_args(parser)
    result = _measure(parser.parse_args(argv))
    print(json.dumps(harness.contract_line(result)))
    return 0


def _all_workloads(seed: int, trace: bool) -> Dict[str, Any]:
    seconds = harness.load_spec()["run_seconds"]
    results = {}
    for name in workloads.WORKLOADS:
        print(f"bench: {name} (seed {seed}, {seconds:g} s"
              f"{', traced' if trace else ''})", file=sys.stderr)
        results[name] = harness.run_child(name, seed, seconds, trace)
    return {"seed": seed, "seconds": seconds, "trace": trace, "workloads": results}


def _write(doc: Dict[str, Any], path: Optional[str]) -> None:
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")


def _ops_line(name: str, result: Dict[str, Any]) -> str:
    failed, attempted = result["failed"], result["attempted"]
    line = (f"{name}: {attempted} ops, {failed} failed "
            f"(ops_failed_ratio {failed / attempted:.3g})")
    notes = result["problems"] + [f"entry point not traced: {e}"
                                  for e in result["untraced_entry_points"]]
    return "\n".join([line] + [f"  {note}" for note in notes])


def cmd_run(args: argparse.Namespace) -> int:
    doc = _all_workloads(args.seed, trace=False)
    _write(doc, args.out)
    rows = []
    for name, result in doc["workloads"].items():
        for metric, data in result["metrics"].items():
            stats = harness.summarise(data["samples"])
            rows.append([name, metric, data["unit"], f"{stats['median']:.6g}",
                         f"{stats['q1']:.6g}", f"{stats['q3']:.6g}", str(stats["n"])])
    print(_table(["workload", "metric", "unit", "median", "q1", "q3", "n"], rows))
    for name, result in doc["workloads"].items():
        print(_ops_line(name, result))
    return 0 if all(r["correct"] for r in doc["workloads"].values()) else 1


def cmd_trace(args: argparse.Namespace) -> int:
    doc = _all_workloads(args.seed, trace=True)
    names = list(doc["workloads"])
    for result in doc["workloads"].values():
        values = {k: statistics.median(m["samples"]) for k, m in result["metrics"].items()}
        busy = sum(values[f"{layer}.self_s"] for layer in LAYERS)
        result["values"] = values
        result["shares"] = {layer: values[f"{layer}.self_s"] / busy if busy else 0.0
                            for layer in LAYERS}
    _write(doc, args.out)
    first = doc["workloads"][names[0]]
    rows = [[key, first["metrics"][key]["unit"]]
            + [f"{doc['workloads'][n]['values'][key]:.6g}" for n in names]
            for key in first["metrics"]]
    rows += [[f"{layer} share", "%"]
             + [f"{100 * doc['workloads'][n]['shares'][layer]:.1f}" for n in names]
             for layer in LAYERS]
    print(_table(["metric", "unit"] + names, rows))
    for name, result in doc["workloads"].items():
        print(_ops_line(name, result))
    return 0 if all(r["correct"] for r in doc["workloads"].values()) else 1


def cmd_check(args: argparse.Namespace) -> int:
    sides = []
    for path in (args.a, args.b):
        with open(path, encoding="utf-8") as fh:
            sides.append(json.load(fh))
    rows, regressed = check.compare(sides[0], sides[1], harness.load_spec())
    print(_table(["workload", "metric", "unit", "A median [q1, q3]",
                  "B median [q1, q3]", "B vs A", "verdict"], rows))
    return 1 if regressed else 0


def cmd_measure(args: argparse.Namespace) -> int:
    print(json.dumps(_measure(args)))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text in (
            ("run", cmd_run, "end-to-end metrics of every workload"),
            ("trace", cmd_trace, "per-layer metrics from a traced run")):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--out", help="write the full results as JSON")
        sub.set_defaults(handler=handler)
    sub = commands.add_parser("check", help="compare two run results")
    sub.add_argument("a")
    sub.add_argument("b")
    sub.set_defaults(handler=cmd_check)
    sub = commands.add_parser("measure", help="one workload in this process")
    _one_workload_args(sub)
    sub.set_defaults(handler=cmd_measure)
    args = parser.parse_args(argv)
    return args.handler(args)
