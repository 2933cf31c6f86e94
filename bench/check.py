"""Compare two ``python -m bench run`` result files against the bounds.

For every workload both files hold and every end-to-end metric in
``BENCHMARK.json``, the second file's median may be worse than the
first's by at most the metric's ``bound`` (a share of the first median).
A pair whose within-run spread (quartile distance over median, on either
side) is wider than the bound cannot be judged either way and is marked
``unresolved``.  More failed ops on the second side, or any on a side that
reports itself incorrect, is a failure too.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from bench.harness import summarise


def _spread(stats: Dict[str, float]) -> float:
    return (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else 0.0


def compare(a: Dict[str, Any], b: Dict[str, Any],
            spec: Dict[str, Any]) -> Tuple[List[List[str]], bool]:
    """Rows of the comparison table, and whether ``b`` regressed on ``a``."""
    rows: List[List[str]] = []
    regressed = False
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][name], b["workloads"][name]
        if wb["failed"] > wa["failed"] or not wb["correct"]:
            regressed = True
            rows.append([name, "failed ops", "", str(wa["failed"]),
                         str(wb["failed"]), "", "REGRESSION"])
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            sa = summarise(wa["metrics"][key]["samples"])
            sb = summarise(wb["metrics"][key]["samples"])
            change = (sb["median"] - sa["median"]) / sa["median"]
            worse = change if metric["better"] == "lower" else -change
            if max(_spread(sa), _spread(sb)) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                regressed = True
            else:
                verdict = "ok"
            rows.append([
                name, key, metric["unit"],
                f"{sa['median']:.4g} [{sa['q1']:.4g}, {sa['q3']:.4g}]",
                f"{sb['median']:.4g} [{sb['q1']:.4g}, {sb['q3']:.4g}]",
                f"{change:+.1%} (bound {bound:.0%})", verdict,
            ])
    return rows, regressed
