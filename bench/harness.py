"""Measure one workload in this process; run workloads in child processes.

:func:`measure` is the whole protocol for one workload and seed: time
``SETUP_REPEATS`` set-ups, run one untimed warm-up op, then run timed ops
until ``seconds`` have passed (at least ``MIN_OPS``).  Each op is built
fresh; its output digest and the workload's checks run after the clock
stops.  An op *fails* if it raises, if a check fails, or if its digest
differs from the pinned one (``pins.json``, for the pinned seeds) or from
the first op's.  With ``trace`` the second half of the time runs with the
:class:`~bench.tracer.Tracer` installed and yields the per-layer metrics;
its ops must reproduce the untraced digest.
"""

from __future__ import annotations

import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from bench import BENCHMARK_JSON, ROOT, WORK_DIR
from bench import workloads
from bench.tracer import Tracer

PINS_JSON = ROOT / "bench" / "pins.json"
#: Set-up samples per run; the median is reported.
SETUP_REPEATS = 21
#: A set-up sample repeats the set-up for at least this long and reports
#: the mean: one deployment builds in well under a millisecond.
SETUP_SAMPLE_S = 0.02
#: Timed ops per run at the least, whatever ``seconds`` allows.
MIN_OPS = 3
#: Problem messages kept per run.
MAX_PROBLEMS = 5
#: Length of the endurance mission the tracer's wrapper cost is measured on.
CALIBRATION_DAYS = 10.0


def load_spec() -> Dict[str, Any]:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


def load_pins() -> Dict[str, Dict[str, str]]:
    with open(PINS_JSON, encoding="utf-8") as fh:
        return json.load(fh)


def summarise(samples: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles (``statistics.quantiles``, n=4) and sample count."""
    values = sorted(samples)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


class Tally:
    """Attempted and failed ops, judged against one expected digest."""

    def __init__(self, expected: Optional[str]) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)

    def judge(self, digest: str, problems: List[str]) -> None:
        if self.expected is None:
            self.expected = digest
        elif digest != self.expected:
            problems = problems + [f"digest {digest[:16]} != expected "
                                   f"{self.expected[:16]}"]
        if problems:
            self.fail("; ".join(problems))


def _ops(wl: Any, tally: Tally, seconds: float, min_ops: int,
         tracer: Optional[Tracer] = None) -> List[Dict[str, float]]:
    """Timed ops until ``seconds`` pass; one sample dict per completed op."""
    samples: List[Dict[str, float]] = []
    attempted = 0
    deadline = time.perf_counter() + seconds
    while attempted < min_ops or time.perf_counter() < deadline:
        attempted += 1
        tally.attempted += 1
        gc.collect()  # the previous op's garbage must not be timed here
        try:
            if tracer is None:
                start = time.perf_counter()
                outcome = wl.op()
                wall = time.perf_counter() - start
            else:
                tracer.reset()
                start = time.perf_counter()
                with tracer.span(wl.root):
                    outcome = wl.op()
                wall = time.perf_counter() - start
        except Exception as exc:  # a failed op is counted, not fatal
            tally.fail(f"op raised {type(exc).__name__}: {exc}")
            continue
        sample = {"wall_s": wall}
        if tracer is not None:
            for snapshot in wl.worker_traces(outcome):
                tracer.merge(snapshot)
            sample.update(tracer.report())
            sample.update(wl.counts(outcome))
            sample.update(wl.fleet_counts(outcome))
        tally.judge(*wl.check(outcome))
        del outcome
        samples.append(sample)
    return samples


def _setup_sample(fn: Callable[[], Any]) -> float:
    """Mean seconds per call of ``fn``, over at least ``SETUP_SAMPLE_S``."""
    gc.collect()
    calls = 0
    start = time.perf_counter()
    while True:
        fn()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= SETUP_SAMPLE_S:
            return elapsed / calls


def _end_to_end(wl: Any, setup: List[float],
                samples: List[Dict[str, float]]) -> Dict[str, List[float]]:
    walls = [s["wall_s"] for s in samples]
    return {
        "station_years_per_s": [wl.station_years_per_op / w for w in walls],
        "runs_per_s": [wl.runs_per_op / w for w in walls],
        "setup_s": setup,
        "peak_rss_mb": [peak_rss_mb()],
    }


def _per_layer(untraced: List[Dict[str, float]],
               traced: List[Dict[str, float]]) -> Dict[str, List[float]]:
    out = {key: [s[key] for s in traced] for key in traced[0] if key != "wall_s"}
    out["sim.events_per_batch"] = [
        events / batches if batches else 0.0
        for events, batches in zip(out["sim.events"], out["sim.dispatch_batches"])]
    out["trace.overhead_ratio"] = [
        statistics.median(s["wall_s"] for s in traced)
        / statistics.median(s["wall_s"] for s in untraced)]
    return out


def measure(name: str, seed: int, seconds: float, trace: bool = False,
            days: Optional[float] = None,
            pins: Optional[Dict[str, Dict[str, str]]] = None) -> Dict[str, Any]:
    """Measure workload ``name`` at ``seed``; see the module docstring."""
    spec = load_spec()
    if pins is None:
        # The pins are digests of full-length runs.
        pins = load_pins() if days is None else {}
    WORK_DIR.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=WORK_DIR)
    wl = workloads.make(name, seed, work_dir, days)
    try:
        setup = [_setup_sample(wl.setup_once) for _ in range(SETUP_REPEATS)]
        wl.warm_up()
        tally = Tally(pins.get(name, {}).get(str(seed)))
        untraced_entry_points: List[str] = []
        if not trace:
            samples = _ops(wl, tally, seconds, MIN_OPS)
            if not samples:
                raise RuntimeError(f"{name}: no op completed ({tally.problems})")
            values = _end_to_end(wl, setup, samples)
            wanted = spec["end_to_end"]
        else:
            untraced = _ops(wl, tally, seconds / 2, 1)
            tracer = Tracer()
            tracer.calibrate(workloads.make(
                "endurance_year", seed, work_dir, CALIBRATION_DAYS).op)
            tracer.install()
            try:
                traced = _ops(wl, tally, seconds / 2, 1, tracer=tracer)
            finally:
                tracer.uninstall()
            if not untraced or not traced:
                raise RuntimeError(f"{name}: no op completed ({tally.problems})")
            values = _per_layer(untraced, traced)
            wanted = spec["per_layer"]
            untraced_entry_points = tracer.missing
    finally:
        wl.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "digest": tally.expected,
        "untraced_entry_points": untraced_entry_points,
        "metrics": {m["name"]: {"unit": m["unit"], "samples": values[m["name"]]}
                    for m in wanted},
    }


def contract_line(result: Dict[str, Any]) -> Dict[str, Any]:
    """The one-line result: each metric's median, with its unit."""
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": statistics.median(m["samples"]), "unit": m["unit"]}
            for name, m in result["metrics"].items()
        },
    }


def run_child(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """:func:`measure` in a fresh interpreter, so workloads share no state."""
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "measure", "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name}: measurement exited {proc.returncode}")
    return json.loads(lines[-1])
