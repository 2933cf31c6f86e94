"""The simulator's benchmark: pinned workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root names the workloads and metrics;
``bench/README.md`` explains them.  Entry points::

    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1
    python -m bench run   --seed S --out run.json
    python -m bench trace --seed S --out trace.json
    python -m bench check a.json b.json

Everything runs from a checkout: the simulator is imported from its
``src`` directory, never from an installed copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: Scratch files of a running benchmark (sweep caches); removed after each run.
WORK_DIR = ROOT / ".bench_work"


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src``; exit if it is not there."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no simulator sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
