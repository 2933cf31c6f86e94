"""Run one workload and print its result as one JSON line.

    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a checkout.  The last line of standard output holds
``correct``, ``attempted``, ``failed`` and the median of every end-to-end
metric (``--trace 0``) or per-layer metric (``--trace 1``) named in
``BENCHMARK.json``.
"""

import sys
from pathlib import Path

# Import the package, not its modules as top-level names.
sys.path[0] = str(Path(__file__).resolve().parent.parent)

from bench import use_source_tree  # noqa: E402 - needs the line above

use_source_tree()

from bench.cli import drive  # noqa: E402 - needs the source tree on sys.path

if __name__ == "__main__":
    sys.exit(drive())
