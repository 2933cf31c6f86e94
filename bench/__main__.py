"""``python -m bench``: see :mod:`bench.cli`."""

import sys

from bench import use_source_tree

use_source_tree()

from bench.cli import main  # noqa: E402 - needs the source tree on sys.path

sys.exit(main())
