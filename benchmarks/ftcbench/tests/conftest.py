"""Self-tests of the benchmark harness.

Run with ``python -m pytest benchmarks/ftcbench/tests -q``; tier-1's
``testpaths`` does not collect this directory.
"""

import pathlib
import sys

HARNESS = pathlib.Path(__file__).resolve().parents[1]
SRC = HARNESS.parents[1] / "src"
for path in (str(SRC), str(HARNESS)):
    if path not in sys.path:
        sys.path.insert(0, path)
