"""One benchmark operation in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD TRACE ROOT

Kept this small on purpose: the main script is compiled on every start, and
everything before the timestamp below counts as set-up time (interpreter
start through the import of the package and its CLI module).
"""

import sys
import time

import tqeuler
import tqeuler.cli

SETUP_DONE_NS = time.monotonic_ns()

from ops import main  # noqa: E402  (after the set-up timestamp on purpose)

sys.exit(main(sys.argv[1:], SETUP_DONE_NS))
