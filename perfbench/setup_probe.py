"""One set-up in a fresh interpreter: import codedcache and its CLI, then
build the seeded instance list. Prints the elapsed seconds.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED TINY(0|1)
"""

import time

start = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import codedcache  # noqa: E402,F401
import codedcache.cli  # noqa: E402,F401
from workloads import build_instances  # noqa: E402

build_instances(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1")
print(repr(time.perf_counter() - start))
