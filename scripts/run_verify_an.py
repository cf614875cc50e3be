#!/usr/bin/env python3
"""Run the exhaustive type-A verification for a range of n with timings.

Usage: run_verify_an.py [max_n]   (default 5)
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from clusterchar.polygon import DEFAULT_MAX_N, verify_an

if __name__ == "__main__":
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    overall = True
    for n in range(2, max_n + 1):
        start = time.perf_counter()
        report = verify_an(n, max_n=max(max_n, DEFAULT_MAX_N))
        elapsed = time.perf_counter() - start
        print("%s  [%.2f s]" % (report.summary(), elapsed))
        overall = overall and report.ok
    sys.exit(0 if overall else 1)
