#!/usr/bin/env python3
"""Run the exhaustive type-A verification for a range of n with timings.

Usage: run_verify_an.py [max_n]   (default 5, at most 8)
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from clusterchar.polygon import MAX_N, verify_an
from clusterchar.quiver import ascii_int

if __name__ == "__main__":
    try:
        max_n = ascii_int(sys.argv[1]) if len(sys.argv) > 1 else 5
        if not 2 <= max_n <= MAX_N:
            raise ValueError
    except ValueError:
        print("error: n must lie in 2..%d" % MAX_N, file=sys.stderr)
        sys.exit(2)
    overall = True
    for n in range(2, max_n + 1):
        start = time.perf_counter()
        report = verify_an(n)
        elapsed = time.perf_counter() - start
        print("%s  [%.2f s]" % (report.summary(), elapsed))
        overall = overall and report.ok
    sys.exit(0 if overall else 1)
