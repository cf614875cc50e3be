#!/usr/bin/env python3
"""Record each workload's outputs for the default seed into golden/.

Usage: python3 perfbench/record_golden.py [WORKLOAD ...]

Runs one plain pass per workload and stores, per item, its exit code and
the SHA-256 of its stdout, keyed by argv with input files replaced by
content digests (checks.item_key).  It refuses to record a pass that
fails the seed-independent checks.  Re-record only for a change that is
meant to alter CLI output, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads


def record(workload: str) -> int:
    work, items, items_path, keys = run.prepare(workload, run.DEFAULT_SEED)
    res = run.run_child(items_path, work / "result.json")
    failures = checks.check_pass(items, keys, res["items"], {}, require_golden=False)
    if failures:
        print("%s: not recorded, %d items fail:\n  %s"
              % (workload, len(failures), "\n  ".join(failures)), file=sys.stderr)
        return 1
    golden = {
        key: [code, checks.digest(out.encode("utf-8"))]
        for key, (code, _, out, _) in zip(keys, res["items"])
    }
    path = checks.GOLDEN_DIR / ("%s.json" % workload)
    path.parent.mkdir(exist_ok=True)
    rows = ",\n".join("  %s: %s" % (json.dumps(key), json.dumps(golden[key]))
                      for key in sorted(golden))
    path.write_text('{"seed": %d, "source_sha256": "%s", "items": {\n%s\n}}\n'
                    % (run.DEFAULT_SEED, run.environment()["source_sha256"], rows),
                    encoding="utf-8")
    print("%s: %d items recorded in %s" % (workload, len(golden), path))
    return 0


if __name__ == "__main__":
    names = sys.argv[1:] or workloads.WORKLOADS
    sys.exit(max(record(name) for name in names))
