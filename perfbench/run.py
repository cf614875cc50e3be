#!/usr/bin/env python3
"""Benchmark for clusterchar: seeded workloads driven through `cli.run`.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is one of the workloads in workloads.py, or `all` to run each in
turn.  Run from anywhere; all files are read and written inside the
checkout (generated inputs and results go to `.perfbench/`).

A pass runs every item of the workload once, in a fresh interpreter
(child.py), so that the package's process-wide caches start cold as they
do for a user's CLI call.  Passes repeat until the next one would end
after S seconds.  Every time is scaled to a machine on which child.py's
`reference()` takes REFERENCE_S seconds, using the reference times
taken with it (see child.py).  An item's latency is its median scaled
time over the run's passes, and the run time is the sum of those.
Before each pass an interpreter that only imports the package adds a
set-up sample, and set-up time is the median of those samples.  The
unscaled wall times are reported alongside.  With --trace 1 the run
alternates plain and traced passes and reports the per-layer metrics of
spans.py (each the minimum over traced passes, in unscaled seconds);
the tracing overhead is the difference of the traced and plain (scaled)
run times.

Every item's exit code and stdout is checked (checks.py).  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
# Seconds that child.reference() takes on the machine that reported times
# are scaled to.  A fixed unit: on the 2 GHz Xeon virtual machine the
# benchmark was written on, reference() took 1.3 to 2.1 ms as the load
# from other tenants changed.
REFERENCE_S = 0.0015
CHILD_TIMEOUT_S = 150
OUT = ROOT / ".perfbench"

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "item_p50_s": "s",
    "item_p90_s": "s",
    "peak_rss_mb": "MB",
}


def run_child(items_path, result_path, spans_path=None) -> dict:
    """Run child.py once (traced when ``spans_path`` is given) and return
    its result payload."""
    args = [str(items_path), str(result_path)] + ([str(spans_path)] if spans_path else [])
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), repr(spawn)] + args,
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError("child.py %s failed with exit code %d:\n%s"
                           % (" ".join(args), proc.returncode, proc.stderr.strip()))
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def prepare(workload: str, seed: int):
    """Generate the workload's inputs in a fresh work directory.

    Returns the work directory, the items, the path of the argv list the
    children read, and each item's golden-output key."""
    work = OUT / ("%s-seed%d" % (workload, seed))
    shutil.rmtree(work, ignore_errors=True)
    items = workloads.build(workload, seed, work)
    items_path = work / "items.json"
    items_path.write_text(json.dumps([item["argv"] for item in items]), encoding="utf-8")
    keys = [checks.item_key(item["argv"], ROOT) for item in items]
    return work, items, items_path, keys


def _item_times(res: dict, scaled: bool) -> list[float]:
    """A pass's item latencies; scaled by the mean of the reference times
    taken before, during and just after each item."""
    times = [r[1] for r in res["items"]]
    if not scaled:
        return times
    refs = res["refs"]
    after = [r[0] for r in refs[1:]] + [res["last_ref"]]
    return [t * REFERENCE_S / statistics.fmean(refs[k] + [after[k]])
            for k, t in enumerate(times)]


def _setup_time(res: dict, scaled: bool) -> float:
    return res["setup_s"] * REFERENCE_S / res["setup_ref_s"] if scaled else res["setup_s"]


def _item_latencies(passes: list[dict], scaled: bool = True) -> list[float]:
    """Each item's median latency over the passes."""
    return [statistics.median(times)
            for times in zip(*(_item_times(res, scaled) for res in passes))]


def _summary(setup_passes: list[dict], plain: list[dict], scaled: bool) -> dict:
    latencies = _item_latencies(plain, scaled)
    return {
        "setup_s": statistics.median(_setup_time(res, scaled) for res in setup_passes),
        "run_s": sum(latencies),
        "item_p50_s": statistics.median(latencies),
        "item_p90_s": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in plain),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work, items, items_path, keys = prepare(workload, seed)
    golden = checks.load_golden(workload)
    result_path = work / "result.json"
    empty = work / "empty.json"
    empty.write_text("[]", encoding="utf-8")

    # One round: a set-up probe, a plain pass and, with tracing, a traced pass.
    probes, plain, traced, rounds = [], [], [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        probes.append(run_child(empty, result_path))
        plain.append(run_child(items_path, result_path))
        if trace:
            traced.append(run_child(items_path, result_path, work / "spans.json"))
        rounds.append(time.monotonic() - t0)
        if time.monotonic() - start + statistics.median(rounds) > seconds:
            break
    failures = []
    for res in plain + traced:
        failures += checks.check_pass(items, keys, res["items"], golden,
                                      require_golden=seed == DEFAULT_SEED)

    metrics = _summary(probes + plain, plain, scaled=True)
    latencies = _item_latencies(plain)
    layers = {}
    if trace:
        for name in traced[0]["layers"]:
            layers[name] = min(res["layers"][name] for res in traced)
        layers["trace.overhead_s"] = sum(_item_latencies(traced)) - metrics["run_s"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "items_per_pass": len(items),
        "passes": len(plain),
        "pass_wall_s": [sum(_item_times(res, False)) for res in plain],
        "pass_scaled_s": [sum(_item_times(res, True)) for res in plain],
        "traced_passes": len(traced),
        "setup_samples": len(probes) + len(plain),
        "attempted": len(items) * (len(plain) + len(traced)),
        "failed": len(failures),
        "failures": failures[:50],
        "beyond_p50": sum(t > metrics["item_p50_s"] for t in latencies),
        "beyond_p90": sum(t > metrics["item_p90_s"] for t in latencies),
        "metrics": metrics,
        "wall": _summary(probes + plain, plain, scaled=False),
        "layers": layers,
    }


def environment() -> dict:
    src = ROOT / "src" / "clusterchar"
    h = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "source_sha256": h.hexdigest(),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree of its own."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def print_report(rep: dict) -> None:
    env = rep["environment"]
    print("workload %s  seed %d  python %s  nproc %d  commit %s  source %s"
          % (rep["workload"], rep["seed"], env["python"], env["nproc"],
             env["commit"] or "unknown", env["source_sha256"][:12]))
    print("passes %d (traced %d), %d items per pass, %d attempted, %d failed, "
          "failed_frac %.4f"
          % (rep["passes"], rep["traced_passes"], rep["items_per_pass"],
             rep["attempted"], rep["failed"], rep["failed"] / rep["attempted"]))
    for line in rep["failures"]:
        print("  FAILED %s" % line)
    notes = {
        "setup_s": "median of %d set-ups" % rep["setup_samples"],
        "run_s": "sum of median item times over %d passes" % rep["passes"],
        "peak_rss_mb": "median of %d passes" % rep["passes"],
    }
    for name, beyond in (("item_p50_s", rep["beyond_p50"]), ("item_p90_s", rep["beyond_p90"])):
        notes[name] = "%d items, %d beyond" % (rep["items_per_pass"], beyond)
        if beyond < 10:
            notes[name] += " (fewer than 10 beyond: indicative only)"
    print("  %-14s %12s     %12s" % ("", "scaled", "wall"))
    for name, unit in END_TO_END_UNITS.items():
        print("  %-14s %12.6f %-3s %12.6f  %s"
              % (name, rep["metrics"][name], unit, rep["wall"][name], notes[name]))
    for name, value in rep["layers"].items():
        print("  %-26s %14.6f" % (name, value))


def _result_line(rep: dict, prefix: str = "") -> dict:
    if rep["trace"]:
        metrics = {prefix + name: {"value": value, "unit": spans.unit(name)}
                   for name, value in rep["layers"].items()}
    else:
        metrics = {prefix + name: {"value": rep["metrics"][name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    return {"correct": rep["failed"] == 0, "attempted": rep["attempted"],
            "failed": rep["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "clusterchar" / "cli.py").is_file():
        print("error: no clusterchar sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    for name in names:
        try:
            rep = measure(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print("error: %s: %s" % (name, exc), file=sys.stderr)
            return 1
        results = OUT / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / ("%s-seed%d-trace%d.json" % (name, args.seed, args.trace))).write_text(
            json.dumps(rep, indent=1), encoding="utf-8")
        print_report(rep)
        lines.append(_result_line(rep, "%s." % name if len(names) > 1 else ""))
    print(json.dumps({
        "correct": all(line["correct"] for line in lines),
        "attempted": sum(line["attempted"] for line in lines),
        "failed": sum(line["failed"] for line in lines),
        "metrics": {k: v for line in lines for k, v in line["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
