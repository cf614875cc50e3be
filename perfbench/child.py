"""One pass of a workload in a fresh interpreter.

Usage: child.py SPAWN_TIME ITEMS_JSON RESULT_JSON [SPANS_JSON]

SPAWN_TIME is the parent's `time.monotonic()` just before it started
this process (CLOCK_MONOTONIC is shared by all processes on Linux), so
the set-up time covers interpreter start and `import clusterchar.cli`.
The items run in order through `clusterchar.cli.run` with stdout and
stderr captured.  With SPANS_JSON the pass is traced (see spans.py).
With an empty item list the child only measures set-up.

The child also times `reference()`, a fixed piece of pure Python that
does not touch clusterchar: three times right after the import, before
each item and after the last, and, in untraced passes, every
SAMPLE_PERIOD_S seconds while an item runs (from a SIGALRM handler,
whose time is taken off the item's).  run.py divides each time by the
reference times taken with it, so that a machine that runs everything
slower for a while (other tenants of a shared host) moves the reported
figures less.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import clusterchar.cli  # noqa: E402

SETUP_S = time.monotonic() - float(sys.argv[1])

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402

# The load changes within an item; in trials, sampling every 0.1 s rather
# than 0.2 s cut the pass-to-pass spread of single items by about a
# third, and 0.05 s steadied `verify-an` further.  Each sample costs about
# 3 ms, taken off the item's time.
SAMPLE_PERIOD_S = 0.05


def reference() -> int:
    """Integer arithmetic and a small tuple-keyed dict, as in the
    package's Laurent polynomials and linear algebra."""
    total = 0
    for i in range(12_000):
        total += i * i % 7
    acc: dict = {}
    for i in range(2_500):
        key = (i % 31, i % 37)
        acc[key] = acc.get(key, 0) + i * i
    return total + len(acc)


def time_reference() -> float:
    """Seconds for one `reference()` call, made after an untimed one so
    that the caches hold it, with the collector off so that the heap the
    items left behind does not count."""
    gc.disable()
    try:
        reference()
        t0 = time.perf_counter()
        reference()
        return time.perf_counter() - t0
    finally:
        gc.enable()


SETUP_REF_S = statistics.median(time_reference() for _ in range(3))


class Sampler:
    """Reference times taken every ``period`` seconds while an item runs
    (never when ``period`` is 0), and the time they took."""

    def __init__(self, period: float):
        self.period = period
        self.refs: list[float] = []
        self.spent = 0.0
        if period:
            signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.refs.append(time_reference())
        self.spent += time.perf_counter() - t0

    def run(self, fn, argv):
        """fn(argv), sampled; returns its result."""
        self.refs, self.spent = [], 0.0
        if not self.period:
            return fn(argv)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        try:
            return fn(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)


def main(items_path: str, result_path: str, spans_path: str | None) -> None:
    if SRC not in Path(clusterchar.cli.__file__).resolve().parents:
        raise SystemExit("clusterchar was not imported from %s" % SRC)
    with open(items_path, encoding="utf-8") as fh:
        items = json.load(fh)
    run = clusterchar.cli.run
    tracer = None
    if spans_path:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        run = tracer.wrap_item(run)
    # Spans should hold program time only, so traced passes are not sampled.
    sampler = Sampler(0 if tracer else SAMPLE_PERIOD_S)
    results, refs = [], []
    clock = time.perf_counter
    for argv in items:
        before = time_reference()
        out, err = io.StringIO(), io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sampler.run(run, argv)
        elapsed = clock() - t0 - sampler.spent
        refs.append([before] + sampler.refs)
        results.append([code, elapsed, out.getvalue(), err.getvalue()])
    payload = {
        "setup_s": SETUP_S,
        "setup_ref_s": SETUP_REF_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "items": results,
        "refs": refs,
        "last_ref": time_reference(),
    }
    if tracer is not None:
        payload["layers"] = layer_metrics(tracer)
        tracer.dump(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    main(sys.argv[2], sys.argv[3], sys.argv[4] if len(sys.argv) > 4 else None)
