"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _snapshot(workload: str, seed: int, work: Path):
    items = workloads.build(workload, seed, work)
    files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
    argv = [[a.replace(str(work), "WORK") for a in item["argv"]] for item in items]
    return [(item["id"], item["exit"], item["check"]) for item in items], argv, files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(tmp_path, workload):
    first = _snapshot(workload, 7, tmp_path / "a")
    assert first == _snapshot(workload, 7, tmp_path / "b")


def test_seed_changes_generated_inputs(tmp_path):
    _, _, one = _snapshot("character", 1, tmp_path / "a")
    _, _, two = _snapshot("character", 2, tmp_path / "b")
    assert one != two


def _det(m) -> Fraction:
    a = [[Fraction(x) for x in row] for row in m]
    n, det = len(a), Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("dims", workloads.MODULE_DIMS)
def test_generated_modules_are_conjugated_interval_sums(seed, dims):
    rng = random.Random(seed)
    n = len(dims)
    mod = workloads.generate_module(rng, n, workloads.random_intervals(rng, dims))
    assert mod["dims"] == dims
    assert all(1 <= lo <= hi <= n for lo, hi in mod["intervals"])
    assert mod["plain"] == workloads.interval_sum_matrices(n, mod["intervals"])
    for v, (g, ginv) in mod["conj"].items():
        d = dims[v - 1]
        assert workloads._matmul(g, ginv, d, d) == [[int(i == j) for j in range(d)]
                                                    for i in range(d)]
        assert abs(_det(g)) == 1
    for v, m in mod["matrices"].items():
        rows, cols = dims[v], dims[v - 1]
        ginv_target = mod["conj"][v + 1][1]
        g_source = mod["conj"][v][0]
        undone = workloads._matmul(workloads._matmul(ginv_target, m, rows, cols),
                                   g_source, rows, cols)
        assert undone == mod["plain"][v]


def test_self_times_on_a_synthetic_tree():
    #   0 [0, 10]
    #   +-- 1 [1, 4]
    #   |   +-- 2 [2, 3]
    #   +-- 3 [5, 9]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert spans.self_times(parent, start, end) == [3.0, 2.0, 1.0, 4.0]


def test_scaled_times_on_a_synthetic_pass():
    r = run.REFERENCE_S
    # Item 0 runs at half speed (two references before it, one sampled
    # while it ran), item 1 at full speed until the last reference.
    res = {"items": [[0, 4.0, "", ""], [0, 1.0, "", ""]],
           "refs": [[2 * r, 2 * r], [2 * r]], "last_ref": r,
           "setup_s": 0.3, "setup_ref_s": 3 * r}
    assert run._item_times(res, scaled=False) == [4.0, 1.0]
    assert run._item_times(res, scaled=True) == pytest.approx([2.0, 1.0 / 1.5])
    assert run._setup_time(res, scaled=True) == pytest.approx(0.1)
    slower = dict(res, items=[[0, 6.0, "", ""], [0, 0.5, "", ""]])
    slowest = dict(res, items=[[0, 8.0, "", ""], [0, 3.0, "", ""]])
    assert run._item_latencies([res, slower, slowest], scaled=False) == [6.0, 1.0]


def test_layer_metrics_on_a_synthetic_trace():
    t = spans.Tracer()
    item = t._new_label("cli", "run", "bench")
    value = t._new_label("character", "cc_value", "cli")
    classes = t._new_label("grassmannian", "submodule_classes", "character")
    count = t._new_label("grassmannian", "count_all_subreps", "grassmannian")
    for p, k, s, e in [
        (-1, item, 0.0, 10.0),
        (0, value, 1.0, 8.0),      # a miss: it has a submodule_classes child
        (1, classes, 2.0, 7.0),
        (2, count, 3.0, 4.0),
        (2, count, 4.0, 6.0),
        (0, value, 8.0, 9.0),      # a hit
    ]:
        t.parent.append(p)
        t.label.append(k)
        t.start.append(s)
        t.end.append(e)
    m = spans.layer_metrics(t)
    assert m["character.value_calls"] == 2
    assert m["character.cache_hit_ratio"] == 0.5
    assert m["character.self_s"] == (7.0 - 5.0) + 1.0
    assert m["grassmannian.count_calls"] == 2
    assert m["grassmannian.count_s"] == 3.0
    assert m["grassmannian.fit_s"] == 5.0 - 3.0
    assert m["cli.self_s"] == 10.0 - 7.0 - 1.0


def test_laurent_parse_and_product():
    p = checks.parse_laurent("x1^-1*x2 + 2*x1^-1 - x3 + 1")
    assert p == {(("x1", -1), ("x2", 1)): 1, (("x1", -1),): 2, (("x3", 1),): -1, (): 1}
    q = checks.parse_laurent("-x1")
    assert checks.mul_laurent(p, q) == checks.parse_laurent("-x2 - 2 + x1*x3 - x1")


def test_gate_rejects_changed_output():
    items = [{"id": "a", "argv": ["enumerate", "x.mat"], "exit": 0, "check": {"count": 2}}]
    out = "2 cluster variables\nx1\nx2\n"
    golden = {"k": [0, checks.digest(out.encode())]}
    ok = [[0, 0.1, out, ""]]
    assert checks.check_pass(items, ["k"], ok, golden, True) == []
    changed = [[0, 0.1, out + "x3\n", ""]]
    assert checks.check_pass(items, ["k"], changed, golden, True) != []
    assert checks.check_pass(items, ["other"], ok, golden, True) != []
    assert checks.check_pass(items, ["k"], [[3, 0.1, out, ""]], golden, True) != []


def test_gate_tells_a_capped_enumeration_from_another_error():
    items = [{"id": "cap", "argv": ["enumerate", "k.mat", "--max-seeds", "30"], "exit": 3,
              "check": {"empty": True, "stderr": workloads.CAP_MESSAGE % 30}}]
    golden = {"k": [3, checks.digest(b"")]}
    capped = [[3, 0.1, "", "error: not finite within cap: more than 30 seeds\n"]]
    assert checks.check_pass(items, ["k"], capped, golden, True) == []
    for err in ("error: Laurent division is not exact\n",
                "error: not finite within cap: more than 50 seeds\n", ""):
        assert checks.check_pass(items, ["k"], [[3, 0.1, "", err]], golden, True) != []


def test_traced_call_counts_repeat(tmp_path):
    items = [item for item in workloads.build("character", 0, tmp_path / "c")
             if item["argv"][0] in ("xvalue", "verify-triangle", "index")][:12]
    items += workloads.build("enumerate-cap", 0, tmp_path / "e")[:1]
    items_path = tmp_path / "items.json"
    items_path.write_text(json.dumps([item["argv"] for item in items]))
    counts = []
    for _ in range(2):
        res = run.run_child(items_path, tmp_path / "r.json", tmp_path / "spans.json")
        counts.append({name: value for name, value in res["layers"].items()
                       if spans.unit(name) != "s"})
    assert counts[0]["character.value_calls"] > 0
    assert counts[0]["laurent.mul_calls"] > 0
    assert counts[0] == counts[1]
