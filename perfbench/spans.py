"""Spans around clusterchar's public functions, recorded from outside.

`Tracer.install` wraps each function in `TARGETS` at every name a
clusterchar module binds it to: the package imports functions by name
(`from .modules import ext1_dim`), so patching only the defining module
would miss most calls.  Each binding gets its own wrapper, so a span
knows both the layer that owns the function and the module that called
it (`polygon.ext1_dim` is the calibration phase of `verify_an`).

Spans are kept in flat arrays (id = index, parent, start, end, label)
and written out when the run ends; `layer_metrics` turns them into the
per-layer numbers the benchmark reports.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction

# Layer (the clusterchar module that defines the function) -> functions.
TARGETS = {
    "quiver": ("AlgebraPresentation.__init__",),
    "linalg": ("rank", "kernel_basis", "solve", "mat_mul"),
    "modules": ("load_module", "projective", "injective", "dual", "direct_sum",
                "hom_dim", "hom_basis", "top_dims", "syzygy", "ext1_dim",
                "min_proj_presentation", "min_inj_copresentation"),
    "grassmannian": ("count_points", "count_all_subreps", "counting_polynomial",
                     "euler_char", "submodule_classes"),
    "forms": ("euler_form", "antisym_form_matrix", "form_a_value", "form_a_row",
              "index_routes", "coindex_routes", "index", "coindex"),
    "character": ("cc_value", "cc_product", "verify_triangle"),
    "laurent": ("LaurentPoly.__mul__", "LaurentPoly.__add__", "laurent_divexact"),
    "mutation": ("mutate_seed", "enumerate_cluster_variables"),
    "polygon": ("verify_an",),
}
COUNT_FUNCS = ("count_points", "count_all_subreps")
FIT_FUNCS = ("counting_polynomial", "euler_char", "submodule_classes")


class Tracer:
    """Span recorder.  Label k is (layer, function, calling module)."""

    def __init__(self):
        self.labels: list[tuple[str, str, str]] = []
        self.parent = array("q")
        self.label = array("H")
        self.start = array("d")
        self.end = array("d")
        self.errors: dict[int, str] = {}
        self.ranks: dict[int, int] = {}  # mutate_seed span -> seed rank
        self.missing: list[str] = []
        self._stack = [-1]

    def _new_label(self, layer: str, func: str, site: str) -> int:
        self.labels.append((layer, func, site))
        return len(self.labels) - 1

    def _wrap(self, fn, label: int, rank_of=None):
        """``fn`` wrapped so that every call records one span."""
        parent, lab, start, end = self.parent, self.label, self.start, self.end
        stack, errors, ranks, clock = self._stack, self.errors, self.ranks, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            lab.append(label)
            start.append(0.0)
            end.append(0.0)
            if rank_of is not None:
                ranks[sid] = rank_of(args)
            stack.append(sid)
            start[sid] = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                errors[sid] = type(exc).__name__
                raise
            finally:
                end[sid] = clock()
                stack.pop()

        return wrapper

    def wrap_item(self, fn):
        """``fn`` (the benchmark's call of `cli.run`) as a root span whose
        self time is the CLI's own work: parsing, file loading, rendering."""
        return self._wrap(fn, self._new_label("cli", "run", "bench"))

    def install(self) -> None:
        """Wrap every target at each name a clusterchar module binds it to."""
        modules = {
            name[len("clusterchar."):]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("clusterchar.") and mod is not None
        }
        for layer, funcs in TARGETS.items():
            home = modules.get(layer)
            for func in funcs:
                owner_name, _, attr = func.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self.missing.append("%s.%s" % (layer, func))
                    continue
                rank_of = _seed_rank if func == "mutate_seed" else None
                if owner_name:
                    setattr(owner, attr, self._wrap(
                        original, self._new_label(layer, func, layer), rank_of))
                    continue
                for site, mod in modules.items():
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, self._wrap(
                                original, self._new_label(layer, func, site), rank_of))
        if self.missing:
            print("trace: not found, counted as zero: %s" % ", ".join(self.missing),
                  file=sys.stderr)

    def dump(self, path) -> None:
        """Write the spans as JSON: labels, then one [parent, label, start,
        end] row per span id."""
        rows = [[p, k, s, e] for p, k, s, e in
                zip(self.parent, self.label, self.start, self.end)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"labels": self.labels, "spans": rows,
                       "errors": self.errors, "missing": self.missing}, fh)


def unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _seed_rank(args) -> int:
    return len(args[0].matrix)


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Parents precede their children (a span is appended when its call
    begins), so one pass over the ids suffices.
    """
    out = [e - s for s, e in zip(start, end)]
    for sid, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[sid] - start[sid]
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times from one traced pass."""
    labels = tracer.labels
    parent, start, end = tracer.parent, tracer.start, tracer.end
    own = self_times(parent, start, end)
    calls: Counter = Counter()
    func_self: Counter = Counter()
    func_total: Counter = Counter()
    site_total: Counter = Counter()
    layer_self: Counter = Counter()
    with_classes: set[int] = set()
    refused = 0
    for sid, k in enumerate(tracer.label):
        layer, func, site = labels[k]
        dur = end[sid] - start[sid]
        calls[layer, func] += 1
        func_self[layer, func] += own[sid]
        func_total[layer, func] += dur
        site_total[site, func] += dur
        layer_self[layer] += own[sid]
        p = parent[sid]
        if func == "submodule_classes" and p >= 0:
            with_classes.add(p)
        if (layer == "grassmannian" and tracer.errors.get(sid) == "ResourceLimitError"
                and (p < 0 or labels[tracer.label[p]][0] != "grassmannian")):
            refused += 1

    value_calls = calls["character", "cc_value"]
    hits = sum(1 for sid, k in enumerate(tracer.label)
               if labels[k][:2] == ("character", "cc_value") and sid not in with_classes)
    mutate = calls["mutation", "mutate_seed"]
    enumerations = calls["mutation", "enumerate_cluster_variables"]
    # exact, so that the count does not depend on summation order
    seeds = float(sum(Fraction(c, r) for r, c in Counter(tracer.ranks.values()).items()))
    metrics = {
        "quiver.build_calls": calls["quiver", "AlgebraPresentation.__init__"],
        "quiver.build_s": func_total["quiver", "AlgebraPresentation.__init__"],
        "linalg.rank_calls": calls["linalg", "rank"],
        "linalg.kernel_calls": calls["linalg", "kernel_basis"],
        "linalg.solve_calls": calls["linalg", "solve"],
        "linalg.self_s": layer_self["linalg"],
        "modules.hom_calls": calls["modules", "hom_dim"],
        "modules.ext1_calls": calls["modules", "ext1_dim"],
        "modules.syzygy_calls": calls["modules", "syzygy"],
        "modules.self_s": layer_self["modules"],
        "grassmannian.count_calls": sum(calls["grassmannian", f] for f in COUNT_FUNCS),
        "grassmannian.count_s": sum(func_total["grassmannian", f] for f in COUNT_FUNCS),
        "grassmannian.fit_s": sum(func_self["grassmannian", f] for f in FIT_FUNCS),
        "grassmannian.refused": refused,
        "forms.form_matrix_calls": calls["forms", "antisym_form_matrix"],
        "forms.routes_calls": calls["forms", "index_routes"] + calls["forms", "coindex_routes"],
        "forms.self_s": layer_self["forms"],
        "character.value_calls": value_calls,
        "character.cache_hit_ratio": hits / value_calls if value_calls else 0.0,
        "character.self_s": layer_self["character"],
        "laurent.mul_calls": calls["laurent", "LaurentPoly.__mul__"],
        "laurent.mul_s": func_total["laurent", "LaurentPoly.__mul__"],
        "laurent.divexact_calls": calls["laurent", "laurent_divexact"],
        "laurent.divexact_s": func_total["laurent", "laurent_divexact"],
        "laurent.add_calls": calls["laurent", "LaurentPoly.__add__"],
        "mutation.mutate_calls": mutate,
        "mutation.seeds_distinct": seeds,
        # each enumeration finds seeds_distinct - 1 new seeds in mutate_calls tries
        "mutation.dup_ratio": 1 - (seeds - enumerations) / mutate if mutate else 0.0,
        "mutation.self_s": layer_self["mutation"],
        "polygon.triangle_s": site_total["polygon", "verify_triangle"],
        "polygon.calibration_s": site_total["polygon", "ext1_dim"],
        "polygon.oracle_s": site_total["polygon", "enumerate_cluster_variables"],
        "cli.self_s": layer_self["cli"],
        "trace.spans": len(parent),
    }
    return {name: float(v) if unit(name) == "s" else v for name, v in metrics.items()}
