"""Seeded workloads for the clusterchar benchmark.

A workload is a list of items.  An item is one `clusterchar.cli.run`
call: its argv, the exit code it must return, and the independent check
its stdout must pass (see checks.py).  Items read the shipped `data/`
files (paths relative to the checkout root) and files this module
writes into a work directory; the program only ever sees those files
and argv.

The seed changes which inputs are drawn, never how much work a pass
does: generated modules follow a fixed list of dimension vectors, and
enumerated matrices are fixed up to relabelling and reversal, so that
runs with different seeds measure the same amount of work.
"""

from __future__ import annotations

import random
from itertools import product
from pathlib import Path

WORKLOADS = ("character", "verify-an", "enumerate", "enumerate-cap")

DATA = "data"
SHIPPED_ALGEBRAS = ("a4", "d4", "an2", "an3", "an4", "an5")

# Dimension vectors of the generated modules over linear A_n.  Every one
# stays under the point counter's refusal budget
# (`grassmannian.DEFAULT_BUDGET`); (2, 2, 2, 2, 2) over A5, for example,
# would be refused, and a refused item fails the exit-code check.  The
# slowest, (2, 3, 2), takes about 0.3 s per character value.
MODULE_DIMS = (
    (2, 3, 2), (2, 2, 2), (1, 2, 1), (2, 1, 2),
    (2, 2, 2, 2), (1, 2, 2, 1), (2, 2, 1, 1), (1, 1, 2, 2),
    (1, 2, 2, 2, 1), (1, 1, 2, 1, 1), (2, 2, 1, 1, 1),
    (1, 1, 2, 2, 1, 1), (1, 1, 1, 1, 1, 1), (1, 2, 1, 1, 2, 1),
)
TRIANGLES_PER_N = {3: 3, 4: 3, 5: 3, 6: 3}

# Finite-type exchange matrices (type, initial matrix, cluster-variable count).
FINITE_TYPES = {
    "A3": (((0, 1, 0), (-1, 0, 1), (0, -1, 0)), 9),
    "A4": (((0, 1, 0, 0), (-1, 0, 1, 0), (0, -1, 0, 1), (0, 0, -1, 0)), 14),
    "D4": (((0, 1, 1, 1), (-1, 0, 0, 0), (-1, 0, 0, 0), (-1, 0, 0, 0)), 16),
}
SHIPPED_FINITE = (("an4.mat", 14), ("a4_tilted.mat", 14), ("d4_tilted.mat", 16))
GENERATED_FINITE = ("A3",) * 5 + ("A4",) * 6 + ("D4",) * 6

# Infinite-type matrices with the seed caps at which each one is enumerated;
# every item must stop with exit code 3.  The seed only relabels the
# vertices and may reverse every arrow (for Kronecker and Markov that is
# mutation at any vertex), which keeps the work per item nearly the same.
INFINITE_TYPES = {
    "kronecker": (((0, 2), (-2, 0)), (30, 38)),
    "markov": (((0, 2, -2), (-2, 0, 2), (2, -2, 0)), (150, 190)),
    "affine-a2": (((0, 1, 1), (-1, 0, 1), (-1, -1, 0)), (200, 240)),
}

# What `cli.run` prints on stderr when an enumeration reaches its cap.
# Other mathematical errors (a failed Laurent division, say) also exit 3.
CAP_MESSAGE = "error: not finite within cap: more than %d seeds\n"

VERIFY_AN_RANKS = (2, 3, 4, 5)


def build(workload: str, seed: int, work: Path) -> list[dict]:
    """Write the workload's input files under ``work`` and return its items."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random("%s:%d" % (workload, seed))
    items = {
        "character": _character,
        "verify-an": _verify_an,
        "enumerate": _enumerate,
        "enumerate-cap": _enumerate_cap,
    }[workload](rng, work)
    rng.shuffle(items)
    return items


def _item(item_id: str, argv: list, check: dict, exit_code: int = 0) -> dict:
    return {"id": item_id, "argv": [str(a) for a in argv], "exit": exit_code,
            "check": check}


# -- character ---------------------------------------------------------------


def _character(rng: random.Random, work: Path) -> list[dict]:
    items = []
    for stem in SHIPPED_ALGEBRAS:
        alg = "%s/%s.alg" % (DATA, stem)
        items.append(_item("algebra:%s" % stem, ["algebra", "check", alg], {}))
        items.append(_item("form:%s" % stem, ["form-matrix", alg], {}))
    for stem, dims in (("a4", (1, 1, 0, 0)), ("d4", (1, 1, 1, 0))):
        alg, mod = "%s/%s.alg" % (DATA, stem), "%s/%s_M.mod" % (DATA, stem)
        labels = ["1", "2", "3", "4"] if stem == "a4" else ["0", "1", "2", "3"]
        items.append(_item("xvalue:%s" % stem, ["xvalue", alg, mod], {}))
        items.append(_item("index:%s" % stem, ["index", alg, mod], {}))
        for k in range(2):
            shifts = ",".join(sorted(rng.sample(labels, k + 1)))
            items.append(_item("xvalue:%s:shift%d" % (stem, k),
                               ["xvalue", alg, mod, "--shifts", shifts],
                               {"times": "xvalue:%s" % stem, "shifts": shifts}))
        items.append(_item("index:%s:shift" % stem,
                           ["index", alg, mod, "--shifts", rng.choice(labels)], {}))
        for e in product(*(range(d + 1) for d in dims)):
            items.append(_item("grass:%s:%s" % (stem, _csv(e)),
                               ["grassmannian", alg, mod, "--dim", _csv(e)], {}))
    an2 = ["%s/an2%s" % (DATA, s) for s in (".alg", "_S1.mod", "_S2.mod",
                                            "_zero.mod", "_M12.mod")]
    items.append(_item("triangle:an2", ["verify-triangle"] + an2,
                       {"identity": True}))

    algebras = {n: _linear_algebra_path(n, work) for n in range(3, 7)}
    # every interval module of A3..A6, the factors of the product checks
    for n in algebras:
        for lo in range(1, n + 1):
            for hi in range(lo, n + 1):
                path = work / ("an%d_I%d_%d.mod" % (n, lo, hi))
                _write_module(path, interval_module(n, [(lo, hi)]))
                items.append(_item("xvalue:an%d:I%d_%d" % (n, lo, hi),
                                   ["xvalue", algebras[n], path], {}))

    for k, dims in enumerate(MODULE_DIMS):
        n = len(dims)
        mod = generate_module(rng, n, random_intervals(rng, dims))
        path = work / ("an%d_M%d.mod" % (n, k))
        _write_module(path, mod)
        factors = ["xvalue:an%d:I%d_%d" % ((n,) + iv) for iv in mod["intervals"]]
        base = "xvalue:an%d:M%d" % (n, k)
        items.append(_item(base, ["xvalue", algebras[n], path],
                           {"product": factors}))
        shifts = ",".join(sorted(rng.sample([str(v) for v in range(1, n + 1)], 2)))
        items.append(_item(base + ":shift", ["xvalue", algebras[n], path,
                                             "--shifts", shifts],
                           {"times": base, "shifts": shifts}))
        items.append(_item("index:an%d:M%d" % (n, k),
                           ["index", algebras[n], path], {}))
        e = tuple(d // 2 for d in dims)
        items.append(_item("grass:an%d:M%d" % (n, k),
                           ["grassmannian", algebras[n], path, "--dim", _csv(e)], {}))

    for n, count in TRIANGLES_PER_N.items():
        pairs = crossing_pairs(n)
        for t, (a, b) in enumerate(rng.sample(pairs, count)):
            first, second = smoothings(n, a, b)
            argv = ["verify-triangle", algebras[n]]
            flags = []
            for role, obj in zip(("l", "m", "b", "bp"),
                                 (arc_object(n, a), arc_object(n, b), first, second)):
                ivs, shifts = obj
                path = work / ("an%d_T%d_%s.mod" % (n, t, role))
                _write_module(path, generate_module(rng, n, ivs))
                argv.append(path)
                if shifts:
                    flags += ["--shifts-%s" % role, ",".join(shifts)]
            items.append(_item("triangle:an%d:%d" % (n, t), argv + flags,
                               {"identity": True}))
    return items


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _linear_algebra_path(n: int, work: Path) -> str:
    if n <= 5:
        return "%s/an%d.alg" % (DATA, n)
    path = work / ("an%d.alg" % n)
    lines = ["[quiver]", "vertices: " + " ".join(str(v) for v in range(1, n + 1))]
    lines += ["arrow: a%d %d %d" % (v, v, v + 1) for v in range(1, n)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


# -- generated modules ---------------------------------------------------------


def random_intervals(rng: random.Random, dims) -> list[tuple[int, int]]:
    """A random decomposition of ``dims`` into the fewest intervals.

    Intervals [lo, hi] are 1-based.  At each vertex d_v - d_{v-1} new
    intervals open and d_v - d_{v+1} randomly chosen open ones close, so
    the summand count, which drives point-counting cost, does not depend
    on the seed.
    """
    out, open_starts, prev = [], [], 0
    padded = list(dims) + [0]
    for v, d in enumerate(dims, start=1):
        open_starts += [v] * max(0, d - prev)
        for _ in range(max(0, d - padded[v])):
            out.append((open_starts.pop(rng.randrange(len(open_starts))), v))
        prev = d
    return sorted(out)


def interval_sum_matrices(n: int, intervals) -> dict[int, list[list[int]]]:
    """Arrow matrices of the direct sum of interval modules over linear A_n.

    Key v is the arrow a_v: v -> v+1, a dims[v+1] x dims[v] matrix; the
    basis at each vertex lists the summands that contain it, in order.
    """
    mats = {}
    for v in range(1, n):
        src = [k for k, (lo, hi) in enumerate(intervals) if lo <= v <= hi]
        dst = [k for k, (lo, hi) in enumerate(intervals) if lo <= v + 1 <= hi]
        mats[v] = [[1 if s == t else 0 for s in src] for t in dst]
    return mats


def unimodular(rng: random.Random, d: int):
    """A random integer matrix with determinant +-1 and its integer inverse."""
    g = [[int(i == j) for j in range(d)] for i in range(d)]
    ginv = [row[:] for row in g]
    for _ in range(2 * d):
        i, j = rng.randrange(d), rng.randrange(d)
        if i == j:
            # negate row i of g; its inverse negates column i of ginv
            g[i] = [-x for x in g[i]]
            for row in ginv:
                row[i] = -row[i]
        else:
            # g <- (I + c e_ij) g and ginv <- ginv (I - c e_ij)
            c = rng.choice((-2, -1, 1, 2))
            g[i] = [x + c * y for x, y in zip(g[i], g[j])]
            for row in ginv:
                row[j] -= c * row[i]
    return g, ginv


def _matmul(a, b, rows: int, cols: int):
    inner = len(b)
    return [[sum(a[r][k] * b[k][c] for k in range(inner)) for c in range(cols)]
            for r in range(rows)]


def interval_module(n: int, intervals) -> dict:
    """The direct sum of interval modules over linear A_n, unconjugated."""
    dims = tuple(sum(lo <= v <= hi for lo, hi in intervals) for v in range(1, n + 1))
    return {"n": n, "intervals": list(intervals), "dims": dims,
            "matrices": interval_sum_matrices(n, intervals)}


def generate_module(rng: random.Random, n: int, intervals) -> dict:
    """A direct sum of interval modules conjugated by unimodular matrices.

    Returns the interval module data plus the per-vertex conjugators
    (g, g^-1) and the conjugated arrow matrices g_{v+1} M(a_v) g_v^-1.
    Unimodular conjugation keeps the module isomorphic to the interval
    sum over Q and over every F_p, so point counts stay polynomial in p.
    """
    mod = interval_module(n, intervals)
    dims = mod["dims"]
    conj = {v: unimodular(rng, dims[v - 1]) for v in range(1, n + 1)}
    mats = {}
    for v, m in mod["matrices"].items():
        rows, cols = dims[v], dims[v - 1]
        inner = _matmul(m, conj[v][1], rows, cols)
        mats[v] = _matmul(conj[v + 1][0], inner, rows, cols)
    return dict(mod, conj=conj, plain=mod["matrices"], matrices=mats)


def _write_module(path: Path, mod: dict) -> None:
    lines = ["[module]", "algebra: an%d.alg" % mod["n"],
             "dims: " + " ".join(map(str, mod["dims"]))]
    for v, m in sorted(mod["matrices"].items()):
        if m and m[0]:
            lines.append("matrix a%d: %s" % (v, m))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- polygon model (for verify-triangle items) ---------------------------------


def arcs(n: int) -> list[tuple[int, int]]:
    last = n + 2
    return [(i, j) for i in range(last) for j in range(i + 2, last + 1)
            if (i, j) != (0, last)]


def crossing_pairs(n: int):
    all_arcs = arcs(n)
    return [(a, b) for k, a in enumerate(all_arcs) for b in all_arcs[k + 1:]
            if a[0] < b[0] < a[1] < b[1] or b[0] < a[0] < b[1] < a[1]]


def arc_object(n: int, arc) -> tuple[list, list]:
    """(intervals, shift labels): arc {i, n+2} is the shift at vertex i,
    arc {i, j} with j <= n+1 the interval module M[i+1, j-1]."""
    i, j = arc
    if j == n + 2:
        return [], [str(i)]
    return [(i + 1, j - 1)], []


def _side(n: int, i: int, j: int):
    lo, hi = min(i, j), max(i, j)
    if hi - lo == 1 or (lo, hi) == (0, n + 2):
        return [], []
    return arc_object(n, (lo, hi))


def smoothings(n: int, a, b):
    """The two middle terms of the crossing (a, b), as (intervals, shifts)."""
    (p, r), (q, s) = sorted((a, b))
    out = []
    for x, y in (((p, q), (r, s)), ((p, s), (q, r))):
        ivs1, sh1 = _side(n, *x)
        ivs2, sh2 = _side(n, *y)
        out.append((sorted(ivs1 + ivs2), sorted(sh1 + sh2)))
    return out[0], out[1]


# -- verify-an ---------------------------------------------------------------


def _verify_an(rng: random.Random, work: Path) -> list[dict]:
    return [_item("verify-an:%d" % n, ["verify-an", "--n", n], {"pass": True})
            for n in VERIFY_AN_RANKS]


# -- enumerate ---------------------------------------------------------------


def mutate_matrix(b, k: int):
    n = len(b)
    return tuple(
        tuple(
            -b[i][j] if k in (i, j)
            else b[i][j] + (abs(b[i][k]) * b[k][j] + b[i][k] * abs(b[k][j])) // 2
            for j in range(n)
        )
        for i in range(n)
    )


def relabel(rng: random.Random, b, sign: int):
    """``sign`` * ``b`` with its vertices permuted at random."""
    perm = list(range(len(b)))
    rng.shuffle(perm)
    return tuple(tuple(sign * b[perm[i]][perm[j]] for j in range(len(b)))
                 for i in range(len(b)))


def _write_matrix(path: Path, b) -> None:
    rows = [" ".join(str(x) for x in row) for row in b]
    path.write_text("%d\n%s\n" % (len(b), "\n".join(rows)), encoding="utf-8")


def _enumerate(rng: random.Random, work: Path) -> list[dict]:
    items = [_item("enumerate:%s" % name, ["enumerate", "%s/%s" % (DATA, name)],
                   {"count": count})
             for name, count in SHIPPED_FINITE]
    # The quivers in a mutation class expand their cluster variables into
    # Laurent polynomials of different sizes, so the mutation sequences are
    # fixed and the seed only relabels the vertices and may reverse every
    # arrow, which leaves the work unchanged.
    shapes = random.Random("enumerate-shapes")
    for k, kind in enumerate(GENERATED_FINITE):
        b, count = FINITE_TYPES[kind]
        for _ in range(shapes.randint(1, 6)):
            b = mutate_matrix(b, shapes.randrange(len(b)))
        path = work / ("%s_%d.mat" % (kind, k))
        _write_matrix(path, relabel(rng, b, rng.choice((1, -1))))
        items.append(_item("enumerate:%s:%d" % (kind, k), ["enumerate", path],
                           {"count": count}))
    return items


def _enumerate_cap(rng: random.Random, work: Path) -> list[dict]:
    items = []
    for kind, (b, caps) in INFINITE_TYPES.items():
        for cap in caps:
            path = work / ("%s_%d.mat" % (kind, cap))
            _write_matrix(path, relabel(rng, b, rng.choice((1, -1))))
            items.append(_item("cap:%s:%d" % (kind, cap),
                               ["enumerate", path, "--max-seeds", cap],
                               {"empty": True, "stderr": CAP_MESSAGE % cap},
                               exit_code=3))
    return items
