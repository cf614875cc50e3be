"""Euler characteristics of quiver Grassmannians.

Tree modules are answered exactly by torus fixed points.  When the
coefficient quiver of M (one node per basis vector, one edge per nonzero
arrow-matrix entry) is a forest whose basis vectors at each vertex carry
pairwise distinct torus weights, a torus acts on Gr_e(M) with the
coordinate subrepresentations as its finitely many fixed points, so
chi(Gr_e(M)) is the number of successor-closed sets of basis vectors of
dimension vector e (Cerulli Irelli, J. Algebraic Combin. 2011; Haupt,
Algebr. Represent. Theory 2012).  `submodule_classes` takes this route
whenever the module qualifies.  Otherwise it splits the module in two by
the Fitting lemma (`modules.fitting_parts`), answers each part the same
way (fixed points, else a further split), and convolves the parts'
tables, since chi is multiplicative on direct sums.

Every other Euler characteristic comes from point counting: of a part
that neither route answers, and of the whole module for the counting
polynomial that `counting_polynomial` prints, as point counts do not
multiply over a split.  Points of
Gr_e(M) over F_p are counted exactly by a backtracking sweep over the
vertices that tries only admissible subspaces: at each vertex, those
containing the images of the subspaces already chosen, found as the
subspaces of a quotient (after Reineke, IMRN 2006, and Caldero-Reineke,
JPAA 2008).  A vertex no later step reads is counted by a Gaussian
binomial instead, and arrows closing an oriented cycle are checked by
membership.  ``DEFAULT_BUDGET``, read when a sweep runs, caps the nodes
it visits.

Counting at enough primes determines the counting polynomial in q: its
coefficients solve a Vandermonde system over Q (`linalg.row_reduce`),
and its value at 1 stands in for the Euler characteristic.  The
substitution is exact whenever the count is polynomial in q; a reserved
verification prime (and an integrality check on the fitted
coefficients) turns any violation of that assumption into an error
instead of a wrong answer.  Each class is fitted at its fibre bound, the
degree the sweep's own choices allow once the arrows' nullities are
taken into account, which is at most the ambient `degree_bound`.  The
primes are the smallest at which every basis path keeps its rank and
no entry has the prime in its denominator (`_good_primes`), so that a
part of a split, in its rational basis, is counted too.
`_fit_classes` runs this sequence for one class and for the whole
dimension box alike; it is the one way into the sweep.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from math import isqrt, lcm

from .errors import InputError, NonPolynomialCountError, ResourceLimitError
from .laurent import render_terms
from .linalg import Matrix, rank, row_reduce
from .modules import DimVector, Representation, fitting_parts, path_matrix

DEFAULT_BUDGET = 500_000


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n (exact integer)."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


@lru_cache(maxsize=None)
def _subspaces(d: int, e: int, p: int) -> tuple:
    """All e-dimensional subspaces of F_p^d, one RREF row basis each.

    Returns tuples (rows, pivots); rows are the reduced-echelon basis and
    double as elimination data for fast membership tests.
    """
    out = []
    for pivots in combinations(range(d), e):
        pivot_set = set(pivots)
        free = [
            (k, j)
            for k in range(e)
            for j in range(pivots[k] + 1, d)
            if j not in pivot_set
        ]
        for assignment in product(range(p), repeat=len(free)):
            rows = [[0] * d for _ in range(e)]
            for k in range(e):
                rows[k][pivots[k]] = 1
            for (k, j), val in zip(free, assignment):
                rows[k][j] = val
            out.append((tuple(tuple(r) for r in rows), pivots))
    return tuple(out)


def _reduce(v, rows, pivots, p: int):
    """v with the pivot column of each echelon row cleared in turn, mod p."""
    for row, c in zip(rows, pivots):
        f = v[c]
        if f:
            v = [(x - f * y) % p for x, y in zip(v, row)]
    return v


def _apply(mat_rows, vec, p: int) -> tuple:
    return tuple(sum(a * b for a, b in zip(row, vec)) % p for row in mat_rows)


def _echelon(vectors, p: int) -> tuple:
    """Reduced-row-echelon basis (rows, pivots) of the span of the vectors."""
    rows: list[list[int]] = []
    pivots: list[int] = []
    for vec in vectors:
        v = _reduce(vec, rows, pivots, p)
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is None:
            continue
        inv = pow(v[lead], -1, p)
        v = [x * inv % p for x in v]
        rows = [_reduce(row, (v,), (lead,), p) for row in rows]
        rows.append(v)
        pivots.append(lead)
    basis = sorted(zip(pivots, rows))
    return tuple(tuple(r) for _, r in basis), tuple(c for c, _ in basis)


def _containing(w, d: int, k: int, p: int):
    """The k-dimensional subspaces of F_p^d that contain w, one reduced
    echelon basis each.

    They are the (k - dim w)-dimensional subspaces of the quotient by w,
    whose coordinates are the non-pivot columns of w, lifted back and
    joined to w's rows.  Clearing w's rows at the lifted pivots makes
    each basis the subspace's reduced echelon form, so that a subspace
    reached through different w is the same sweep memo key.
    """
    w_rows, w_pivots = w
    if not w_pivots:
        return _subspaces(d, k, p)
    free = [c for c in range(d) if c not in w_pivots]
    out = []
    for q_rows, q_pivots in _subspaces(len(free), k - len(w_pivots), p):
        lifted = []
        for r in q_rows:
            v = [0] * d
            for c, x in zip(free, r):
                v[c] = x
            lifted.append(v)
        pivots = [free[c] for c in q_pivots]
        cleared = [_reduce(r, lifted, pivots, p) for r in w_rows]
        basis = sorted(zip(w_pivots + tuple(pivots), cleared + lifted))
        out.append((tuple(tuple(r) for _, r in basis), tuple(c for c, _ in basis)))
    return out


def _reduced_rows(mat: Matrix, p: int) -> tuple:
    """The rows of a matrix over Q reduced mod p, a/b as a * b^-1 (p must
    not divide b: `_good_primes` skips such primes)."""
    return tuple(
        tuple(
            x % p if type(x) is int else x.numerator * pow(x.denominator, -1, p) % p
            for x in mat.row(r)
        )
        for r in range(mat.rows)
    )


def _sweep_plan(m: Representation, p: int):
    """Arrow matrices reduced mod p, arranged for a sweep in vertex order.

    An arrow s -> t with s < t feeds t: U_t must contain its image of U_s.
    Every other arrow (a loop, or one back to an earlier vertex) is
    checked by membership once its source s is set.  A vertex all of
    whose arrows feed it from earlier vertices is read by no later step,
    so the sweep weights it by a Gaussian binomial instead of enumerating.
    """
    q = m.algebra.quiver
    feeds: list[list[tuple[int, tuple]]] = [[] for _ in range(q.n)]
    checks: list[list[tuple[int, int, tuple]]] = [[] for _ in range(q.n)]
    weighted = [True] * q.n
    for a in q.arrows:
        rows = _reduced_rows(m.matrices[a.name], p)
        s, t = a.source, a.target
        weighted[s] = False
        if s < t:
            feeds[t].append((s, rows))
        else:
            checks[s].append((s, t, rows))
            weighted[t] = False
    return feeds, checks, weighted


def _closed_under(arrow, chosen, p: int) -> bool:
    i, j, rows = arrow
    ui, uj = chosen[i], chosen[j]
    for vec in ui[0]:
        if any(_reduce(_apply(rows, vec, p), uj[0], uj[1], p)):
            return False
    return True


def _over_budget() -> ResourceLimitError:
    return ResourceLimitError(
        "point-count budget exceeded (over %d nodes visited)" % DEFAULT_BUDGET
    )


def _count_backtrack(m: Representation, allowed, p: int) -> dict:
    """Points of Gr_e(m) for every e with e[v] in ``allowed[v]``, keyed by e.

    The sweep sets the vertices in order.  At v the images of the
    subspaces already chosen under the arrows feeding v span W, and only
    subspaces containing W are tried (or, at a weighted vertex, counted
    in closed form), so no feeding arrow is ever checked; the remaining
    arrows are checked by membership.  The options at v depend only on
    the subspaces at the vertices feeding it and are built once per
    sweep for each such choice.  ``DEFAULT_BUDGET`` caps the nodes
    visited: one per subspace tried and one per closed-form weight.
    """
    n = len(m.dims)
    feeds, checks, weighted = _sweep_plan(m, p)
    counts: dict[DimVector, int] = {}
    chosen: list = [None] * n
    key = [0] * n
    memo: dict = {}
    nodes = 0

    def options(v: int) -> list:
        sources = (v,) + tuple(chosen[s] for s, _ in feeds[v])
        found = memo.get(sources)
        if found is None:
            d = m.dims[v]
            w = _echelon(
                (_apply(rows, vec, p) for s, rows in feeds[v] for vec in chosen[s][0]),
                p,
            )
            r = len(w[1])
            sizes = [(k, gaussian_binomial(d - r, k - r, p)) for k in allowed[v] if k >= r]
            if weighted[v]:
                found = sizes
            else:
                if nodes + sum(size for _, size in sizes) > DEFAULT_BUDGET:
                    raise _over_budget()
                found = [(k, sub) for k, _ in sizes for sub in _containing(w, d, k, p)]
            memo[sources] = found
        return found

    def rec(v: int, weight: int) -> None:
        nonlocal nodes
        if v == n:
            e = tuple(key)
            counts[e] = counts.get(e, 0) + weight
            return
        found = options(v)
        nodes += len(found)
        if nodes > DEFAULT_BUDGET:
            raise _over_budget()
        for k, choice in found:
            key[v] = k
            if weighted[v]:
                rec(v + 1, weight * choice)
                continue
            chosen[v] = choice
            if all(_closed_under(arrow, chosen, p) for arrow in checks[v]):
                rec(v + 1, weight)
        chosen[v] = None

    rec(0, 1)
    return counts


def _check_dim_vector(m: Representation, e: DimVector) -> DimVector:
    e = tuple(e)
    if any(type(x) is not int for x in e):
        raise InputError("dimension vector entries must be integers")
    if len(e) != len(m.dims):
        raise InputError("dimension vector has wrong length")
    if any(x < 0 or x > d for x, d in zip(e, m.dims)):
        raise InputError("submodule dimension vector out of range")
    return e


class CountingPolynomial:
    """Integer polynomial in q interpolating the point counts.  Not a
    tuple, so that ``"%s" % poly`` renders the polynomial."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        self.coeffs = coeffs  # ascending degree, no trailing zeros

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    def __repr__(self) -> str:
        return "CountingPolynomial(coeffs=%r)" % (self.coeffs,)

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        return render_terms(
            (self.coeffs[k], "" if k == 0 else "q" if k == 1 else "q^%d" % k)
            for k in range(len(self.coeffs) - 1, -1, -1)
        )


def _fit_and_verify(xs, columns, degree: int):
    """Fit each column of counts at the points xs by a polynomial of the
    given degree, yielding the polynomials column by column.

    One elimination of [x^0 ... x^degree | y_1 ... y_k] through the first
    degree+1 points fits every column; the ascending coefficients of
    column j are the reduced system's column degree+1+j.  Each column is
    checked when its polynomial is asked for: its coefficients must be
    integers, and it must match the counts at the remaining points (at
    least one: `_fit_classes` takes the largest fibre bound + 2 primes).
    So a caller reading columns in order meets the first failure first.
    """
    rows, _ = row_reduce(
        [[x**k for k in range(degree + 1)] + [ys[i] for ys in columns]
         for i, x in enumerate(xs[: degree + 1])],
        degree + 1,
    )
    for j, ys in enumerate(columns):
        coeffs = [row[degree + 1 + j] for row in rows]
        for c in coeffs:
            if type(c) is not int:
                raise NonPolynomialCountError(
                    "interpolated count has non-integer coefficient %s" % c
                )
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        poly = CountingPolynomial(tuple(coeffs))
        for x, y in zip(xs[degree + 1 :], ys[degree + 1 :]):
            if poly.evaluate(x) != y:
                raise NonPolynomialCountError(
                    "count at verification prime %d is %d, fit predicts %d"
                    % (x, y, poly.evaluate(x))
                )
        yield poly


def _ranked_paths(m: Representation) -> list[tuple]:
    """(path, its matrix on m, that matrix's rank over Q) per basis path of positive length."""
    paths = [p for row in m.algebra.paths_from for ps in row for p in ps if p.arrows]
    mats = [path_matrix(m, path) for path in paths]
    return [(path, mat, rank(mat)) for path, mat in zip(paths, mats)]


def _good_primes(ranked: list[tuple], needed: int) -> tuple:
    """The ``needed`` smallest primes at which the matrix of every basis
    path, as `_ranked_paths` gives it, keeps its rank.

    Counting at p counts the reduction of m mod p.  Where a path matrix
    has a smaller rank mod p than over Q, that reduction is another
    module, and the counts of two such primes can fit and verify a wrong
    polynomial (a4's arrow d acting as 6 counts as the split module at 2
    and at 3).  Arrows are not enough: a composite path can lose rank
    mod p while each of its arrows keeps it (b.a acting as 2 over linear
    A3 with a = [[1], [1]] and b = [[1, 1]]).  Such a prime is skipped;
    each divides a nonzero minor, so there are finitely many.  So is a
    prime dividing the denominator of an entry, where the matrix has no
    reduction.
    """
    denominators = lcm(*(x.denominator for _, mat, _ in ranked for x in mat.entries))
    good: list[int] = []
    p = 1
    while len(good) < needed:
        p += 1
        if _is_prime(p) and denominators % p and all(
            len(_echelon(_reduced_rows(mat, p), p)[1]) == r for _, mat, r in ranked
        ):
            good.append(p)
    return tuple(good)


def degree_bound(m: Representation, e: DimVector) -> int:
    """The dimension of the product of the ordinary Grassmannians Gr(e_v,
    d_v): the ambient bound that `grassmannian` prints.  The fit itself
    uses the sharper fibre bound of `_fit_classes`."""
    return sum(x * (d - x) for x, d in zip(e, m.dims))


def _fit_classes(m: Representation, allowed) -> dict:
    """Counting polynomials of Gr_e(m), by e, for the classes e with e[v]
    in ``allowed[v]`` that have a point at some prime.

    The sweep tries at v only subspaces containing the image W_v of the
    subspaces already chosen, and an arrow a: s -> v with s < v maps an
    e_s-dimensional U_s onto at least e_s - nullity(a) dimensions, so
    dim W_v >= r_v, the largest such difference (at least 0).  The
    e_v-dimensional subspaces containing W_v number at most a constant
    times p^((e_v - r_v)(d_v - e_v)), and the checks only remove points,
    so a polynomial count has degree at most the fibre bound T(e), the
    sum of those exponents (at most `degree_bound`).  The nullities are
    taken over Q, from the ranks `_good_primes` reads: every arrow is a
    basis path, whose rank a good prime keeps.  The primes suffice for
    the largest T(e) among the classes asked about.  Each class that
    occurs at some prime is fitted at its own T(e), counting 0 at the
    primes where it has no point; the classes sharing a T(e) share one
    elimination, and they are checked in sorted order.
    """
    arrows = m.algebra.quiver.arrows
    ranked = _ranked_paths(m)
    feeds = [
        (p.source, arrows[p.arrows[0]].target, m.dims[p.source] - r)
        for p, _, r in ranked
        if len(p.arrows) == 1 and p.source < arrows[p.arrows[0]].target
    ]

    def fibre_bound(e) -> int:
        r = [0] * len(e)
        for s, t, nullity in feeds:
            r[t] = max(r[t], e[s] - nullity)
        return sum(max(0, x - w) * (d - x) for x, w, d in zip(e, r, m.dims))

    ps = _good_primes(ranked, max(map(fibre_bound, product(*allowed))) + 2)
    tables = [_count_backtrack(m, allowed, p) for p in ps]
    classes = sorted(set().union(*tables))
    groups: dict[int, list] = {}
    for e in classes:
        groups.setdefault(fibre_bound(e), []).append([t.get(e, 0) for t in tables])
    fits = {bound: _fit_and_verify(ps, columns, bound) for bound, columns in groups.items()}
    return {e: next(fits[fibre_bound(e)]) for e in classes}


def counting_polynomial(m: Representation, e: DimVector) -> CountingPolynomial:
    """Fit the point counts of Gr_e(m); raises when the fit fails to verify."""
    e = _check_dim_vector(m, e)
    fits = _fit_classes(m, [(x,) for x in e])
    return fits.get(e, CountingPolynomial(()))


def euler_char(m: Representation, e: DimVector) -> int:
    """Euler characteristic of Gr_e(m) (counting polynomial at q = 1)."""
    return counting_polynomial(m, e).evaluate(1)


def _convolve(a: dict, b: dict) -> dict:
    """The product of two tables from encoded dimension vector to count."""
    out: dict = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return out


def _fixed_point_classes(m: Representation):
    """Sorted (e, chi(Gr_e(m))) with chi nonzero, counted as torus fixed
    points, or None when m does not qualify.

    The coefficient quiver has one node per basis vector and an edge
    from basis vector c at a to basis vector r at b for each nonzero
    entry (r, c) of an arrow a -> b.  It must be a forest, no node reached
    twice from its tree's root.  The root of a tree carries the weight of
    its tree, and an edge of arrow k adds e_k, so a node's weight is
    (tree, arrow vector); the nodes at each vertex must have pairwise
    distinct weights.  Then the fixed points of Gr_e(m) are the sets of
    basis vectors closed under the edges, counted here leaves up: each
    node keeps the sets of its subtree that contain it and those that do
    not, as tables from dimension vector to count, and a dimension vector
    is one integer in mixed radix (the entry at v times the product of
    dims[u] + 1 over u < v), so adding vectors adds integers.
    """
    q = m.algebra.quiver
    vertex = [v for v, d in enumerate(m.dims) for _ in range(d)]
    offsets = [0]
    for d in m.dims:
        offsets.append(offsets[-1] + d)
    strides = _strides(m.dims)
    size = len(vertex)
    adjacent: list[list[tuple[int, int, int, int]]] = [[] for _ in range(size)]
    edges = 0
    for k, a in enumerate(q.arrows):
        mat = m.matrices[a.name]
        for pos, x in enumerate(mat.entries):
            if x:
                r, c = divmod(pos, mat.cols)
                u, w = offsets[a.source] + c, offsets[a.target] + r
                adjacent[u].append((edges, w, k, 1))
                adjacent[w].append((edges, u, k, -1))
                edges += 1

    weight: list = [None] * size
    via = [-1] * size
    parent: list = [None] * size  # (parent, whether the edge runs parent -> node)
    order = []
    for root in range(size):
        if weight[root] is not None:
            continue
        weight[root] = (root, (0,) * len(q.arrows))
        stack = [root]
        while stack:
            u = stack.pop()
            order.append(u)
            for eid, w, k, sign in adjacent[u]:
                if eid == via[u]:
                    continue
                if weight[w] is not None:
                    return None  # a second way to w: not a forest
                arrows = list(weight[u][1])
                arrows[k] += sign
                weight[w] = (root, tuple(arrows))
                via[w] = eid
                parent[w] = (u, sign == 1)
                stack.append(w)
    if len(set(zip(vertex, weight))) < size:
        return None

    inside = [{strides[v]: 1} for v in vertex]
    outside = [{0: 1} for _ in range(size)]
    total = {0: 1}
    for x in reversed(order):
        either = dict(outside[x])
        for code, count in inside[x].items():
            either[code] = either.get(code, 0) + count
        if parent[x] is None:
            total = _convolve(total, either)
            continue
        p, forced = parent[x]
        if forced:  # p in the set forces x in
            inside[p] = _convolve(inside[p], inside[x])
            outside[p] = _convolve(outside[p], either)
        else:  # x in the set forces p in
            inside[p] = _convolve(inside[p], either)
            outside[p] = _convolve(outside[p], outside[x])
    return _decoded(total, m.dims)


def _strides(dims) -> list[int]:
    """The mixed radix that encodes a dimension vector e <= dims as one
    integer: entry v weighs the product of dims[u] + 1 over u < v."""
    strides = [1]
    for d in dims[:-1]:
        strides.append(strides[-1] * (d + 1))
    return strides


def _decoded(table: dict, dims) -> list[tuple[DimVector, int]]:
    """Sorted (e, chi) with chi nonzero from a table keyed by encoded e."""
    strides = _strides(dims)
    return sorted(
        (tuple(code // s % (d + 1) for s, d in zip(strides, dims)), chi)
        for code, chi in table.items()
        if chi
    )


def submodule_classes(m: Representation) -> list[tuple[DimVector, int]]:
    """All e with nonzero Euler characteristic, with those characteristics.

    A module that qualifies for the fixed-point route
    (`_fixed_point_classes`) is answered exactly, with no prime.  Any
    other is split once by the Fitting lemma (`modules.fitting_parts`),
    and each part is answered the same way, fixed points first, so a
    part the fixed points answer is not split again.  The parts' tables
    convolve: chi(Gr_e(L + M)) = sum_f chi(Gr_f L) chi(Gr_(e-f) M), as a
    torus scaling M acts on Gr_e(L + M) with the pairs of
    subrepresentations as its fixed points.  Only a module that neither
    route answers and that does not split is point-counted
    (`_counted_classes`).
    """
    classes = _fixed_point_classes(m)
    if classes is not None:
        return classes
    parts = fitting_parts(m)
    if parts is None:
        return _counted_classes(m)
    strides = _strides(m.dims)
    total = {0: 1}
    for part in parts:
        total = _convolve(
            total,
            {sum(x * w for x, w in zip(e, strides)): chi for e, chi in submodule_classes(part)},
        )
    return _decoded(total, m.dims)


def _counted_classes(m: Representation) -> list[tuple[DimVector, int]]:
    """`submodule_classes` by point counting: one backtracking sweep per
    prime counts every Gr_e(m) simultaneously, and each class that
    occurs is fitted on its own."""
    box = [range(d + 1) for d in m.dims]
    fits = _fit_classes(m, box)
    return [(e, chi) for e, poly in fits.items() if (chi := poly.evaluate(1))]
