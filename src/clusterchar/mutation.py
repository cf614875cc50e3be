"""Seed mutation and finite-type cluster-variable enumeration.

This is the oracle side of the artifact: Laurent polynomials produced by
matrix/seed mutation, entirely independent of the character pipeline.
`mutate_seed` carries the cluster variables themselves and computes each
new one from the exchange relation by exact Laurent division.  The
enumerator tracks integer data instead, the principal-coefficient matrix
[B; C] and the g-vectors of a seed, and divides only the first time a
g-vector appears, once per cluster variable rather than once per edge of
the exchange graph; it checks at run time the theorems that make this
sound.  An inexact division can only mean an arithmetic bug (the Laurent
phenomenon guarantees exactness) and raises immediately.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from itertools import compress
from operator import add, itemgetter, neg

from . import laurent
from .errors import ConsistencyError, InputError, NotFiniteTypeError
from .laurent import LaurentPoly, laurent_divexact
from .quiver import Quiver

ExchangeMatrix = tuple[tuple[int, ...], ...]

DEFAULT_SEED_CAP = 500_000
_INTEGER = re.compile(r"-?[0-9]+")


def check_exchange_matrix(b: ExchangeMatrix) -> ExchangeMatrix:
    b = tuple(tuple(int(x) for x in row) for row in b)
    n = len(b)
    for row in b:
        if len(row) != n:
            raise InputError("exchange matrix is not square")
    for i in range(n):
        for j in range(n):
            if b[i][j] != -b[j][i]:
                raise InputError("exchange matrix is not skew-symmetric")
    return b


def mutate_matrix(b: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Matrix mutation in direction k (0-based).

    ``b`` is m x n with m >= n: an exchange matrix, or one extended by
    coefficient rows, which mutate by the same rule.  A row with
    b_ik = 0 is unchanged and is returned as the same tuple.
    """
    n = len(b[0]) if b else 0
    if not 0 <= k < n:
        raise InputError("mutation index %d out of range" % k)
    row_k = b[k]
    # [b_kj]_+ and [-b_kj]_+, with -2 at k: adding b_ik times either
    # turns b_ik into -b_ik
    plus = [x if x > 0 else 0 for x in row_k]
    minus = [-x if x < 0 else 0 for x in row_k]
    plus[k] = minus[k] = -2
    steps = {}
    out = list(b)
    out[k] = tuple(map(neg, row_k))
    column = list(map(itemgetter(k), b))
    column[k] = 0
    for i in compress(range(len(b)), column):
        # b_ij + sign(b_ik) [b_ik b_kj]_+
        bik = column[i]
        step = steps.get(bik)
        if step is None:
            step = steps[bik] = [bik * y for y in (plus if bik > 0 else minus)]
        out[i] = tuple(map(add, b[i], step))
    return tuple(out)


@dataclass(frozen=True)
class Seed:
    """An exchange matrix with its tuple of cluster variables."""

    matrix: ExchangeMatrix
    variables: tuple[LaurentPoly, ...]

    def __post_init__(self):
        if len(self.variables) != len(self.matrix):
            raise InputError("seed has %d variables for a %dx%d matrix"
                             % (len(self.variables), len(self.matrix), len(self.matrix)))


def initial_seed(b: ExchangeMatrix) -> Seed:
    b = check_exchange_matrix(b)
    n = len(b)
    return Seed(b, tuple(laurent.variable(n, i) for i in range(n)))


def _exchange(b: ExchangeMatrix, xs, k: int) -> LaurentPoly:
    """x_k' = (prod x_i^[b_ik]+ + prod x_i^[-b_ik]+) / x_k, by exact division.

    ``xs`` is the cluster; rows of ``b`` past ``len(xs)`` are not read.
    """
    plus = minus = laurent.one(len(xs))
    for x, row in zip(xs, b):
        bik = row[k]
        if bik > 0:
            plus = plus * x ** bik
        elif bik < 0:
            minus = minus * x ** -bik
    return laurent_divexact(plus + minus, xs[k])


def mutate_seed(s: Seed, k: int) -> Seed:
    """Seed mutation in direction k (0-based)."""
    n = len(s.matrix)
    if not 0 <= k < n:
        raise InputError("mutation index %d out of range" % k)
    new_var = _exchange(s.matrix, s.variables, k)
    variables = s.variables[:k] + (new_var,) + s.variables[k + 1:]
    return Seed(mutate_matrix(s.matrix, k), variables)


def enumerate_cluster_variables(
    b: ExchangeMatrix, seed_cap: int = DEFAULT_SEED_CAP
) -> frozenset[LaurentPoly]:
    """Breadth-first closure of the initial seed under all mutations.

    A seed is its principal-coefficient extended matrix [B; C] (2n x n,
    C = I at the start) with the g-vectors of its cluster variables, and
    a cluster is keyed by the set of its g-vectors: distinct cluster
    variables have distinct g-vectors (Derksen, Weyman and Zelevinsky,
    "Quivers with potentials and their representations II", JAMS 2010).
    Mutation in direction k updates [B; C] by `mutate_matrix` and g-vector
    k by the recurrence of Fomin and Zelevinsky ("Cluster algebras IV",
    Compositio 2007, section 6), all in integers.  A variable's Laurent
    polynomial comes from the exchange relation, by exact division, the
    first time its g-vector appears: one division per cluster variable.

    What the theorems promise is checked, and a violation raises
    ``ConsistencyError``: each c-vector mutated along is sign-coherent;
    the g-vectors of each new cluster are distinct and a Z-basis
    (|det| = 1); a revisited cluster's [B; C] is the stored one with its
    vertices relabelled (a cluster determines its seed: Gekhtman, Shapiro
    and Vainshtein, Math. Res. Lett. 2008).  An inexact division raises
    ``LaurentDivisionError``.

    ``seed_cap`` bounds the seeds visited, the initial seed plus every
    mutation result, revisits included; once more than ``seed_cap`` are
    visited, ``NotFiniteTypeError`` is raised.  Mutating a seed back along
    the direction it was reached by returns its parent (mutation is an
    involution), so that seed is counted as visited but not computed or
    checked: a finite type with C clusters of rank n visits n C + 1 seeds.
    """
    if seed_cap < 1:
        raise InputError("seed cap must be at least 1, got %d" % seed_cap)
    b = check_exchange_matrix(b)
    n = len(b)
    if n == 0:
        return frozenset()
    unit = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    variables = {g: laurent.variable(n, i) for i, g in enumerate(unit)}
    clusters = {frozenset(unit): _relabelled(unit, b + unit)}
    # each queued seed carries the direction it was reached along
    queue = deque([(unit, b + unit, None)])
    visited = 1
    while queue:
        gs, m, back = queue.popleft()
        for k in range(n):
            visited += 1
            if visited > seed_cap:
                raise NotFiniteTypeError(
                    "not finite within cap: more than %d seeds" % seed_cap
                )
            if k == back:
                continue  # mutation is an involution: this is the parent seed
            g = _g_vector(gs, m, k)
            new_gs = gs[:k] + (g,) + gs[k + 1:]
            new_m = mutate_matrix(m, k)
            cluster = frozenset(new_gs)
            known = clusters.get(cluster)
            relabelled = _relabelled(new_gs, new_m)
            if known is None:
                if len(cluster) < n:
                    raise ConsistencyError("a cluster repeats a g-vector")
                if _abs_determinant(new_gs) != 1:
                    raise ConsistencyError("the g-vectors of a cluster are not a Z-basis")
                if g not in variables:
                    variables[g] = _exchange(m, [variables[h] for h in gs], k)
                clusters[cluster] = relabelled
                queue.append((new_gs, new_m, k))
            elif known != relabelled:
                raise ConsistencyError(
                    "one cluster carries exchange matrices that are not relabellings"
                )
    return frozenset(variables.values())


def _g_vector(gs, m: ExchangeMatrix, k: int) -> tuple[int, ...]:
    """The g-vector that replaces ``gs[k]`` on mutation in direction k.

    ``m`` is the seed's [B; C].  With e the sign of c-vector k (column k
    of C), g_k' = -g_k + sum_i [-e b_ik]_+ g_i; the recurrence's last
    term, -sum_j [-e c_jk]_+ b0_j, vanishes because c-vector k is
    sign-coherent, which is checked here: a c-vector with entries of both
    signs, or none nonzero, raises ``ConsistencyError``.
    """
    n = len(gs)
    c = list(map(itemgetter(k), m[n:]))
    lo, hi = min(c), max(c)
    if lo >= 0 < hi:
        e = 1
    elif hi <= 0 > lo:
        e = -1
    else:
        raise ConsistencyError("c-vector %s is not sign-coherent" % (tuple(c),))
    out = [-x for x in gs[k]]
    for gi, row in zip(gs, m):
        a = -e * row[k]
        if a > 0:
            out = [x + a * y for x, y in zip(out, gi)]
    return tuple(out)


def _relabelled(gs, m: ExchangeMatrix) -> ExchangeMatrix:
    """[B; C] with its vertices put in the order of their g-vectors.

    Two seeds of one cluster are relabellings of each other exactly when
    these agree.
    """
    n = len(gs)
    order = sorted(range(n), key=gs.__getitem__)
    pick = itemgetter(*order)
    return tuple(map(pick, map(m.__getitem__, order))) + tuple(map(pick, m[n:]))


def _abs_determinant(rows) -> int:
    """|det| of a square integer matrix (Bareiss elimination)."""
    a = [list(r) for r in rows]
    n = len(a)
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
        pivot, row_k = a[k][k], a[k]
        for row in a[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - f * row_k[j]) // prev
        prev = pivot
    return abs(a[n - 1][n - 1])


def quiver_to_matrix(q: Quiver) -> ExchangeMatrix:
    """b_ij = (arrows i -> j) - (arrows j -> i); loops are rejected."""
    n = q.n
    counts = [[0] * n for _ in range(n)]
    for a in q.arrows:
        if a.source == a.target:
            raise InputError("quiver has a loop at %r" % q.vertices[a.source])
        counts[a.source][a.target] += 1
    b = tuple(
        tuple(counts[i][j] - counts[j][i] for j in range(n)) for i in range(n)
    )
    return check_exchange_matrix(b)


def load_matrix(text: str) -> ExchangeMatrix:
    """Matrix file: n, then n whitespace-separated integer rows.  Every
    integer, the size included, is an optional ``-`` then ASCII digits."""
    tokens = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            tokens.append(line.split())
    if not tokens:
        raise InputError("empty matrix file")
    head = tokens[0]
    if len(head) != 1 or not _INTEGER.fullmatch(head[0]):
        raise InputError("matrix file must start with the size n")
    n = int(head[0])
    if n < 1:
        raise InputError("matrix size must be at least 1")
    rows = tokens[1:]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise InputError("expected %d rows of %d integers" % (n, n))
    if not all(_INTEGER.fullmatch(x) for row in rows for x in row):
        raise InputError("non-integer matrix entry")
    return check_exchange_matrix(tuple(tuple(map(int, row)) for row in rows))


def load_matrix_file(path) -> ExchangeMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return load_matrix(fh.read())
