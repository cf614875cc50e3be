"""Seed mutation and finite-type cluster-variable enumeration.

This is the oracle side of the artifact: Laurent polynomials produced by
matrix/seed mutation, entirely independent of the character pipeline.
`mutate_seed` carries the cluster variables themselves and computes each
new one from the exchange relation by exact Laurent division.  The
enumerator tracks integer data instead, the g-vectors of a seed, which
fix its principal-coefficient matrix [B; C] by tropical duality.  It
searches the exchange graph on this integer data alone, mutating [B; C]
once per cluster and checking at run time the theorems that make this
sound, and records how each new g-vector was first reached.  Only once
the search closes within its cap does it compute the Laurent
polynomials, one exact division per cluster variable rather than one per
edge of the exchange graph; a capped run divides nothing.  An initial
seed that a theorem places outside finite type (an entry |b_ij| >= 2, or
an acyclic quiver that is not Dynkin) is refused before any search.  An
inexact division can only mean an arithmetic bug (the Laurent phenomenon
guarantees exactness) and raises immediately.
"""

from __future__ import annotations

from collections import deque, namedtuple
from operator import itemgetter, mul

from . import laurent
from .errors import ConsistencyError, InputError, NotFiniteTypeError
from .laurent import LaurentPoly, laurent_divexact
from .quiver import Quiver, _content_lines, ascii_int

ExchangeMatrix = tuple[tuple[int, ...], ...]

DEFAULT_SEED_CAP = 500_000


def check_exchange_matrix(b: ExchangeMatrix) -> ExchangeMatrix:
    b = tuple(map(tuple, b))
    if any(type(x) is not int for row in b for x in row):
        raise InputError("exchange matrix entries must be integers")
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
    out = []
    for i, row in enumerate(b):
        bik = row[k]
        if i == k:
            out.append(tuple(-x for x in row))
        elif not bik:
            out.append(row)
        else:
            # b_ij + sgn(b_ik) [b_ik b_kj]_+, which is b_ij + |b_ik| b_kj
            # when b_ik b_kj > 0; and -b_ik at j = k, where b_kk = 0
            size = abs(bik)
            new = [x + size * y if bik * y > 0 else x for x, y in zip(row, row_k)]
            new[k] = -bik
            out.append(tuple(new))
    return tuple(out)


class Seed(namedtuple("Seed", "matrix variables")):
    """An exchange matrix with its tuple of cluster variables."""

    __slots__ = ()

    def __new__(cls, matrix: ExchangeMatrix, variables: tuple[LaurentPoly, ...]):
        if len(variables) != len(matrix):
            raise InputError("seed has %d variables for a %dx%d matrix"
                             % (len(variables), len(matrix), len(matrix)))
        return super().__new__(cls, matrix, variables)


def initial_seed(b: ExchangeMatrix) -> Seed:
    b = check_exchange_matrix(b)
    n = len(b)
    return Seed(b, tuple(laurent.variable(n, i) for i in range(n)))


def _exchange(bk, xs, k: int) -> LaurentPoly:
    """x_k' = (prod x_i^[b_ik]+ + prod x_i^[-b_ik]+) / x_k, by exact division.

    ``bk`` is column k of the exchange matrix, ``xs`` the cluster.
    """
    plus = minus = laurent.one(len(xs))
    for x, bik in zip(xs, bk):
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
    new_var = _exchange(list(map(itemgetter(k), s.matrix)), s.variables, k)
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
    g-vector k mutates by the recurrence of Fomin and Zelevinsky
    ("Cluster algebras IV", Compositio 2007, section 6), and the g-vectors
    fix the rest of the seed by tropical duality, G^T C = I and
    G B = B0 C (Nakanishi and Zelevinsky, "On tropical dualities in
    cluster algebras", Contemp. Math. 565, 2012; G has the g-vectors as
    columns, C the c-vectors).  So an edge into a known cluster costs one
    g-vector and a set lookup, and only a new cluster runs
    `mutate_matrix`.  The first edge that reaches a g-vector records it
    with the parent's g-vectors and column k of the parent's B, and only
    once the search closes within the cap are the Laurent polynomials
    computed from these records, in the order they were made (every
    variable a record reads was recorded before it), each by exact
    division in the exchange relation: one division per cluster variable
    outside the initial cluster, and none at all in a capped run.

    What the theorems promise is checked, and a violation raises
    ``ConsistencyError``: each c-vector mutated along is sign-coherent,
    and each new seed satisfies G^T C = I in full (so its g-vectors are
    distinct and a Z-basis) and column k of G B = B0 C, k the direction
    it was reached along.  An inexact division raises
    ``LaurentDivisionError``; as no division runs before the search
    closes, a run that exceeds the cap raises ``NotFiniteTypeError``
    even where a later division would have failed.

    ``seed_cap`` bounds the seeds visited, the initial seed plus every
    mutation result, revisits included; once more than ``seed_cap`` are
    visited, ``NotFiniteTypeError`` is raised.  Mutating a seed back along
    the direction it was reached by returns its parent (mutation is an
    involution), so that seed is counted as visited but not computed or
    checked: a finite type with C clusters of rank n visits n C + 1 seeds.

    Where ``b`` itself rules out finite type (`_infinite_type`: some
    |b_ij| >= 2, or b acyclic and 2I - |b| not positive definite), the
    same ``NotFiniteTypeError`` is raised at once, before any g-vector
    step, whatever the cap: an infinite type has more seeds than any cap.
    An infinite type whose initial seed is cyclic with every |b_ij| <= 1
    still runs to the cap.
    """
    if seed_cap < 1:
        raise InputError("seed cap must be at least 1, got %d" % seed_cap)
    b = check_exchange_matrix(b)
    n = len(b)
    if n == 0:
        return frozenset()
    if _infinite_type(b):
        raise _cap_exceeded(seed_cap)
    unit = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    variables = {g: laurent.variable(n, i) for i, g in enumerate(unit)}
    # new g-vector -> (parent g-vectors, k, column k of the parent's B)
    recipes = {}
    clusters = {frozenset(unit)}
    # each queued seed carries the direction it was reached along
    queue = deque([(unit, b + unit, None)])
    visited = 1
    while queue:
        gs, m, back = queue.popleft()
        for k in range(n):
            visited += 1
            if visited > seed_cap:
                raise _cap_exceeded(seed_cap)
            if k == back:
                continue  # mutation is an involution: this is the parent seed
            g = _g_vector(gs, m, k)
            new_gs = gs[:k] + (g,) + gs[k + 1:]
            cluster = frozenset(new_gs)
            if cluster in clusters:
                continue  # its g-vectors fix the seed: nothing new here
            new_m = mutate_matrix(m, k)
            _check_duality(b, new_gs, new_m, k)
            if g not in variables and g not in recipes:
                recipes[g] = (gs, k, tuple(map(itemgetter(k), m[:n])))
            clusters.add(cluster)
            queue.append((new_gs, new_m, k))
    for g, (gs, k, bk) in recipes.items():
        variables[g] = _exchange(bk, [variables[h] for h in gs], k)
    return frozenset(variables.values())


def _cap_exceeded(seed_cap: int) -> NotFiniteTypeError:
    return NotFiniteTypeError("not finite within cap: more than %d seeds" % seed_cap)


def _infinite_type(b: ExchangeMatrix) -> bool:
    """Whether a theorem rules out finite type for the initial seed ``b``.

    Finite type needs every seed 2-finite, |b_ij b_ji| <= 3 (Fomin and
    Zelevinsky, "Cluster algebras II", Invent. Math. 2003, Thm 1.8),
    which for a skew-symmetric B is |b_ij| <= 1.  An acyclic B is of
    finite type exactly when its quiver is Dynkin (Caldero and Keller,
    "From triangulated categories to cluster algebras II", Ann. Sci. ENS
    2006), that is, when 2I - |B| is positive definite.  A cyclic B with
    every |b_ij| <= 1 is not decided here.
    """
    if any(abs(x) >= 2 for row in b for x in row):
        return True
    return _acyclic(b) and not _positive_definite(
        [[2 * (i == j) - abs(x) for j, x in enumerate(row)] for i, row in enumerate(b)]
    )


def _acyclic(b: ExchangeMatrix) -> bool:
    """Whether the quiver of ``b``, an arrow i -> j where b_ij > 0, has no
    oriented cycle: removing sources one at a time removes every vertex."""
    indegree = [sum(x < 0 for x in row) for row in b]
    sources = [i for i, d in enumerate(indegree) if not d]
    removed = 0
    while sources:
        i = sources.pop()
        removed += 1
        for j, x in enumerate(b[i]):
            if x > 0:
                indegree[j] -= 1
                if not indegree[j]:
                    sources.append(j)
    return removed == len(b)


def _positive_definite(a) -> bool:
    """Whether the symmetric integer matrix ``a`` is positive definite.

    Sylvester's criterion: every leading principal minor is positive.
    The minors are the pivots of fraction-free (Bareiss) elimination, in
    which each division is exact, so every entry stays an integer.
    """
    a = [list(row) for row in a]
    n = len(a)
    previous = 1
    for k in range(n):
        pivot = a[k][k]  # the leading principal minor of order k + 1
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // previous
        previous = pivot
    return True


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


def _check_duality(b0: ExchangeMatrix, gs, m: ExchangeMatrix, k: int) -> None:
    """Check G^T C = I and column k of G B = B0 C, where G has the
    g-vectors ``gs`` as columns and ``m`` is the seed's [B; C]."""
    n = len(gs)
    cs = list(zip(*m[n:]))
    for i, g in enumerate(gs):
        for j, c in enumerate(cs):
            if sum(map(mul, g, c)) != (i == j):
                raise ConsistencyError("tropical duality fails: G^T C is not I")
    bk = [row[k] for row in m[:n]]
    gb = [sum(map(mul, bk, x)) for x in zip(*gs)]
    if gb != [sum(map(mul, row, cs[k])) for row in b0]:
        raise ConsistencyError(
            "tropical duality fails: G B and B0 C differ in column %d" % k
        )


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
    integer, the size included, is read by `ascii_int`."""
    tokens = [line.split() for _, line in _content_lines(text)]
    if not tokens:
        raise InputError("empty matrix file")
    try:
        (n,) = map(ascii_int, tokens[0])
    except ValueError:
        raise InputError("matrix file must start with the size n") from None
    if n < 1:
        raise InputError("matrix size must be at least 1")
    rows = tokens[1:]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise InputError("expected %d rows of %d integers" % (n, n))
    try:
        b = tuple(tuple(map(ascii_int, row)) for row in rows)
    except ValueError:
        raise InputError("non-integer matrix entry") from None
    return check_exchange_matrix(b)


def load_matrix_file(path) -> ExchangeMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return load_matrix(fh.read())
