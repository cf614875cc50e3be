"""Seed mutation and finite-type cluster-variable enumeration.

This is the oracle side of the artifact: Laurent polynomials produced by
matrix/seed mutation, entirely independent of the character pipeline.
New variables come from the exchange relation by exact Laurent division;
an inexact division can only mean an arithmetic bug (the Laurent
phenomenon guarantees exactness) and raises immediately.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import laurent
from .errors import ConsistencyError, InputError, NotFiniteTypeError
from .laurent import LaurentPoly, laurent_divexact
from .quiver import Quiver

ExchangeMatrix = tuple[tuple[int, ...], ...]

DEFAULT_SEED_CAP = 500_000


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
    """Matrix mutation in direction k (0-based)."""
    n = len(b)
    if not 0 <= k < n:
        raise InputError("mutation index %d out of range" % k)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == k or j == k:
                row.append(-b[i][j])
            else:
                # b_ij + sign(b_ik) [b_ik b_kj]_+ in its symmetric form
                row.append(
                    b[i][j]
                    + (abs(b[i][k]) * b[k][j] + b[i][k] * abs(b[k][j])) // 2
                )
        out.append(tuple(row))
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


def mutate_seed(s: Seed, k: int) -> Seed:
    """Seed mutation: x_k' = (prod x_i^[b_ik]+ + prod x_i^[-b_ik]+) / x_k."""
    n = len(s.matrix)
    if not 0 <= k < n:
        raise InputError("mutation index %d out of range" % k)
    plus = laurent.one(n)
    minus = laurent.one(n)
    for i in range(n):
        bik = s.matrix[i][k]
        if bik > 0:
            plus = plus * s.variables[i] ** bik
        elif bik < 0:
            minus = minus * s.variables[i] ** (-bik)
    new_var = laurent_divexact(plus + minus, s.variables[k])
    variables = tuple(
        new_var if i == k else v for i, v in enumerate(s.variables)
    )
    return Seed(mutate_matrix(s.matrix, k), variables)


def enumerate_cluster_variables(
    b: ExchangeMatrix, seed_cap: int = DEFAULT_SEED_CAP
) -> frozenset[LaurentPoly]:
    """Breadth-first closure of the initial seed under all mutations.

    Seeds are identified by their cluster, the set of their variables: a
    cluster determines its seed up to a simultaneous relabelling
    (Gekhtman, Shapiro and Vainshtein, "On the properties of the exchange
    graph of a cluster algebra", Math. Res. Lett. 2008).  Each revisited
    cluster is checked against that theorem: its matrix must be the stored
    matrix conjugated by the permutation that matches the variables, or
    ``ConsistencyError`` is raised.  ``seed_cap`` bounds the seeds visited,
    the initial seed plus every mutation result, revisits included; once
    more than ``seed_cap`` are visited, ``NotFiniteTypeError`` is raised.
    Mutating a seed back along the direction it was reached by returns its
    parent, so that seed is counted as visited without calling
    `mutate_seed` and without the relabelling check a revisit gets: a
    finite type with C clusters of rank n takes (n - 1) C + 1 calls.
    """
    if seed_cap < 1:
        raise InputError("seed cap must be at least 1, got %d" % seed_cap)
    start = initial_seed(b)
    n = len(start.matrix)
    clusters = {frozenset(start.variables): start}
    # each queued seed carries the direction it was reached along
    queue: deque[tuple[Seed, int | None]] = deque([(start, None)])
    visited = 1
    while queue:
        s, back = queue.popleft()
        for k in range(n):
            visited += 1
            if visited > seed_cap:
                raise NotFiniteTypeError(
                    "not finite within cap: more than %d seeds" % seed_cap
                )
            if k == back:
                continue  # mutation is an involution: this is the parent seed
            t = mutate_seed(s, k)
            cluster = frozenset(t.variables)
            known = clusters.get(cluster)
            if known is None:
                if len(cluster) < n:
                    raise ConsistencyError("a cluster repeats a variable")
                clusters[cluster] = t
                queue.append((t, k))
            else:
                _check_relabelling(known, t)
    return frozenset().union(*clusters)


def _check_relabelling(known: Seed, t: Seed) -> None:
    """Raise unless ``t`` is ``known`` with its vertices relabelled."""
    position = {v: i for i, v in enumerate(known.variables)}
    perm = [position[v] for v in t.variables]
    if any(
        t.matrix[i][j] != known.matrix[pi][pj]
        for i, pi in enumerate(perm)
        for j, pj in enumerate(perm)
    ):
        raise ConsistencyError(
            "one cluster carries exchange matrices that are not relabellings"
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
    """Matrix file: n, then n whitespace-separated integer rows."""
    tokens = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            tokens.append(line.split())
    if not tokens:
        raise InputError("empty matrix file")
    head = tokens[0]
    if len(head) != 1 or not head[0].lstrip("-").isdigit():
        raise InputError("matrix file must start with the size n")
    n = int(head[0])
    if n < 1:
        raise InputError("matrix size must be at least 1")
    rows = tokens[1:]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise InputError("expected %d rows of %d integers" % (n, n))
    try:
        b = tuple(tuple(int(x) for x in row) for row in rows)
    except ValueError:
        raise InputError("non-integer matrix entry") from None
    return check_exchange_matrix(b)


def load_matrix_file(path) -> ExchangeMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return load_matrix(fh.read())
