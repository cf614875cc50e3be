"""Reference point counter for the differential tests.

The all-subspace backtracker: every subspace of every dimension at every
vertex is enumerated through its reduced-row-echelon basis, and a sweep
over the vertices keeps the tuples closed under every arrow, each arrow
checked by membership once both of its ends are set.  No quotient
lifting, no closed-form weights and no budget, so it is slow but has
nothing clever to get wrong.
"""

from fractions import Fraction
from itertools import combinations, product


def subspaces(d, e, p):
    """All e-dimensional subspaces of F_p^d as (rows, pivots) RREF bases."""
    out = []
    for pivots in combinations(range(d), e):
        free = [
            (k, j)
            for k in range(e)
            for j in range(pivots[k] + 1, d)
            if j not in pivots
        ]
        for assignment in product(range(p), repeat=len(free)):
            rows = [[0] * d for _ in range(e)]
            for k in range(e):
                rows[k][pivots[k]] = 1
            for (k, j), val in zip(free, assignment):
                rows[k][j] = val
            out.append((rows, pivots))
    return out


def _in_span(rows, pivots, vec, p):
    v = list(vec)
    for row, c in zip(rows, pivots):
        f = v[c]
        if f:
            v = [(x - f * y) % p for x, y in zip(v, row)]
    return not any(v)


def count_all_subreps(m, p):
    """F_p-points of every Gr_e(m), keyed by dimension vector e."""
    q = m.algebra.quiver
    n = q.n
    schedule = [[] for _ in range(n)]
    for a in q.arrows:
        mat = m.matrices[a.name]
        assert not any(isinstance(x, Fraction) for x in mat.entries)
        rows = [[mat.entry(r, c) % p for c in range(mat.cols)] for r in range(mat.rows)]
        schedule[max(a.source, a.target)].append((a.source, a.target, rows))
    per_vertex = [
        [(x, sub) for x in range(d + 1) for sub in subspaces(d, x, p)]
        for d in m.dims
    ]
    counts = {}
    chosen = [None] * n
    dims = [0] * n

    def closed(i, j, rows):
        for vec in chosen[i][0]:
            image = [sum(a * b for a, b in zip(row, vec)) % p for row in rows]
            if not _in_span(chosen[j][0], chosen[j][1], image, p):
                return False
        return True

    def rec(v):
        if v == n:
            key = tuple(dims)
            counts[key] = counts.get(key, 0) + 1
            return
        for dim, sub in per_vertex[v]:
            chosen[v] = sub
            dims[v] = dim
            if all(closed(i, j, rows) for i, j, rows in schedule[v]):
                rec(v + 1)
        chosen[v] = None

    rec(0)
    return counts
