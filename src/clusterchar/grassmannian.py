"""Euler characteristics of quiver Grassmannians by point counting.

Points of Gr_e(M) over F_p are counted exactly: subspaces at each vertex
are enumerated once each through reduced-row-echelon bases, and a
backtracking sweep over the vertices keeps only tuples closed under all
arrow matrices.  Counting at enough primes determines the counting
polynomial in q by interpolation, and its value at 1 stands in for the
Euler characteristic.  The substitution is exact whenever the count is
polynomial in q; a reserved verification prime (and an integrality check
on the fitted coefficients) turns any violation of that assumption into
an error instead of a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from .errors import InputError, NonPolynomialCountError, ResourceLimitError
from .laurent import render_terms
from .modules import DimVector, Representation

DEFAULT_PRIME_POOL: tuple[int, ...] = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
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
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


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


def _in_span(rows, pivots, vec, p: int) -> bool:
    v = list(vec)
    for row, c in zip(rows, pivots):
        f = v[c]
        if f:
            v = [(x - f * y) % p for x, y in zip(v, row)]
    return not any(v)


def _apply(mat_rows, vec, p: int) -> tuple:
    return tuple(sum(a * b for a, b in zip(row, vec)) % p for row in mat_rows)


def _arrow_data(m: Representation, p: int):
    """Arrow matrices reduced mod p, in a check schedule for backtracking:
    arrow (i, j, rows) is checked once both endpoints are assigned."""
    q = m.algebra.quiver
    schedule: list[list[tuple[int, int, tuple]]] = [[] for _ in range(q.n)]
    for a in q.arrows:
        mat = m.matrices[a.name]
        for x in mat.entries:
            if isinstance(x, Fraction):
                raise InputError("module matrix has non-integer entry %s" % x)
        rows = tuple(
            tuple(mat.entry(r, c) % p for c in range(mat.cols))
            for r in range(mat.rows)
        )
        schedule[max(a.source, a.target)].append((a.source, a.target, rows))
    return schedule


def _closed_under(arrow, chosen, p: int) -> bool:
    i, j, rows = arrow
    ui, uj = chosen[i], chosen[j]
    for vec in ui[0]:
        if not _in_span(uj[0], uj[1], _apply(rows, vec, p), p):
            return False
    return True


def _count_backtrack(m: Representation, per_vertex, p: int) -> dict:
    """Backtracking over vertex subspace choices; counts per dim vector.

    ``per_vertex[i]`` is a list of (dim, (rows, pivots)) choices.  Arrows
    are checked as soon as both endpoints are assigned, which prunes the
    product space hard on chain-like quivers.
    """
    n = m.algebra.quiver.n
    schedule = _arrow_data(m, p)
    counts: dict[DimVector, int] = {}
    chosen: list = [None] * n
    dims_stack: list[int] = [0] * n

    def rec(v: int) -> None:
        if v == n:
            key = tuple(dims_stack)
            counts[key] = counts.get(key, 0) + 1
            return
        for dim, sub in per_vertex[v]:
            chosen[v] = sub
            dims_stack[v] = dim
            if all(_closed_under(arrow, chosen, p) for arrow in schedule[v]):
                rec(v + 1)
        chosen[v] = None

    rec(0)
    return counts


def _check_budget(sizes, budget: int) -> None:
    total = 1
    for s in sizes:
        total *= s
        if total > budget:
            raise ResourceLimitError(
                "subspace enumeration budget exceeded (over %d tuples)" % budget
            )


def count_points(
    m: Representation, e: DimVector, p: int, budget: int = DEFAULT_BUDGET
) -> int:
    """Number of F_p-points of Gr_e(m)."""
    if not _is_prime(p):
        raise InputError("%d is not prime" % p)
    e = tuple(int(x) for x in e)
    if len(e) != len(m.dims):
        raise InputError("dimension vector has wrong length")
    if any(x < 0 or x > d for x, d in zip(e, m.dims)):
        raise InputError("submodule dimension vector out of range")
    _check_budget(
        [gaussian_binomial(d, x, p) for d, x in zip(m.dims, e)], budget
    )
    per_vertex = [
        [(e[i], sub) for sub in _subspaces(m.dims[i], e[i], p)]
        for i in range(len(m.dims))
    ]
    counts = _count_backtrack(m, per_vertex, p)
    return counts.get(e, 0)


def count_all_subreps(
    m: Representation, p: int, budget: int = DEFAULT_BUDGET
) -> dict[DimVector, int]:
    """F_p-points of every Gr_e(m) at once, keyed by dimension vector."""
    if not _is_prime(p):
        raise InputError("%d is not prime" % p)
    _check_budget(
        [
            sum(gaussian_binomial(d, x, p) for x in range(d + 1))
            for d in m.dims
        ],
        budget,
    )
    per_vertex = [
        [(x, sub) for x in range(d + 1) for sub in _subspaces(d, x, p)]
        for d in m.dims
    ]
    return _count_backtrack(m, per_vertex, p)


@dataclass(frozen=True)
class CountingPolynomial:
    """Integer polynomial in q interpolating the point counts."""

    coeffs: tuple[int, ...]  # ascending degree, no trailing zeros

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


def _interpolate(points: list[tuple[int, int]]) -> list[Fraction]:
    """Newton-form interpolation; coefficients ascending, exact."""
    xs = [Fraction(x) for x, _ in points]
    divided = [Fraction(y) for _, y in points]
    for level in range(1, len(points)):
        for i in range(len(points) - 1, level - 1, -1):
            divided[i] = (divided[i] - divided[i - 1]) / (xs[i] - xs[i - level])
    coeffs = [Fraction(0)] * len(points)
    coeffs[0] = divided[0]
    base = [Fraction(1)] + [Fraction(0)] * (len(points) - 1)
    for level in range(1, len(points)):
        # base <- base * (x - xs[level-1])
        new = [Fraction(0)] * len(points)
        for k in range(len(points) - 1):
            new[k + 1] += base[k]
            new[k] -= base[k] * xs[level - 1]
        base = new
        for k in range(len(points)):
            coeffs[k] += divided[level] * base[k]
    return coeffs


def _fit_and_verify(points: list[tuple[int, int]], degree: int) -> CountingPolynomial:
    """Fit through the first degree+1 points, verify against the rest."""
    if len(points) < degree + 2:
        raise ResourceLimitError(
            "need %d primes (degree %d fit plus a verification prime), got %d; "
            "supply more primes" % (degree + 2, degree, len(points))
        )
    fit_points = points[: degree + 1]
    coeffs = _interpolate(fit_points)
    for c in coeffs:
        if c.denominator != 1:
            raise NonPolynomialCountError(
                "interpolated count has non-integer coefficient %s" % c
            )
    ints = [int(c) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    poly = CountingPolynomial(tuple(ints))
    for x, y in points[degree + 1 :]:
        if poly.evaluate(x) != y:
            raise NonPolynomialCountError(
                "count at verification prime %d is %d, fit predicts %d"
                % (x, y, poly.evaluate(x))
            )
    return poly


def _select_primes(primes, needed: int):
    if primes is None:
        pool = DEFAULT_PRIME_POOL
        if needed > len(pool):
            raise ResourceLimitError(
                "degree too high for the default prime pool (%d primes needed); "
                "pass an explicit prime list" % needed
            )
        return pool[:needed]
    pool = sorted(set(int(p) for p in primes))
    for p in pool:
        if not _is_prime(p):
            raise InputError("%d is not prime" % p)
    if len(pool) < needed:
        raise ResourceLimitError(
            "need at least %d primes for this fit, got %d" % (needed, len(pool))
        )
    return tuple(pool)


def degree_bound(m: Representation, e: DimVector) -> int:
    return sum(x * (d - x) for x, d in zip(e, m.dims))


def counting_polynomial(
    m: Representation,
    e: DimVector,
    primes=None,
    budget: int = DEFAULT_BUDGET,
    map_fn=map,
) -> CountingPolynomial:
    """Fit the point counts of Gr_e(m); raises when the fit fails to verify."""
    e = tuple(int(x) for x in e)
    D = degree_bound(m, e)
    ps = _select_primes(primes, D + 2)
    counts = list(map_fn(lambda p: count_points(m, e, p, budget), ps))
    return _fit_and_verify(list(zip(ps, counts)), D)


def euler_char(
    m: Representation,
    e: DimVector,
    primes=None,
    budget: int = DEFAULT_BUDGET,
    map_fn=map,
) -> int:
    """Euler characteristic of Gr_e(m) (counting polynomial at q = 1)."""
    return counting_polynomial(m, e, primes, budget, map_fn).evaluate(1)


def submodule_classes(
    m: Representation,
    primes=None,
    budget: int = DEFAULT_BUDGET,
    map_fn=map,
) -> list[tuple[DimVector, int]]:
    """All e with nonzero Euler characteristic, with those characteristics.

    One backtracking sweep per prime counts every Gr_e(m) simultaneously;
    each class is then fitted at its own degree bound and verified against
    the remaining sampled primes.
    """
    box = [range(d + 1) for d in m.dims]
    D_max = max((degree_bound(m, e) for e in product(*box)), default=0)
    ps = _select_primes(primes, D_max + 2)
    tables = list(map_fn(lambda p: count_all_subreps(m, p, budget), ps))
    out = []
    for e in product(*box):
        D = degree_bound(m, e)
        points = [(p, table.get(e, 0)) for p, table in zip(ps, tables)]
        chi = _fit_and_verify(points, D).evaluate(1)
        if chi != 0:
            out.append((tuple(e), chi))
    return out
