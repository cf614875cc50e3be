"""Euler characteristics of quiver Grassmannians by point counting.

Points of Gr_e(M) over F_p are counted exactly by a backtracking sweep
over the vertices that tries only admissible subspaces: at each vertex,
those containing the images of the subspaces already chosen, found as
the subspaces of a quotient (after Reineke, IMRN 2006, and
Caldero-Reineke, JPAA 2008).  A vertex no later step reads is counted by
a Gaussian binomial instead, and arrows closing an oriented cycle are
checked by membership.  ``DEFAULT_BUDGET``, read when a sweep runs,
caps the nodes it visits.

Counting at enough primes determines the counting polynomial in q by
interpolation, and its value at 1 stands in for the Euler
characteristic.  The substitution is exact whenever the count is
polynomial in q; a reserved verification prime (and an integrality check
on the fitted coefficients) turns any violation of that assumption into
an error instead of a wrong answer.  A prime at which an arrow matrix
loses rank counts another module, the reduction mod p, so the fits
refuse such a prime before counting.  One driver, `_fit_classes`, runs
this sequence for one class and for the whole dimension box alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import isqrt

from .errors import InputError, NonPolynomialCountError, ResourceLimitError
from .laurent import render_terms
from .linalg import Matrix, rank
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


def _check_prime(p: int) -> None:
    if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise InputError("%d is not prime" % p)


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
    """The rows of an integer matrix reduced mod p."""
    for x in mat.entries:
        if isinstance(x, Fraction):
            raise InputError("module matrix has non-integer entry %s" % x)
    return tuple(
        tuple(mat.entry(r, c) % p for c in range(mat.cols)) for r in range(mat.rows)
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
    _check_prime(p)
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


def count_points(m: Representation, e: DimVector, p: int) -> int:
    """Number of F_p-points of Gr_e(m)."""
    e = _check_dim_vector(m, e)
    return _count_backtrack(m, [(x,) for x in e], p).get(e, 0)


def count_all_subreps(m: Representation, p: int) -> dict[DimVector, int]:
    """F_p-points of every Gr_e(m) at once, keyed by dimension vector."""
    return _count_backtrack(m, [range(d + 1) for d in m.dims], p)


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
    """Newton-form interpolation; coefficients ascending, exact.

    Only the divided differences are fractions: the Newton basis
    polynomials have integer coefficients.
    """
    xs = [x for x, _ in points]
    divided = [Fraction(y) for _, y in points]
    for level in range(1, len(points)):
        for i in range(len(points) - 1, level - 1, -1):
            divided[i] = (divided[i] - divided[i - 1]) / (xs[i] - xs[i - level])
    coeffs = [Fraction(0)] * len(points)
    coeffs[0] = divided[0]
    base = [1] + [0] * (len(points) - 1)
    for level in range(1, len(points)):
        # base <- base * (x - xs[level-1])
        new = [0] * len(points)
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
        _check_prime(p)
    if len(pool) < needed:
        raise ResourceLimitError(
            "need at least %d primes for this fit, got %d" % (needed, len(pool))
        )
    return tuple(pool)


def _check_reduction(m: Representation, primes) -> None:
    """Refuse each prime at which an arrow matrix of m loses rank.

    Counting at p counts the reduction of m mod p.  Where an arrow matrix
    has a smaller rank mod p than over Q, that reduction is another
    module, and the counts of two such primes can fit and verify a wrong
    polynomial (a4's arrow d acting as 6 counts as the split module at 2
    and at 3).  Only arrow matrices are checked: a composite path can
    still lose rank mod p while each arrow keeps it (b.a acting as 2 over
    linear A3 with a = [[1], [1]] and b = [[1, 1]]), and then only the
    verification prime stands between the fit and a wrong answer.
    """
    arrows = [(a.name, m.matrices[a.name]) for a in m.algebra.quiver.arrows]
    ranks = [rank(mat) for _, mat in arrows]
    for p in primes:
        for (name, mat), r in zip(arrows, ranks):
            r_p = len(_echelon(_reduced_rows(mat, p), p)[1])
            if r_p != r:
                raise NonPolynomialCountError(
                    "bad reduction at p = %d: arrow %r has rank %d over Q but %d "
                    "mod %d; pass primes that keep every rank" % (p, name, r, r_p, p)
                )


def degree_bound(m: Representation, e: DimVector) -> int:
    return sum(x * (d - x) for x, d in zip(e, m.dims))


def _fit_classes(m: Representation, allowed, count, primes) -> dict:
    """Counting polynomials of Gr_e(m), by e, for the classes e with e[v]
    in ``allowed[v]`` that ``count(m, p)`` tables.

    The primes suffice for the largest degree bound among those classes
    and are checked for bad reduction before counting.  Each class that
    occurs at some prime is fitted at its own degree bound, counting 0
    at the primes where it has no point.
    """
    bound = sum(max(x * (d - x) for x in xs) for xs, d in zip(allowed, m.dims))
    ps = _select_primes(primes, bound + 2)
    _check_reduction(m, ps)
    tables = [count(m, p) for p in ps]
    return {
        e: _fit_and_verify([(p, t.get(e, 0)) for p, t in zip(ps, tables)],
                           degree_bound(m, e))
        for e in sorted(set().union(*tables))
    }


def counting_polynomial(
    m: Representation,
    e: DimVector,
    primes=None,
) -> CountingPolynomial:
    """Fit the point counts of Gr_e(m); raises when the fit fails to verify."""
    e = _check_dim_vector(m, e)
    fits = _fit_classes(
        m, [(x,) for x in e], lambda m, p: {e: count_points(m, e, p)}, primes
    )
    return fits[e]


def euler_char(
    m: Representation,
    e: DimVector,
    primes=None,
) -> int:
    """Euler characteristic of Gr_e(m) (counting polynomial at q = 1)."""
    return counting_polynomial(m, e, primes).evaluate(1)


def submodule_classes(
    m: Representation,
    primes=None,
) -> list[tuple[DimVector, int]]:
    """All e with nonzero Euler characteristic, with those characteristics.

    One backtracking sweep per prime counts every Gr_e(m) simultaneously,
    and each class that occurs is fitted on its own.
    """
    box = [range(d + 1) for d in m.dims]
    fits = _fit_classes(m, box, count_all_subreps, primes)
    return [(e, chi) for e, poly in fits.items() if (chi := poly.evaluate(1))]
