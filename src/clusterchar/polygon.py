"""Combinatorial model for the type-A verification harness.

Diagonals of an (n+3)-gon stand in for the indecomposable objects seen
by the character over the linear A_n algebra (vertices 1..n, arrows
i -> i+1, no relations): arcs ending at the distinguished corner n+2 are
the shifted summands, every other arc {i, j} is the interval module
supported on i+1 .. j-1.  Crossing arcs have one-dimensional extension
space, and smoothing a crossing produces the two middle terms (each the
direct sum of its sides that are diagonals), so every
multiplication-formula instance at this scale can be generated and
checked exhaustively.  The arc/object convention is not trusted:
`verify_an` checks each crossing against one count, dim Ext^1 in the
cluster category (`_cluster_ext1`), and fails loudly on any mismatch.

`linear_an_algebra(n)` builds a fresh algebra on every call, and the
builders take it and read n off its quiver.  `verify_an` builds one and
passes it down, so every character value it checks is computed in that
call and dropped with the algebra.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from operator import mul

from .character import (
    CCObject,
    cc_value,
    combine,
    module_object,
    shift_object,
    verify_triangle,
)
from .errors import InputError
from .laurent import LaurentPoly, laurent_render
from .linalg import identity
from .modules import Representation, ext1_dim, zero_module
from .mutation import enumerate_cluster_variables, quiver_to_matrix
from .quiver import AlgebraPresentation, make_quiver

MAX_N = 8


class Arc(namedtuple("Arc", "i j")):
    """A diagonal {i, j} of the (n+3)-gon, stored with i < j; ordered as (i, j)."""

    __slots__ = ()


def all_arcs(n: int) -> list[Arc]:
    """All n(n+3)/2 diagonals of the (n+3)-gon, in lexicographic order."""
    if type(n) is not int or n < 2:
        raise InputError("the polygon model needs an integer n >= 2")
    last = n + 2
    return [
        Arc(i, j)
        for i in range(last)
        for j in range(i + 2, last + 1)
        if not (i == 0 and j == last)
    ]


def _check_arc(n: int, a: Arc) -> None:
    last = n + 2
    if any(type(x) is not int for x in a) or not 0 <= a.i < a.j - 1 < last or a == (0, last):
        raise InputError("%r is not a diagonal of the %d-gon" % (a, last + 1))


def linear_an_algebra(n: int) -> AlgebraPresentation:
    """The relation-free linear quiver 1 -> 2 -> ... -> n."""
    if type(n) is not int:
        raise InputError("A_n needs an integer n, not %r" % (n,))
    q = make_quiver(
        [str(i) for i in range(1, n + 1)],
        [("a%d" % i, str(i), str(i + 1)) for i in range(1, n)],
    )
    return AlgebraPresentation(q, ())


def interval_module(algebra: AlgebraPresentation, lo: int, hi: int) -> Representation:
    """M[lo, hi]: one-dimensional on vertices lo..hi, identities inside."""
    n = algebra.quiver.n
    if type(lo) is not int or type(hi) is not int or not 1 <= lo <= hi <= n:
        raise InputError("bad interval [%r, %r] for A_%d" % (lo, hi, n))
    dims = tuple(1 if lo <= v <= hi else 0 for v in range(1, n + 1))
    mats = {"a%d" % v: identity(1) for v in range(lo, hi)}
    return Representation(algebra, dims, mats)


def arc_to_object(algebra: AlgebraPresentation, a: Arc) -> CCObject:
    """Fan arcs {i, n+2} are the shifts; {i, j} with j <= n+1 is M[i+1, j-1]."""
    n = algebra.quiver.n
    _check_arc(n, a)
    if a.j == n + 2:
        return shift_object(algebra, a.i - 1)
    return module_object(interval_module(algebra, a.i + 1, a.j - 1))


def crossing(a: Arc, b: Arc) -> bool:
    """True iff the endpoints strictly interleave around the polygon."""
    return a.i < b.i < a.j < b.j or b.i < a.i < b.j < a.j


def _cluster_ext1(x: CCObject, y: CCObject) -> int:
    """dim Ext^1_C(x, y) over a hereditary algebra: for x = M (+) Sigma P
    and y = N (+) Sigma P' it is that of Ext^1(M, N) (+) D Ext^1(N, M)
    (+) Hom(P, N) (+) D Hom(P', M) (Buan, Marsh, Reineke, Reiten and
    Todorov, Adv. Math. 204, 2006), and dim Hom(P_i, N) = dim N_i."""
    (m, s), (n, t) = x, y
    count = sum(map(mul, s, n.dims)) + sum(map(mul, t, m.dims))
    if any(m.dims) and any(n.dims):
        count += ext1_dim(m, n) + ext1_dim(n, m)
    return count


def smoothings(algebra: AlgebraPresentation, a: Arc, b: Arc) -> tuple[CCObject, CCObject]:
    """The two middle-term objects obtained by smoothing a crossing.

    With endpoints p < q < r < s the first smoothing joins {p,q} and
    {r,s}, the second {p,s} and {q,r}.  A side that is a boundary edge
    adds nothing; two of them give the zero object."""
    if not crossing(a, b):
        raise InputError("arcs %r and %r do not cross" % (a, b))
    p, q, r, s = sorted((a.i, a.j, b.i, b.j))
    last = algebra.quiver.n + 2

    def smoothing(*sides):
        diagonals = [arc_to_object(algebra, Arc(i, j))
                     for i, j in sides if j - i > 1 and (i, j) != (0, last)]
        if not diagonals:
            return module_object(zero_module(algebra))
        return reduce(combine, diagonals)

    return smoothing((p, q), (r, s)), smoothing((p, s), (q, r))


def interval_ses(algebra: AlgebraPresentation):
    """All interval short exact sequences 0 -> M[c,b] -> M[a,b] -> M[a,c-1] -> 0
    over `linear_an_algebra(n)` (ends degenerate to zero modules)."""
    n = algebra.quiver.n
    zero = zero_module(algebra)
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            total = interval_module(algebra, a, b)
            for c in range(a, b + 2):
                sub = interval_module(algebra, c, b) if c <= b else zero
                quot = interval_module(algebra, a, c - 1) if c > a else zero
                yield sub, total, quot


class AnReport(namedtuple("AnReport", "n arc_count crossing_pairs checks_passed checks_failed "
                          "bijection_ok variable_count expected_variable_count lines")):
    """The counts and lines of `verify_an`; `variable_count` counts the
    character values that the mutation oracle also has."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.checks_failed == 0 and self.bijection_ok

    def summary(self) -> str:
        return (
            "n=%d: %d arcs, %d crossing pairs, %d checks passed, %d failed, "
            "%d/%d cluster variables matched: %s"
            % (self.n, self.arc_count, self.crossing_pairs, self.checks_passed,
               self.checks_failed, self.variable_count, self.expected_variable_count,
               "PASS" if self.ok else "FAIL")
        )


def verify_an(n: int) -> AnReport:
    """Exhaustive check of the multiplication identity, the extension
    calibration, and the cluster-variable bijection for the A_n model."""
    if type(n) is not int or not 2 <= n <= MAX_N:
        raise InputError("n must lie in 2..%d" % MAX_N)
    algebra = linear_an_algebra(n)
    arcs = all_arcs(n)
    objects = {a: arc_to_object(algebra, a) for a in arcs}
    pairs = [(a, b) for idx, a in enumerate(arcs) for b in arcs[idx + 1 :] if crossing(a, b)]
    lines: list[str] = []
    outcomes: list[bool] = []

    def record(ok: bool, line: str) -> None:
        outcomes.append(ok)
        lines.append("%s %s" % ("ok  " if ok else "FAIL", line))

    # (a) multiplication identity on every crossing pair
    for a, b in pairs:
        first, second = smoothings(algebra, a, b)
        tri = verify_triangle(objects[a], objects[b], first, second)
        record(
            tri.ok,
            "triangle {%d,%d} x {%d,%d}" % (a.i, a.j, b.i, b.j),
        )

    # (b) calibration: crossings must match dim Ext^1 in the cluster category
    last = n + 2
    for idx, a in enumerate(arcs):
        for b in arcs[idx + 1 :]:
            x, y = (b, a) if a.j == last else (a, b)  # a shift arc goes second
            if x.j == last:
                continue  # shared corner: never crossing, no extensions
            record(
                _cluster_ext1(objects[x], objects[y]) == crossing(x, y),
                "extension {%d,%d} vs %s{%d,%d}"
                % (x.i, x.j, "shift " if y.j == last else "", y.i, y.j),
            )

    # (c) bijection with the mutation oracle
    values: set[LaurentPoly] = {cc_value(obj) for obj in objects.values()}
    oracle = enumerate_cluster_variables(quiver_to_matrix(algebra.quiver))
    expected = n * (n + 3) // 2
    same = values == oracle and len(values) == expected
    lines.append(
        "%s bijection: %d character values vs %d cluster variables"
        % ("ok  " if same else "FAIL", len(values), len(oracle))
    )
    if not same:
        for v in sorted(laurent_render(x) for x in values - oracle):
            lines.append("     only from arcs: %s" % v)
        for v in sorted(laurent_render(x) for x in oracle - values):
            lines.append("     only from mutation: %s" % v)
    passed = outcomes.count(True)
    return AnReport(
        n, len(arcs), len(pairs), passed, len(outcomes) - passed, same,
        len(values & oracle), expected, tuple(lines),
    )
