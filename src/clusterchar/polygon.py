"""Combinatorial model for the type-A verification harness.

Diagonals of an (n+3)-gon stand in for the indecomposable objects seen
by the character over the linear A_n algebra (vertices 1..n, arrows
i -> i+1, no relations): arcs ending at the distinguished corner n+2 are
the shifted summands, every other arc {i, j} is the interval module
supported on i+1 .. j-1.  Crossing arcs have one-dimensional extension
space, and smoothing a crossing produces the two middle terms, so every
multiplication-formula instance at this scale can be generated and
checked exhaustively.  The arc/object convention is not trusted: the
calibration checks in `verify_an` compare it against module-computed
extension data and fail loudly on any mismatch.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

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
from .mutation import ExchangeMatrix, enumerate_cluster_variables, quiver_to_matrix
from .quiver import AlgebraPresentation, make_quiver

MAX_N = 8


class Arc(namedtuple("Arc", "i j")):
    """A diagonal {i, j} of the (n+3)-gon, stored with i < j; ordered as (i, j)."""

    __slots__ = ()


def all_arcs(n: int) -> list[Arc]:
    """All n(n+3)/2 diagonals of the (n+3)-gon, in lexicographic order."""
    if n < 2:
        raise InputError("the polygon model needs n >= 2")
    last = n + 2
    return [
        Arc(i, j)
        for i in range(last)
        for j in range(i + 2, last + 1)
        if not (i == 0 and j == last)
    ]


def _check_arc(n: int, a: Arc) -> None:
    last = n + 2
    if not (0 <= a.i < a.j <= last) or a.j - a.i < 2 or (a.i, a.j) == (0, last):
        raise InputError("%r is not a diagonal of the %d-gon" % (a, last + 1))


@lru_cache(maxsize=None)
def linear_an_algebra(n: int) -> AlgebraPresentation:
    """The relation-free linear quiver 1 -> 2 -> ... -> n."""
    q = make_quiver(
        [str(i) for i in range(1, n + 1)],
        [("a%d" % i, str(i), str(i + 1)) for i in range(1, n)],
    )
    return AlgebraPresentation(q, ())


def interval_module(n: int, lo: int, hi: int) -> Representation:
    """M[lo, hi]: one-dimensional on vertices lo..hi, identities inside."""
    if not 1 <= lo <= hi <= n:
        raise InputError("bad interval [%d, %d] for A_%d" % (lo, hi, n))
    algebra = linear_an_algebra(n)
    dims = tuple(1 if lo <= v <= hi else 0 for v in range(1, n + 1))
    mats = {
        "a%d" % v: identity(1) for v in range(lo, hi)
    }
    return Representation(algebra, dims, mats)


def arc_to_object(n: int, a: Arc) -> CCObject:
    """Fan arcs {i, n+2} are the shifts; {i, j} with j <= n+1 is M[i+1, j-1]."""
    _check_arc(n, a)
    algebra = linear_an_algebra(n)
    if a.j == n + 2:
        return shift_object(algebra, a.i - 1)
    return module_object(interval_module(n, a.i + 1, a.j - 1))


def crossing(a: Arc, b: Arc) -> bool:
    """True iff the endpoints strictly interleave around the polygon."""
    return a.i < b.i < a.j < b.j or b.i < a.i < b.j < a.j


def _side_object(n: int, i: int, j: int) -> CCObject | None:
    """Arc object for {i, j}, or None when that pair is a boundary edge."""
    lo, hi = min(i, j), max(i, j)
    if hi - lo == 1 or (lo, hi) == (0, n + 2):
        return None
    return arc_to_object(n, Arc(lo, hi))


def smoothings(n: int, a: Arc, b: Arc) -> tuple[CCObject, CCObject]:
    """The two middle-term objects obtained by smoothing a crossing.

    With endpoints p < q < r < s the first smoothing joins {p,q} and
    {r,s}, the second {p,s} and {q,r}; boundary edges contribute the zero
    object."""
    if not crossing(a, b):
        raise InputError("arcs %r and %r do not cross" % (a, b))
    p, r = a.i, a.j
    q, s = b.i, b.j
    if not p < q:
        p, q, r, s = q, p, s, r
    # now p < q < r < s
    first = combine_all(n, [_side_object(n, p, q), _side_object(n, r, s)])
    second = combine_all(n, [_side_object(n, p, s), _side_object(n, q, r)])
    return first, second


def combine_all(n: int, objects) -> CCObject:
    acc = module_object(zero_module(linear_an_algebra(n)))
    for obj in objects:
        if obj is not None:
            acc = combine(acc, obj)
    return acc


def linear_an_matrix(n: int) -> ExchangeMatrix:
    return quiver_to_matrix(linear_an_algebra(n).quiver)


def interval_ses(n: int):
    """All interval short exact sequences 0 -> M[c,b] -> M[a,b] -> M[a,c-1] -> 0
    over the linear orientation (ends degenerate to zero modules)."""
    zero = zero_module(linear_an_algebra(n))
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            total = interval_module(n, a, b)
            for c in range(a, b + 2):
                sub = interval_module(n, c, b) if c <= b else zero
                quot = interval_module(n, a, c - 1) if c > a else zero
                yield sub, total, quot


class AnReport:
    """The counts of `verify_an`, which fills in the checks, the bijection
    and the lines as they run."""

    __slots__ = ("n", "arc_count", "crossing_pairs", "checks_passed", "checks_failed",
                 "bijection_ok", "variable_count", "expected_variable_count", "lines")
    __hash__ = None  # mutable

    def __init__(self, n, arc_count, crossing_pairs, expected_variable_count):
        self.n, self.arc_count, self.crossing_pairs = n, arc_count, crossing_pairs
        self.expected_variable_count = expected_variable_count
        self.checks_passed = self.checks_failed = self.variable_count = 0
        self.bijection_ok, self.lines = False, []

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __repr__(self) -> str:
        return "AnReport(%s)" % ", ".join("%s=%r" % (f, getattr(self, f)) for f in self.__slots__)

    @property
    def ok(self) -> bool:
        return self.checks_failed == 0 and self.bijection_ok

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return (
            "n=%d: %d arcs, %d crossing pairs, %d checks passed, %d failed, "
            "%d/%d cluster variables matched: %s"
            % (
                self.n,
                self.arc_count,
                self.crossing_pairs,
                self.checks_passed,
                self.checks_failed,
                self.variable_count,
                self.expected_variable_count,
                verdict,
            )
        )


def verify_an(n: int) -> AnReport:
    """Exhaustive check of the multiplication identity, the extension
    calibration, and the cluster-variable bijection for the A_n model."""
    if not 2 <= n <= MAX_N:
        raise InputError("n must lie in 2..%d" % MAX_N)
    arcs = all_arcs(n)
    objects = {a: arc_to_object(n, a) for a in arcs}
    pairs = [
        (a, b)
        for idx, a in enumerate(arcs)
        for b in arcs[idx + 1 :]
        if crossing(a, b)
    ]
    report = AnReport(n, len(arcs), len(pairs), n * (n + 3) // 2)

    def record(ok: bool, line: str) -> None:
        if ok:
            report.checks_passed += 1
        else:
            report.checks_failed += 1
        report.lines.append("%s %s" % ("ok  " if ok else "FAIL", line))

    # (a) multiplication identity on every crossing pair
    for a, b in pairs:
        first, second = smoothings(n, a, b)
        tri = verify_triangle(objects[a], objects[b], first, second)
        record(
            tri.ok,
            "triangle {%d,%d} x {%d,%d}" % (a.i, a.j, b.i, b.j),
        )

    # (b) calibration: crossings must match module extension data
    last = n + 2
    for idx, a in enumerate(arcs):
        for b in arcs[idx + 1 :]:
            cross = crossing(a, b)
            ma, mb = objects[a], objects[b]
            a_is_shift = a.j == last
            b_is_shift = b.j == last
            if a_is_shift and b_is_shift:
                continue  # shared corner: never crossing, no extensions
            if a_is_shift or b_is_shift:
                shift_arc, mod_arc = (a, b) if a_is_shift else (b, a)
                module = objects[mod_arc].module_part
                expected = module.dims[shift_arc.i - 1] >= 1
                record(
                    cross == expected,
                    "extension {%d,%d} vs shift {%d,%d}"
                    % (mod_arc.i, mod_arc.j, shift_arc.i, shift_arc.j),
                )
            else:
                total = ext1_dim(ma.module_part, mb.module_part) + ext1_dim(
                    mb.module_part, ma.module_part
                )
                record(
                    total == (1 if cross else 0),
                    "extension {%d,%d} vs {%d,%d}" % (a.i, a.j, b.i, b.j),
                )

    # (c) bijection with the mutation oracle
    values: set[LaurentPoly] = {cc_value(obj) for obj in objects.values()}
    oracle = enumerate_cluster_variables(linear_an_matrix(n))
    report.variable_count = len(values)
    same = values == set(oracle) and len(values) == report.expected_variable_count
    report.bijection_ok = same
    report.lines.append(
        "%s bijection: %d character values vs %d cluster variables"
        % ("ok  " if same else "FAIL", len(values), len(oracle))
    )
    if not same:
        for v in sorted(laurent_render(x) for x in values - set(oracle)):
            report.lines.append("     only from arcs: %s" % v)
        for v in sorted(laurent_render(x) for x in set(oracle) - values):
            report.lines.append("     only from mutation: %s" % v)
    return report
