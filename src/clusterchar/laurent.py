"""Exact multivariate Laurent polynomials with integer coefficients.

Values are immutable and canonical: no zero coefficients are stored and
terms are kept sorted by exponent vector in descending lexicographic
order, so equality of values is equality of term tuples.  Rendering is
canonical and injective: for a fixed number of variables, two values
render to the same text exactly when they are equal.  Exponents may be
negative, but powers may not; coefficients are arbitrary precision.
Division is deliberately restricted to the exact case (`divexact`),
which raises on a nonzero remainder.

A monomial is its exponent tuple, of unbounded Python ints, so a value
is exactly its canonical ``terms``.  Sums and products accumulate the
coefficients in a dict keyed by exponent tuple and sort it once.  The
kernel is kept plain because it is no longer hot: the cluster-variable
oracle searches on integer g-vectors and divides only once per cluster
variable (`mutation`), and the character builds each value from one
term map (`character`).  Exact division is the one place with more
structure: it pops the remainder's leading term from a heap, and bounds
the quotient's exponents by a box computed from the terms of the
dividend and divisor.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import add, sub

from .errors import DimensionError, LaurentDivisionError

ExponentVector = tuple[int, ...]


class LaurentPoly:
    """A Laurent polynomial in ``var_count`` variables x_1..x_n.

    Build values with `from_dict`, `monomial`, `variable` or `one`.
    ``terms`` is the canonical tuple of ``(exponent vector, coefficient)``
    pairs.
    """

    __slots__ = ("var_count", "terms")

    def __init__(self, var_count: int, terms):
        # ``terms``: exponent vectors strictly descending, no zero coefficient
        self.var_count = var_count
        self.terms = terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.var_count == other.var_count and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.var_count, self.terms))

    def __repr__(self) -> str:
        return "LaurentPoly(var_count=%d, terms=%r)" % (self.var_count, self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        _check_compatible(self, other)
        acc = dict(self.terms)
        get = acc.get
        for e, c in other.terms:
            acc[e] = get(e, 0) + c
        return LaurentPoly(self.var_count, _canonical(acc))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.var_count, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        _check_compatible(self, other)
        acc: dict[ExponentVector, int] = {}
        get = acc.get
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(map(add, e1, e2))
                acc[e] = get(e, 0) + c1 * c2
        return LaurentPoly(self.var_count, _canonical(acc))

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise LaurentDivisionError("negative power %d" % n)
        acc = one(self.var_count)
        for _ in range(n):
            acc = acc * self
        return acc


def _check_compatible(p: LaurentPoly, q: LaurentPoly) -> None:
    if p.var_count != q.var_count:
        raise DimensionError(
            "variable counts differ: %d vs %d" % (p.var_count, q.var_count)
        )


def _canonical(acc: dict[ExponentVector, int]):
    """Terms of an exponent -> coefficient map: zeros dropped, exponents
    descending."""
    return tuple(sorted([ec for ec in acc.items() if ec[1]], reverse=True))


def _bounds(p: LaurentPoly) -> tuple[ExponentVector, ExponentVector]:
    """Per-variable minimum and maximum exponents of a nonzero value."""
    columns = list(zip(*(e for e, _ in p.terms)))
    return tuple(map(min, columns)), tuple(map(max, columns))


def from_dict(var_count: int, terms: dict[ExponentVector, int]) -> LaurentPoly:
    """Canonicalize a term map: drop zeros, sort descending-lex, validate."""
    if var_count <= 0:
        raise DimensionError("var_count must be positive")
    for exps in terms:
        if len(exps) != var_count:
            raise DimensionError(
                "exponent vector of length %d in %d variables" % (len(exps), var_count)
            )
    return LaurentPoly(var_count, _canonical(terms))


def one(var_count: int) -> LaurentPoly:
    return monomial(var_count, (0,) * var_count)


def variable(var_count: int, i: int) -> LaurentPoly:
    """The variable x_{i+1} (``i`` is a 0-based position)."""
    if not 0 <= i < var_count:
        raise DimensionError("variable index %d out of range" % i)
    exps = tuple(1 if j == i else 0 for j in range(var_count))
    return monomial(var_count, exps)


def monomial(var_count: int, exps: ExponentVector) -> LaurentPoly:
    return from_dict(var_count, {tuple(exps): 1})


def laurent_divexact(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Exact quotient p/q, or raise ``LaurentDivisionError``.

    Leading-term elimination in descending-lex order.  The remainder is a
    map from exponent vector to coefficient with a heap of its exponent
    vectors, negated so that the heap's least entry is the remainder's
    leading term; each step pops it instead of scanning the remainder
    (heap division after Monagan and Pearce, "Sparse polynomial division
    using a heap", J. Symb. Comp. 2011; here the heap holds each distinct
    remainder monomial once, since the products of a quotient with q
    mostly coincide).  The leading coefficient must be divisible by q's,
    and the quotient term's exponents must lie in the box [min(p)-min(q),
    max(p)-max(q)], which holds the exponents of an exact quotient (the
    bounds of a product add exactly, since the terms that are extreme in
    x_i multiply to a nonzero product in a domain).  The box also bounds
    the loop on non-divisible input (lex is no well-order on Z^n).
    """
    _check_compatible(p, q)
    if q.is_zero():
        raise LaurentDivisionError("division by the zero polynomial")
    if p.is_zero():
        return p
    (plo, phi), (qlo, qhi) = _bounds(p), _bounds(q)
    box = list(zip(map(sub, plo, qlo), map(sub, phi, qhi)))
    (lead_e, lead_c), rest = q.terms[0], q.terms[1:]
    rem = dict(p.terms)
    get = rem.get
    heap = [tuple(-a for a in e) for e, _ in p.terms]  # ascending, hence a heap
    quot = []
    while heap:
        e = tuple(-a for a in heappop(heap))
        c = rem.pop(e)
        if not c:
            continue
        if c % lead_c:
            raise LaurentDivisionError("inexact division (coefficient obstruction)")
        qe = tuple(map(sub, e, lead_e))
        for a, (low, high) in zip(qe, box):
            if a < low or a > high:
                raise LaurentDivisionError("inexact division (exponent obstruction)")
        c //= lead_c
        quot.append((qe, c))
        for f, d in rest:
            key = tuple(map(add, qe, f))
            v = get(key)
            if v is None:
                heappush(heap, tuple(-a for a in key))
                rem[key] = -c * d
            else:
                rem[key] = v - c * d
    return LaurentPoly(p.var_count, tuple(quot))


def default_names(var_count: int) -> tuple[str, ...]:
    return tuple("x%d" % (i + 1) for i in range(var_count))


def render_terms(pieces) -> str:
    """Join ``(coeff, body)`` pairs into ``a - 2*b + 3``.

    A magnitude of 1 is omitted before a body and any other magnitude is
    written ``mag*body``; an empty body is a constant and prints as its
    magnitude.  Zero coefficients are skipped, and nothing left is ``0``.
    """
    out = ""
    for c, body in pieces:
        if c == 0:
            continue
        mag = abs(c)
        text = str(mag) if not body else body if mag == 1 else "%d*%s" % (mag, body)
        if out:
            out += (" - " if c < 0 else " + ") + text
        else:
            out = "-" + text if c < 0 else text
    return out or "0"


def laurent_render(p: LaurentPoly, names: tuple[str, ...] | None = None) -> str:
    """Canonical text form; with the default names, values in the same
    number of variables render alike exactly when they are equal.

    Terms in descending-lex exponent order; unit exponents and trivial
    factors omitted; coefficient 1 omitted except on the constant term.
    """
    names = names if names is not None else default_names(p.var_count)
    if len(names) != p.var_count:
        raise DimensionError("need %d variable names" % p.var_count)
    return render_terms(
        (c, "*".join(
            name if a == 1 else "%s^%d" % (name, a)
            for name, a in zip(names, exps)
            if a != 0
        ))
        for exps, c in p.terms
    )


def fraction_parts(p: LaurentPoly) -> tuple[LaurentPoly, ExponentVector]:
    """Split p as numerator / monomial denominator.

    Returns (numerator, d) with numerator = p * x^d an ordinary polynomial
    and d_i = max(0, -min exponent of x_i).  Zero gives ((0), (0,..,0)).
    """
    n = p.var_count
    if p.is_zero():
        return p, (0,) * n
    den = tuple(max(0, -a) for a in _bounds(p)[0])
    num = p * monomial(n, den)
    return num, den


def render_fraction(p: LaurentPoly, names: tuple[str, ...] | None = None) -> str:
    """Render as ``(numerator) / (monomial)``, or just the numerator when
    the denominator is trivial."""
    num, den = fraction_parts(p)
    num_text = laurent_render(num, names)
    if all(d == 0 for d in den):
        return num_text
    den_text = laurent_render(monomial(p.var_count, den), names)
    return "(%s) / (%s)" % (num_text, den_text)
