"""Exact multivariate Laurent polynomials with integer coefficients.

Values are immutable and canonical: no zero coefficients are stored and
terms are kept sorted by exponent vector in descending lexicographic
order, so equality of values is equality of term tuples.  Rendering is
canonical and injective: for a fixed number of variables, two values
render to the same text exactly when they are equal.  Exponents may be
negative, but powers may not; coefficients are arbitrary precision.
Division is deliberately restricted to the exact case (`divexact`),
which raises on a nonzero remainder.

Internally a monomial is one int: each exponent is biased by
``2**(EXPONENT_BITS - 1)`` into a field of ``EXPONENT_BITS`` bits, the
first variable in the most significant field.  Descending lex order on
exponent vectors is then descending order on the packed ints, and a
monomial product is ``k1 + k2 - bias``.  A value also knows the exact
per-variable minimum and maximum of its exponents: products and
quotients derive them from their operands' without decoding a term, and
other values decode them once, on first use.  Products and quotients
check them against the field range before packing, so an exponent
outside ``MIN_EXPONENT..MAX_EXPONENT`` raises ``DimensionError`` instead
of carrying into the neighbouring field.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heappop, heappush
from operator import add, sub

from .errors import DimensionError, LaurentDivisionError

ExponentVector = tuple[int, ...]

EXPONENT_BITS = 32
_HALF = 1 << (EXPONENT_BITS - 1)
_MASK = (1 << EXPONENT_BITS) - 1
MIN_EXPONENT = -_HALF
MAX_EXPONENT = _HALF - 1


@lru_cache(maxsize=None)
def _bias(var_count: int) -> int:
    """The packed zero exponent vector: ``_HALF`` in every field."""
    return sum(_HALF << (EXPONENT_BITS * i) for i in range(var_count))


def _encode(exps: ExponentVector) -> int:
    key = 0
    for a in exps:
        if not MIN_EXPONENT <= a <= MAX_EXPONENT:
            raise DimensionError(
                "exponent %d outside %d..%d" % (a, MIN_EXPONENT, MAX_EXPONENT)
            )
        key = (key << EXPONENT_BITS) | (a + _HALF)
    return key


def _decode(key: int, var_count: int) -> ExponentVector:
    out = [0] * var_count
    for i in range(var_count - 1, -1, -1):
        out[i] = (key & _MASK) - _HALF
        key >>= EXPONENT_BITS
    return tuple(out)


def _check_range(lo: ExponentVector, hi: ExponentVector) -> None:
    if min(lo) < MIN_EXPONENT or max(hi) > MAX_EXPONENT:
        raise DimensionError(
            "exponents %s..%s leave the range %d..%d"
            % (lo, hi, MIN_EXPONENT, MAX_EXPONENT)
        )


class LaurentPoly:
    """A Laurent polynomial in ``var_count`` variables x_1..x_n.

    Build values with `from_dict`, `monomial`, `variable`, `zero` or
    `one`.  ``terms`` is the canonical tuple of ``(exponent vector,
    coefficient)`` pairs, decoded on first use.
    """

    __slots__ = ("var_count", "_packed", "_box", "_terms", "_hash")

    def __init__(self, var_count: int, packed, box=None):
        # ``packed``: (key, coeff) pairs, keys strictly descending, no zero
        # coefficient; ``box``: the exact (min, max) exponent vectors, or
        # None until `_bounds` decodes them.
        self.var_count = var_count
        self._packed = packed
        self._box = box
        self._terms = None
        self._hash = None

    def _bounds(self) -> tuple[ExponentVector, ExponentVector]:
        """Per-variable minimum and maximum exponents of a nonzero value."""
        if self._box is None:
            columns = list(zip(*(e for e, _ in self.terms)))
            self._box = (tuple(map(min, columns)), tuple(map(max, columns)))
        return self._box

    @property
    def terms(self) -> tuple[tuple[ExponentVector, int], ...]:
        if self._terms is None:
            n = self.var_count
            self._terms = tuple((_decode(k, n), c) for k, c in self._packed)
        return self._terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.var_count == other.var_count and self._packed == other._packed

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.var_count, self._packed))
        return self._hash

    def __repr__(self) -> str:
        return "LaurentPoly(var_count=%d, terms=%r)" % (self.var_count, self.terms)

    def is_zero(self) -> bool:
        return not self._packed

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        _check_compatible(self, other)
        if not other._packed:
            return self
        if not self._packed:
            return other
        acc = dict(self._packed)
        get = acc.get
        for k, c in other._packed:
            acc[k] = get(k, 0) + c
        packed = _canonical(acc)
        if len(packed) < len(acc) or self._box is None or other._box is None:
            return LaurentPoly(self.var_count, packed)
        # no term cancelled, so the bounds are those of the union
        (alo, ahi), (blo, bhi) = self._box, other._box
        box = (
            tuple([x if x < y else y for x, y in zip(alo, blo)]),
            tuple([x if x > y else y for x, y in zip(ahi, bhi)]),
        )
        return LaurentPoly(self.var_count, packed, box)

    def __neg__(self) -> "LaurentPoly":
        packed = tuple((k, -c) for k, c in self._packed)
        return LaurentPoly(self.var_count, packed, self._box)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        """Product; the exponent bounds add exactly, since the terms that
        are extreme in x_i multiply to a nonzero product in a domain."""
        _check_compatible(self, other)
        n = self.var_count
        a, b = self._packed, other._packed
        if not a or not b:
            return zero(n)
        (alo, ahi), (blo, bhi) = self._bounds(), other._bounds()
        lo, hi = tuple(map(add, alo, blo)), tuple(map(add, ahi, bhi))
        _check_range(lo, hi)
        bias = _bias(n)
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:  # a monomial factor shifts every key alike
            k2, c2 = b[0]
            shift = k2 - bias
            return LaurentPoly(n, tuple((k + shift, c * c2) for k, c in a), (lo, hi))
        acc: dict[int, int] = {}
        get = acc.get
        for k1, c1 in b:
            shift = k1 - bias
            for k2, c2 in a:
                k = k2 + shift
                acc[k] = get(k, 0) + c1 * c2
        return LaurentPoly(n, _canonical(acc), (lo, hi))

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise LaurentDivisionError("negative power %d" % n)
        acc = one(self.var_count)
        for _ in range(n):
            acc = acc * self
        return acc

    def __str__(self) -> str:
        return laurent_render(self)


def _check_compatible(p: LaurentPoly, q: LaurentPoly) -> None:
    if p.var_count != q.var_count:
        raise DimensionError(
            "variable counts differ: %d vs %d" % (p.var_count, q.var_count)
        )


def _canonical(acc: dict[int, int]):
    """Packed terms of a key -> coefficient map: zeros dropped, keys descending."""
    items = sorted(acc.items(), reverse=True)
    if 0 in acc.values():
        items = [kc for kc in items if kc[1]]
    return tuple(items)


def from_dict(var_count: int, terms: dict[ExponentVector, int]) -> LaurentPoly:
    """Canonicalize a term map: drop zeros, sort descending-lex, validate."""
    if var_count <= 0:
        raise DimensionError("var_count must be positive")
    acc = {}
    for exps, c in terms.items():
        if len(exps) != var_count:
            raise DimensionError(
                "exponent vector of length %d in %d variables" % (len(exps), var_count)
            )
        if c:
            acc[_encode(exps)] = c
    return LaurentPoly(var_count, _canonical(acc))


def zero(var_count: int) -> LaurentPoly:
    return from_dict(var_count, {})


def one(var_count: int) -> LaurentPoly:
    return monomial(var_count, (0,) * var_count)


def variable(var_count: int, i: int) -> LaurentPoly:
    """The variable x_{i+1} (``i`` is a 0-based position)."""
    if not 0 <= i < var_count:
        raise DimensionError("variable index %d out of range" % i)
    exps = tuple(1 if j == i else 0 for j in range(var_count))
    return monomial(var_count, exps)


def monomial(var_count: int, exps: ExponentVector, coeff: int = 1) -> LaurentPoly:
    exps = tuple(exps)
    if not coeff or len(exps) != var_count or var_count <= 0:
        return from_dict(var_count, {exps: coeff})  # zero, or DimensionError
    return LaurentPoly(var_count, ((_encode(exps), coeff),), (exps, exps))


def laurent_divexact(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Exact quotient p/q, or raise ``LaurentDivisionError``.

    Leading-term elimination in descending-lex order.  The remainder is a
    map from packed monomial to coefficient with a heap of its monomials,
    so each step pops the leading term instead of scanning the remainder
    (heap division after Monagan and Pearce, "Sparse polynomial division
    using a heap", J. Symb. Comp. 2011; here the heap holds each distinct
    remainder monomial once, since the products of a quotient with q
    mostly coincide).  The leading coefficient must be divisible by q's,
    and the quotient term's exponents must lie in the box [min(p)-min(q),
    max(p)-max(q)], which holds the exponents of an exact quotient (the
    bounds of a product add exactly).  The box also bounds the loop on
    non-divisible input (lex is no well-order on Z^n) and keeps every
    remainder term inside p's exponent range.
    """
    _check_compatible(p, q)
    if q.is_zero():
        raise LaurentDivisionError("division by the zero polynomial")
    if p.is_zero():
        return p
    n = p.var_count
    (plo, phi), (qlo, qhi) = p._bounds(), q._bounds()
    lo, hi = tuple(map(sub, plo, qlo)), tuple(map(sub, phi, qhi))
    if any(l > h for l, h in zip(lo, hi)):
        raise LaurentDivisionError("inexact division (exponent obstruction)")
    _check_range(lo, hi)
    (lead_k, lead_c), rest = q._packed[0], q._packed[1:]
    shift = _bias(n) - lead_k
    # The box for the remainder's leading exponents: the quotient box
    # shifted by q's leading exponents, listed from the lowest field up.
    lead_e = _decode(lead_k, n)
    box = list(zip(map(add, lo, lead_e), map(add, hi, lead_e)))[::-1]
    # remainder key k, quotient term c: subtract c * (rest term) at k + offset
    offsets = [(k - lead_k, c) for k, c in rest]
    rem = dict(p._packed)
    get = rem.get
    heap = [-k for k, _ in p._packed]  # ascending, hence already a heap
    quot = []
    while heap:
        k = -heappop(heap)
        c = rem.pop(k)
        if not c:
            continue
        if c % lead_c:
            raise LaurentDivisionError("inexact division (coefficient obstruction)")
        field = k
        for low, high in box:
            v = (field & _MASK) - _HALF
            if v < low or v > high:
                raise LaurentDivisionError("inexact division (exponent obstruction)")
            field >>= EXPONENT_BITS
        c //= lead_c
        quot.append((k + shift, c))
        for off, d in offsets:
            key = k + off
            v = get(key)
            if v is None:
                heappush(heap, -key)
                rem[key] = -c * d
            else:
                rem[key] = v - c * d
    return LaurentPoly(n, tuple(quot), (lo, hi))


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
    den = tuple(max(0, -a) for a in p._bounds()[0])
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
