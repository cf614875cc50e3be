"""Exact multivariate Laurent polynomials with integer coefficients.

Values are immutable and canonical: no zero coefficients are stored and
terms are kept sorted by exponent vector in descending lexicographic
order, so equality of values is equality of term tuples and rendering is
deterministic.  Exponents may be negative; coefficients are arbitrary
precision.  Division is deliberately restricted to the exact case
(`divexact`), which raises on a nonzero remainder.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DimensionError, InputError, LaurentDivisionError

ExponentVector = tuple[int, ...]


@dataclass(frozen=True)
class LaurentPoly:
    """A Laurent polynomial in ``var_count`` variables x_1..x_n."""

    var_count: int
    terms: tuple[tuple[ExponentVector, int], ...]

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return (
            len(self.terms) == 1
            and self.terms[0][0] == self._zero_exp()
            and self.terms[0][1] == 1
        )

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def _zero_exp(self) -> ExponentVector:
        return (0,) * self.var_count

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        _check_compatible(self, other)
        acc = dict(self.terms)
        for exps, c in other.terms:
            acc[exps] = acc.get(exps, 0) + c
        return from_dict(self.var_count, acc)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.var_count, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        _check_compatible(self, other)
        acc: dict[ExponentVector, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = acc.get(e, 0) + c1 * c2
        return from_dict(self.var_count, acc)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            if not self.is_monomial():
                raise LaurentDivisionError("negative powers only for monomials")
            exps, c = self.terms[0]
            if c not in (1, -1):
                raise LaurentDivisionError(
                    "negative power of a monomial with coefficient %d" % c
                )
            inv = monomial(self.var_count, tuple(-a for a in exps), c)
            return inv ** (-n)
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


def from_dict(var_count: int, terms: dict[ExponentVector, int]) -> LaurentPoly:
    """Canonicalize a term map: drop zeros, sort descending-lex, validate."""
    if var_count <= 0:
        raise DimensionError("var_count must be positive")
    clean = []
    for exps, c in terms.items():
        if len(exps) != var_count:
            raise DimensionError(
                "exponent vector of length %d in %d variables" % (len(exps), var_count)
            )
        if c != 0:
            clean.append((tuple(exps), c))
    clean.sort(key=lambda t: t[0], reverse=True)
    return LaurentPoly(var_count, tuple(clean))


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
    return from_dict(var_count, {tuple(exps): coeff})


def laurent_divexact(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Exact quotient p/q, or raise ``LaurentDivisionError``.

    Leading-term elimination in descending-lex order.  When q divides p
    the loop runs once per quotient term; otherwise it fails on a
    coefficient or exponent obstruction.  Quotient exponents are confined
    to the coordinate-wise box [min(p)-max(q), max(p)-min(q)], which also
    bounds the loop on non-divisible input (lex is no well-order on Z^n).
    """
    _check_compatible(p, q)
    if q.is_zero():
        raise LaurentDivisionError("division by the zero polynomial")
    if p.is_zero():
        return zero(p.var_count)
    n = p.var_count
    lo = tuple(
        min(e[i] for e, _ in p.terms) - max(e[i] for e, _ in q.terms) for i in range(n)
    )
    hi = tuple(
        max(e[i] for e, _ in p.terms) - min(e[i] for e, _ in q.terms) for i in range(n)
    )
    lead_q, cq = q.terms[0]
    rem = dict(p.terms)
    quot: dict[ExponentVector, int] = {}
    while rem:
        lead_r = max(rem)
        cr = rem[lead_r]
        if cr % cq != 0:
            raise LaurentDivisionError("inexact division (coefficient obstruction)")
        e = tuple(a - b for a, b in zip(lead_r, lead_q))
        if any(x < l or x > h for x, l, h in zip(e, lo, hi)):
            raise LaurentDivisionError("inexact division (exponent obstruction)")
        c = cr // cq
        quot[e] = quot.get(e, 0) + c
        for eq, cq2 in q.terms:
            key = tuple(a + b for a, b in zip(e, eq))
            v = rem.get(key, 0) - c * cq2
            if v:
                rem[key] = v
            elif key in rem:
                del rem[key]
    return from_dict(n, quot)


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
    """Canonical text form; ``parse(render(p)) == p``.

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


_FACTOR_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^(-?\d+))?$")
_COEFF_RE = re.compile(r"^\(?([+-]?\d+)\)?$")


def _split_terms(text: str) -> list[str]:
    """Split on top-level + and - (a leading sign binds to the first term)."""
    out, depth, cur = [], 0, ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise InputError("unbalanced parentheses in polynomial")
        prev = cur.rstrip()[-1:] if cur.strip() else ""
        if (
            ch in "+-"
            and depth == 0
            and prev not in ("", "+", "-", "^")
        ):
            out.append(cur)
            cur = ch
        else:
            cur += ch
    if depth != 0:
        raise InputError("unbalanced parentheses in polynomial")
    if cur.strip():
        out.append(cur)
    return out


def laurent_parse(
    text: str, var_count: int, names: tuple[str, ...] | None = None
) -> LaurentPoly:
    """Parse the canonical syntax (plus optional spaces, a leading ``-``,
    and parenthesized integer coefficients)."""
    names = names if names is not None else default_names(var_count)
    index = {name: i for i, name in enumerate(names)}
    text = text.strip()
    if text == "":
        raise InputError("empty polynomial text")
    if text == "0":
        return zero(var_count)
    acc: dict[ExponentVector, int] = {}
    for raw in _split_terms(text.replace(" ", "")):
        sign = 1
        if raw.startswith("+"):
            raw = raw[1:]
        elif raw.startswith("-"):
            sign, raw = -1, raw[1:]
        if not raw:
            raise InputError("dangling sign in polynomial")
        coeff = 1
        exps = [0] * var_count
        saw_factor = False
        for part in raw.split("*"):
            m = _COEFF_RE.match(part)
            if m and not saw_factor:
                coeff *= int(m.group(1))
                saw_factor = True
                continue
            m = _FACTOR_RE.match(part)
            if not m:
                raise InputError("bad factor %r in polynomial" % part)
            name, a = m.group(1), int(m.group(2) or "1")
            if name not in index:
                raise InputError("unknown variable %r" % name)
            exps[index[name]] += a
            saw_factor = True
        key = tuple(exps)
        acc[key] = acc.get(key, 0) + sign * coeff
    return from_dict(var_count, acc)


def fraction_parts(p: LaurentPoly) -> tuple[LaurentPoly, ExponentVector]:
    """Split p as numerator / monomial denominator.

    Returns (numerator, d) with numerator = p * x^d an ordinary polynomial
    and d_i = max(0, -min exponent of x_i).  Zero gives ((0), (0,..,0)).
    """
    n = p.var_count
    if p.is_zero():
        return p, (0,) * n
    den = tuple(max(0, -min(e[i] for e, _ in p.terms)) for i in range(n))
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
