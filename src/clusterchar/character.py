"""The cluster-character map on formal cluster-category objects.

An object is a module plus multiplicities of shifted summands; only that
data is visible to the character.  Values are computed along two routes
on every call and compared: the evaluation form

    x^shifts * x^(-coindex) * sum_e chi(Gr_e) prod_i x_i^<S_i,e>_a

with the coindex taken from the injective copresentation, and the
definitional form whose exponents are <S_i,e>_a - <S_i,[module]> with
the plain Euler form computed directly from Hom/Ext dimensions.  Any
disagreement raises instead of returning a wrong polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import laurent
from .errors import ConsistencyError, DimensionError
from .forms import coindex_routes, form_a_row
from .grassmannian import submodule_classes
from .laurent import LaurentPoly
from .modules import Representation, direct_sum, zero_module


@dataclass(frozen=True)
class CCObject:
    """A formal object: module part plus multiplicities of shifts."""

    module_part: Representation
    shift_multiplicities: tuple[int, ...]

    def __post_init__(self):
        n = self.module_part.algebra.quiver.n
        if len(self.shift_multiplicities) != n:
            raise DimensionError("shift multiplicities have wrong length")
        if any(s < 0 for s in self.shift_multiplicities):
            raise DimensionError("negative shift multiplicity")


def module_object(m: Representation) -> CCObject:
    return CCObject(m, (0,) * m.algebra.quiver.n)


def shift_object(algebra, i: int) -> CCObject:
    shifts = tuple(1 if j == i else 0 for j in range(algebra.quiver.n))
    return CCObject(zero_module(algebra), shifts)


def combine(a: CCObject, b: CCObject) -> CCObject:
    """Direct sum of formal objects (module parts sum, shifts add)."""
    return CCObject(
        direct_sum(a.module_part, b.module_part),
        tuple(x + y for x, y in zip(a.shift_multiplicities, b.shift_multiplicities)),
    )


def cc_value(obj: CCObject, primes=None) -> LaurentPoly:
    """The character value of a formal object, as a Laurent polynomial.

    Values computed with the default primes are cached on the algebra.
    """
    m = obj.module_part
    if primes is not None:
        return _compute_value(obj, primes)
    key = ("cc_value", m.fingerprint(), obj.shift_multiplicities)
    return m.algebra.cached(key, lambda: _compute_value(obj, None))


def _compute_value(obj: CCObject, primes) -> LaurentPoly:
    m = obj.module_part
    a = m.algebra
    n = a.quiver.n
    classes = submodule_classes(m, primes)
    coind_via_copres, coind_via_simples = coindex_routes(m)

    shift_exp = obj.shift_multiplicities
    base = laurent.monomial(
        n, tuple(s - c for s, c in zip(shift_exp, coind_via_copres))
    )
    total = laurent.zero(n)
    for e, chi in classes:
        total = total + laurent.monomial(n, form_a_row(a, e), chi)
    value = base * total

    definitional = laurent.zero(n)
    for e, chi in classes:
        exps = tuple(
            f - c for f, c in zip(form_a_row(a, e), coind_via_simples)
        )
        definitional = definitional + laurent.monomial(n, exps, chi)
    definitional = laurent.monomial(n, shift_exp) * definitional

    if value != definitional:
        raise ConsistencyError(
            "character value differs between the coindex form (%s) and the "
            "definitional exponent form (%s)"
            % (laurent.laurent_render(value), laurent.laurent_render(definitional))
        )
    return value


def cc_product(a: CCObject, b: CCObject, primes=None) -> LaurentPoly:
    """Character of the direct sum; checked against the product of values."""
    via_sum = cc_value(combine(a, b), primes)
    via_product = cc_value(a, primes) * cc_value(b, primes)
    if via_sum != via_product:
        raise ConsistencyError(
            "character is not multiplicative on this pair: sum gives %s, "
            "product gives %s"
            % (
                laurent.laurent_render(via_sum),
                laurent.laurent_render(via_product),
            )
        )
    return via_sum


@dataclass(frozen=True)
class TriangleReport:
    ok: bool
    lhs: LaurentPoly  # X_L * X_M
    rhs: LaurentPoly  # X_B + X_B'
    values: tuple[LaurentPoly, LaurentPoly, LaurentPoly, LaurentPoly]

    def render(self, names=None) -> str:
        xl, xm, xb, xbp = (laurent.laurent_render(v, names) for v in self.values)
        lines = [
            "X_L  = %s" % xl,
            "X_M  = %s" % xm,
            "X_B  = %s" % xb,
            "X_B' = %s" % xbp,
            "X_L * X_M  = %s" % laurent.laurent_render(self.lhs, names),
            "X_B + X_B' = %s" % laurent.laurent_render(self.rhs, names),
        ]
        if self.ok:
            lines.append("multiplication identity holds")
        else:
            diff = self.lhs - self.rhs
            lines.append(
                "MISMATCH: difference = %s" % laurent.laurent_render(diff, names)
            )
        return "\n".join(lines)


def verify_triangle(
    l: CCObject, m: CCObject, b: CCObject, b_prime: CCObject, primes=None
) -> TriangleReport:
    """Check X_L * X_M = X_B + X_B' exactly.

    The caller vouches that the extension space of (L, M) is
    one-dimensional and that b, b_prime are the two middle terms; this
    only tests the identity.  A failing identity is a result (ok=False),
    not an error.
    """
    xl = cc_value(l, primes)
    xm = cc_value(m, primes)
    xb = cc_value(b, primes)
    xbp = cc_value(b_prime, primes)
    lhs = xl * xm
    rhs = xb + xbp
    return TriangleReport(lhs == rhs, lhs, rhs, (xl, xm, xb, xbp))
