"""The cluster-character map on formal cluster-category objects.

An object is a module plus multiplicities of shifted summands; only that
data is visible to the character.  Its value is

    x^shifts * x^(-coindex) * sum_e chi(Gr_e) prod_i x_i^<S_i,e>_a

where the coindex is (<S_i, m>)_i, so that the exponents are those of
the definitional form, <S_i,e>_a - <S_i,[module]>.  `forms.coindex`
returns it only once the module's index has passed the descent check
(`forms`); a module that fails it raises instead of getting a value.
"""

from __future__ import annotations

from collections import namedtuple
from operator import add

from . import laurent
from .errors import ConsistencyError, DimensionError
from .forms import coindex, form_a_row
from .grassmannian import submodule_classes
from .laurent import LaurentPoly
from .modules import Representation, direct_sum, zero_module


class CCObject(namedtuple("CCObject", "module_part shift_multiplicities")):
    """A formal object: module part plus multiplicities of shifts."""

    __slots__ = ()

    def __new__(cls, module_part: Representation, shift_multiplicities: tuple[int, ...]):
        if len(shift_multiplicities) != module_part.algebra.quiver.n:
            raise DimensionError("shift multiplicities have wrong length")
        if any(s < 0 for s in shift_multiplicities):
            raise DimensionError("negative shift multiplicity")
        return super().__new__(cls, module_part, shift_multiplicities)


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


def cc_value(obj: CCObject) -> LaurentPoly:
    """The character value of a formal object, as a Laurent polynomial,
    cached on the algebra by the module's data and the shifts."""
    m = obj.module_part
    key = ("cc_value", m.fingerprint(), obj.shift_multiplicities)
    return m.algebra.cached(key, lambda: _compute_value(obj))


def _compute_value(obj: CCObject) -> LaurentPoly:
    m = obj.module_part
    a = m.algebra
    base = tuple(s - c for s, c in zip(obj.shift_multiplicities, coindex(m)))
    classes = submodule_classes(m)
    # exponent -> coefficient; distinct classes may share an exponent
    terms: dict[tuple[int, ...], int] = {}
    for e, chi in classes:
        exps = tuple(map(add, base, form_a_row(a, e)))
        terms[exps] = terms.get(exps, 0) + chi
    return laurent.from_dict(a.quiver.n, terms)


def cc_product(a: CCObject, b: CCObject) -> LaurentPoly:
    """Character of the direct sum; checked against the product of values."""
    via_sum = cc_value(combine(a, b))
    via_product = cc_value(a) * cc_value(b)
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


class TriangleReport(namedtuple("TriangleReport", "ok lhs rhs values")):
    """Whether lhs = X_L * X_M equals rhs = X_B + X_B', with the four values."""

    __slots__ = ()

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
    l: CCObject, m: CCObject, b: CCObject, b_prime: CCObject
) -> TriangleReport:
    """Check X_L * X_M = X_B + X_B' exactly.

    The caller vouches that the extension space of (L, M) is
    one-dimensional and that b, b_prime are the two middle terms; this
    only tests the identity.  A failing identity is a result (ok=False),
    not an error.
    """
    xl = cc_value(l)
    xm = cc_value(m)
    xb = cc_value(b)
    xbp = cc_value(b_prime)
    lhs = xl * xm
    rhs = xb + xbp
    return TriangleReport(lhs == rhs, lhs, rhs, (xl, xm, xb, xbp))
