import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterchar import laurent
from clusterchar.errors import DimensionError, LaurentDivisionError
from clusterchar.laurent import (
    from_dict,
    laurent_divexact,
    laurent_render,
    monomial,
    one,
    variable,
)


def x(i, n=2):
    return variable(n, i)


def test_add_cancellation():
    p = x(0)
    assert p + -p == from_dict(2, {})
    assert (p + -p).terms == ()


def test_add_merges_distinct_variables():
    p = x(0) + one(2)
    q = x(1)
    assert p + q == from_dict(2, {(1, 0): 1, (0, 1): 1, (0, 0): 1})


def test_add_negative_exponents():
    p = from_dict(1, {(-1,): 2})
    q = from_dict(1, {(-1,): 3})
    assert p + q == from_dict(1, {(-1,): 5})


def test_mul_inverse_monomials():
    assert monomial(1, (-1,)) * monomial(1, (1,)) == one(1)


def test_mul_difference_of_squares():
    p = x(0) + x(1)
    q = x(0) - x(1)
    assert p * q == from_dict(2, {(2, 0): 1, (0, 2): -1})


def test_mul_adds_exponents():
    m = monomial(2, (-1, 1))
    assert m * m == monomial(2, (-2, 2))


def test_var_count_mismatch():
    with pytest.raises(DimensionError):
        one(2) + one(3)
    with pytest.raises(DimensionError):
        one(2) * one(3)


def test_render_zero():
    assert laurent_render(from_dict(3, {})) == "0"


def test_render_term_order():
    # x4*x2 + x4 + x3*x1 in four variables, descending-lex exponent order
    p = from_dict(4, {(0, 1, 0, 1): 1, (0, 0, 0, 1): 1, (1, 0, 1, 0): 1})
    assert laurent_render(p) == "x1*x3 + x2*x4 + x4"


def test_render_negative_exponent():
    assert laurent_render(monomial(1, (-1,))) == "x1^-1"


def test_render_coefficients():
    p = from_dict(2, {(1, 0): -1, (0, 0): 7, (0, 1): 3})
    assert laurent_render(p) == "-x1 + 3*x2 + 7"


def test_render_custom_names():
    p = from_dict(2, {(1, 1): 1})
    assert laurent_render(p, names=("x0", "x3")) == "x0*x3"


def test_negative_powers_raise():
    with pytest.raises(LaurentDivisionError, match="negative power -1"):
        x(0) ** -1
    with pytest.raises(LaurentDivisionError):
        monomial(2, (1, -1)) ** -2
    assert x(0) ** 0 == one(2)
    assert (x(0) + x(1)) ** 2 == (x(0) + x(1)) * (x(0) + x(1))


def test_divexact_recovers_factor():
    p = one(2) + x(1)  # 1 + x2
    q = monomial(2, (-1, 0))  # x1^-1
    prod = p * q
    assert laurent_divexact(prod, q) == p
    assert laurent_divexact(prod, p) == q


def test_divexact_rejects_inexact():
    p = one(2) + x(0)
    with pytest.raises(LaurentDivisionError):
        laurent_divexact(p, one(2) + x(1))
    with pytest.raises(LaurentDivisionError):
        laurent_divexact(one(1), from_dict(1, {(0,): 2}))
    with pytest.raises(LaurentDivisionError):
        laurent_divexact(one(1), from_dict(1, {}))


def test_fraction_parts():
    p = from_dict(2, {(-1, 0): 1, (0, 1): 1})
    num, den = laurent.fraction_parts(p)
    assert den == (1, 0)
    assert num == from_dict(2, {(0, 0): 1, (1, 1): 1})
    assert laurent.render_fraction(p) == "(x1*x2 + 1) / (x1)"
    assert laurent.render_fraction(one(2)) == "1"


@st.composite
def poly_triples(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    exps = st.tuples(*[st.integers(-3, 3)] * n)
    polys = st.dictionaries(exps, st.integers(-6, 6), max_size=4).map(
        lambda d: from_dict(n, d)
    )
    return draw(polys), draw(polys), draw(polys)


@given(poly_triples())
@settings(max_examples=150, deadline=None)
def test_ring_axioms(triple):
    p, q, r = triple
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@st.composite
def poly_and_monomial(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    exps = st.tuples(*[st.integers(-3, 3)] * n)
    p = draw(
        st.dictionaries(exps, st.integers(-6, 6), max_size=4).map(
            lambda d: from_dict(n, d)
        )
    )
    e = draw(exps)
    return p, monomial(n, e)


@given(poly_and_monomial())
@settings(max_examples=100, deadline=None)
def test_monomial_multiplication_invertible(pm):
    p, m = pm
    (e, _), = m.terms
    inv = monomial(p.var_count, tuple(-a for a in e))
    assert (p * m) * inv == p


@given(poly_triples())
@settings(max_examples=50, deadline=None)
def test_divexact_of_product(triple):
    p, q, _ = triple
    if q.is_zero():
        return
    assert laurent_divexact(p * q, q) == p
