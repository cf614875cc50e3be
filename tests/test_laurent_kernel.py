"""Differential tests: the Laurent kernel against the reference.

`laurent_reference` is the naive arithmetic: division scans the whole
remainder for its leading term and bounds the quotient by a wider box.
On hypothesis-generated polynomials the kernel must produce the same
canonical terms for ``+``, ``*`` and exact division, and raise
``LaurentDivisionError`` wherever the reference does.  Exponents are
unbounded ints; some are drawn near +-2**31, and one test goes to
2**41, so that no fixed-width representation could pass.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import laurent_reference as ref
from clusterchar.errors import LaurentDivisionError
from clusterchar.laurent import (
    from_dict,
    laurent_divexact,
    laurent_render,
    monomial,
    variable,
)


def _poly(n, terms):
    return from_dict(n, dict(terms))


@st.composite
def poly_pairs(draw, exponents=st.integers(-3, 3), max_terms=6):
    n = draw(st.integers(1, 4))
    vectors = st.tuples(*[exponents] * n)
    terms = st.dictionaries(vectors, st.integers(-6, 6), max_size=max_terms)
    p, q = draw(terms), draw(terms)
    return n, ref.canonical(p), ref.canonical(q)


# Exponents near +-2**31 as well as small ones, so that sums of exponents
# cross the range of a 32-bit field.
EDGE = st.one_of(
    st.integers(-3, 3),
    st.integers(2**31 - 4, 2**31 - 1),
    st.integers(-(2**31), -(2**31) + 3),
)


@given(poly_pairs())
@settings(max_examples=150, deadline=None)
def test_add_matches_reference(case):
    n, p, q = case
    expected = ref.add(p, q)
    s = _poly(n, p) + _poly(n, q)
    assert s.terms == expected
    assert s == _poly(n, expected)


@given(poly_pairs())
@settings(max_examples=150, deadline=None)
def test_mul_matches_reference(case):
    n, p, q = case
    assert (_poly(n, p) * _poly(n, q)).terms == ref.mul(p, q)


@given(poly_pairs())
@settings(max_examples=150, deadline=None)
def test_exact_division_matches_reference(case):
    n, p, q = case
    assume(q)
    prod = ref.mul(p, q)
    quot = laurent_divexact(_poly(n, prod), _poly(n, q))
    assert quot.terms == ref.divexact(prod, q) == p


@given(poly_pairs(max_terms=4))
@settings(max_examples=200, deadline=None)
def test_division_raises_where_reference_raises(case):
    n, p, q = case
    assume(q)
    try:
        expected = ref.divexact(p, q)
    except LaurentDivisionError:
        with pytest.raises(LaurentDivisionError):
            laurent_divexact(_poly(n, p), _poly(n, q))
    else:
        assert laurent_divexact(_poly(n, p), _poly(n, q)).terms == expected


@given(poly_pairs(max_terms=4))
@settings(max_examples=100, deadline=None)
def test_division_with_non_unit_leading_coefficient(case):
    n, p, q = case
    assume(q)
    q = ((q[0][0], 2 * q[0][1]),) + q[1:]
    prod = ref.mul(p, q)
    assert laurent_divexact(_poly(n, prod), _poly(n, q)).terms == p
    if prod:  # an odd leading coefficient cannot be divided by an even one
        odd = ((prod[0][0], prod[0][1] + 1),) + prod[1:]
        with pytest.raises(LaurentDivisionError, match="coefficient obstruction"):
            ref.divexact(odd, q)
        with pytest.raises(LaurentDivisionError, match="coefficient obstruction"):
            laurent_divexact(_poly(n, odd), _poly(n, q))


@given(poly_pairs(exponents=EDGE, max_terms=4))
@settings(max_examples=150, deadline=None)
def test_edge_exponents_add_and_round_trip(case):
    n, p, q = case
    assert (_poly(n, p) + _poly(n, q)).terms == ref.add(p, q)
    prod = _poly(n, p) * _poly(n, q)
    assert prod.terms == ref.mul(p, q)
    if q:
        assert laurent_divexact(prod, _poly(n, q)).terms == p


@given(
    poly_pairs(exponents=EDGE, max_terms=4),
    st.sampled_from(("drawn", "same", "coefficient", "exponent")),
)
@settings(max_examples=200, deadline=None)
def test_render_is_injective(case, how):
    # rendered text stands in for the value in the tests that compare
    # strings, so it must tell apart exactly the values that differ
    n, p, q = case
    if how == "same":  # equal terms, built in the other order
        q = p[::-1]
    elif p and how == "coefficient":  # the leading coefficient moved by one
        (e, c), rest = p[0], p[1:]
        q = ((e, c + 1),) + rest
    elif p and how == "exponent":  # the leading term's first exponent negated
        (e, c), rest = p[0], p[1:]
        a = -e[0] if e[0] else 1
        q = (((a,) + e[1:], c),) + rest
    a, b = _poly(n, p), _poly(n, q)
    assert (laurent_render(a) == laurent_render(b)) == (a == b)


def test_exponents_are_unbounded():
    # x^(2**40) squared needs 42 bits in its exponent
    big = monomial(2, (2**40, 0))
    square = big * big
    assert square.terms == (((2**41, 0), 1),)
    assert laurent_render(square) == "x1^%d" % 2**41
    assert laurent_divexact(square, big) == big
    one_plus_x2 = monomial(2, (0, 0)) + variable(2, 1)
    product = square * one_plus_x2 * monomial(2, (0, -(2**40)))
    assert laurent_render(product) == "x1^%d*x2^%d + x1^%d*x2^%d" % (
        2**41, 1 - 2**40, 2**41, -(2**40))
    assert laurent_divexact(product, big * one_plus_x2) == big * monomial(
        2, (0, -(2**40)))


def test_equal_values_hash_alike_across_construction_paths():
    x1, x2 = variable(2, 0), variable(2, 1)
    built = (x1 + x2) * (x1 - x2) + x2 * x2
    direct = from_dict(2, {(2, 0): 1})
    assert built == direct
    assert hash(built) == hash(direct)
    assert len({built, direct}) == 1
