"""Differential tests: the packed-exponent kernel against the reference.

`laurent_reference` is the plain dict-of-exponent-tuples arithmetic.  On
hypothesis-generated polynomials the kernel must produce the same
canonical terms for ``+``, ``*`` and exact division, raise
``LaurentDivisionError`` wherever the reference does, and raise
``DimensionError`` wherever an exponent would leave the packed range.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import laurent_reference as ref
from clusterchar.errors import DimensionError, LaurentDivisionError
from clusterchar.laurent import (
    MAX_EXPONENT,
    MIN_EXPONENT,
    from_dict,
    laurent_divexact,
    laurent_render,
    monomial,
    variable,
)


def _poly(n, terms):
    return from_dict(n, dict(terms))


def _with_bounds(p):
    """``p`` with its exponent bounds already decoded, as a product's are."""
    p._bounds()
    return p


def _in_range(terms):
    return all(MIN_EXPONENT <= a <= MAX_EXPONENT for e, _ in terms for a in e)


def _check_bounds(p):
    """The exponent bounds a value carries are exactly its terms'."""
    if p.is_zero():
        return
    columns = list(zip(*(e for e, _ in p.terms)))
    assert p._bounds() == (tuple(map(min, columns)), tuple(map(max, columns)))


@st.composite
def poly_pairs(draw, exponents=st.integers(-3, 3), max_terms=6):
    n = draw(st.integers(1, 4))
    vectors = st.tuples(*[exponents] * n)
    terms = st.dictionaries(vectors, st.integers(-6, 6), max_size=max_terms)
    p, q = draw(terms), draw(terms)
    return n, ref.canonical(p), ref.canonical(q)


# Exponents near both ends of the packed range as well as small ones, so
# that sums of exponents can cross a field boundary.
EDGE = st.one_of(
    st.integers(-3, 3),
    st.integers(MAX_EXPONENT - 3, MAX_EXPONENT),
    st.integers(MIN_EXPONENT, MIN_EXPONENT + 3),
)


@given(poly_pairs())
@settings(max_examples=150, deadline=None)
def test_add_matches_reference(case):
    n, p, q = case
    expected = ref.add(p, q)
    for s in (
        _poly(n, p) + _poly(n, q),
        _with_bounds(_poly(n, p)) + _with_bounds(_poly(n, q)),
    ):
        assert s.terms == expected
        assert s == _poly(n, expected)
        _check_bounds(s)


@given(poly_pairs())
@settings(max_examples=150, deadline=None)
def test_mul_matches_reference(case):
    n, p, q = case
    prod = _poly(n, p) * _poly(n, q)
    assert prod.terms == ref.mul(p, q)
    _check_bounds(prod)


@given(poly_pairs())
@settings(max_examples=150, deadline=None)
def test_exact_division_matches_reference(case):
    n, p, q = case
    assume(q)
    prod = ref.mul(p, q)
    quot = laurent_divexact(_poly(n, prod), _poly(n, q))
    assert quot.terms == ref.divexact(prod, q) == p
    _check_bounds(quot)


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
def test_mul_raises_instead_of_wrapping(case):
    n, p, q = case
    expected = ref.mul(p, q)
    bounds_fit = _in_range(
        [(tuple(a + b for a, b in zip(e1, e2)), 1) for e1, _ in p for e2, _ in q]
    )
    if bounds_fit:
        assert (_poly(n, p) * _poly(n, q)).terms == expected
    else:
        with pytest.raises(DimensionError):
            _poly(n, p) * _poly(n, q)


@given(poly_pairs(exponents=EDGE, max_terms=4))
@settings(max_examples=150, deadline=None)
def test_edge_exponents_add_and_round_trip(case):
    n, p, q = case
    s = _poly(n, p) + _poly(n, q)
    assert s.terms == ref.add(p, q)
    _check_bounds(s)


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
        a = -e[0] if e[0] not in (0, MIN_EXPONENT) else e[0] + 1
        q = (((a,) + e[1:], c),) + rest
    a, b = _poly(n, p), _poly(n, q)
    assert (laurent_render(a) == laurent_render(b)) == (a == b)


def test_out_of_range_exponents_raise():
    with pytest.raises(DimensionError):
        monomial(1, (MAX_EXPONENT + 1,))
    with pytest.raises(DimensionError):
        from_dict(2, {(0, MIN_EXPONENT - 1): 1})
    top = monomial(2, (MAX_EXPONENT, 0))
    with pytest.raises(DimensionError):
        top * variable(2, 0)
    bottom = monomial(2, (0, MIN_EXPONENT))
    with pytest.raises(DimensionError):
        bottom * bottom
    # the last exponent on each side is still representable
    assert (top * monomial(2, (0, 1))).terms == (((MAX_EXPONENT, 1), 1),)
    assert (bottom * variable(2, 0)).terms == (((1, MIN_EXPONENT), 1),)


def test_division_with_out_of_range_quotient_raises():
    top = monomial(2, (MAX_EXPONENT, 0))
    with pytest.raises(DimensionError):
        laurent_divexact(top, monomial(2, (-1, 0)))
    one_plus_x2 = monomial(2, (0, 0)) + variable(2, 1)
    with pytest.raises(DimensionError):
        laurent_divexact(top * one_plus_x2, monomial(2, (-1, 0)) * one_plus_x2)
    bottom = monomial(2, (0, MIN_EXPONENT))
    with pytest.raises(DimensionError):
        laurent_divexact(bottom, variable(2, 1))


def test_equal_values_hash_alike_across_construction_paths():
    x1, x2 = variable(2, 0), variable(2, 1)
    built = (x1 + x2) * (x1 - x2) + x2 * x2
    direct = from_dict(2, {(2, 0): 1})
    assert built == direct
    assert hash(built) == hash(direct)
    assert len({built, direct}) == 1
