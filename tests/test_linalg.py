from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_reference
from opposite_reference import transpose
from clusterchar import linalg
from clusterchar.errors import DimensionError
from clusterchar.linalg import identity, matrix, rank, zeros


def _kernel(a):
    """The null space of a as the program reads it: `null_vectors` of the
    reduced echelon form."""
    red, pivots = linalg.row_reduce(a.to_lists(), a.cols)
    return linalg.null_vectors(red, pivots, a.cols)


def test_kernel_of_identity_is_trivial():
    assert _kernel(identity(2)) == []


def test_kernel_of_zero_is_everything():
    assert _kernel(zeros(2, 3)) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_rank_examples():
    assert rank(identity(4)) == 4
    assert rank(matrix([[1, 2], [2, 4]])) == 1


def test_fractions_normalize():
    m = matrix([[Fraction(4, 2), 3], [Fraction(1, 2), True]])
    assert [(type(x), x) for x in m.entries] == [
        (int, 2), (int, 3), (Fraction, Fraction(1, 2)), (bool, True)
    ]
    with pytest.raises(DimensionError):
        matrix([[0.5]])


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    data = draw(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return matrix(data)


@given(small_matrices())
@settings(max_examples=150, deadline=None)
def test_kernel_annihilates_and_dimension_formula(m):
    k = _kernel(m)
    assert not any(sum(map(mul, m.row(i), v)) for v in k for i in range(m.rows))
    assert rank(m) + len(k) == m.cols


@given(small_matrices())
@settings(max_examples=100, deadline=None)
def test_rank_of_transpose(m):
    assert rank(m) == rank(transpose(m))



def _typed(rows):
    return [[(type(x), x) for x in row] for row in rows]


scalars = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=5),
)


@st.composite
def rational_rows(draw):
    cols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(scalars, min_size=cols, max_size=cols), max_size=5))
    # entries arrive normalized, as from a Matrix
    return [[linalg.normalize(x) for x in row] for row in rows], cols


@given(rational_rows(), st.integers(0, 6))
@settings(max_examples=200, deadline=None)
def test_row_reduce_matches_reference(case, limit):
    rows, cols = case
    limit = min(limit, cols)
    _assert_pivot_rows_match_reference(rows, limit)


def _assert_pivot_rows_match_reference(rows, limit):
    """The program returns the reference's pivots and its first
    len(pivots) rows, typed, and leaves its input as it was."""
    data = [list(r) for r in rows]
    got, pivots = linalg.row_reduce(data, limit)
    assert data == rows
    want, want_pivots = linalg_reference.row_reduce([list(r) for r in rows], limit)
    assert pivots == want_pivots
    assert _typed(got) == _typed(want[: len(pivots)])


big_scalars = st.one_of(
    st.just(0),
    st.integers(-10**12, 10**12),
    st.fractions(min_value=-10**12, max_value=10**12, max_denominator=10**6),
)


@st.composite
def large_rational_rows(draw):
    """Up to 8 rows of up to 12 columns with large entries; a row may be
    zero or a multiple of an earlier one, so that ranks drop."""
    cols = draw(st.integers(1, 12))
    rows: list[list] = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("fresh", "zero", "multiple")))
        if kind == "zero":
            rows.append([0] * cols)
        elif kind == "multiple" and rows:
            factor = draw(scalars.filter(bool))
            rows.append([x * factor for x in draw(st.sampled_from(rows))])
        else:
            rows.append(draw(st.lists(big_scalars, min_size=cols, max_size=cols)))
    return [[linalg.normalize(x) for x in row] for row in rows], cols


@given(large_rational_rows(), st.data())
@settings(max_examples=200, deadline=None)
def test_row_reduce_matches_reference_past_the_limit(case, data):
    # pivots only among the first limit columns, so that the pivot rows
    # keep entries past the limit, which must come out as the reference's
    rows, cols = case
    _assert_pivot_rows_match_reference(rows, data.draw(st.integers(0, max(cols - 1, 0))))


@given(large_rational_rows())
@settings(max_examples=150, deadline=None)
def test_rank_and_kernel_match_reference(case):
    rows, cols = case
    a = matrix(rows, rows=len(rows), cols=cols)
    assert rank(a) == len(linalg_reference.row_reduce([list(r) for r in rows], cols)[1])
    assert _typed(_kernel(a)) == _typed(linalg_reference.kernel_basis(rows, cols))


@st.composite
def products(draw):
    # zero rows, zero inner size and zero columns included
    n, k, m = (draw(st.integers(0, 3)) for _ in range(3))
    a = [[draw(scalars) for _ in range(k)] for _ in range(n)]
    b = [[draw(scalars) for _ in range(m)] for _ in range(k)]
    return matrix(a, rows=n, cols=k), matrix(b, rows=k, cols=m)


@given(products())
@settings(max_examples=150, deadline=None)
def test_mat_mul_matches_the_definition(ab):
    a, b = ab
    want = matrix(
        [[sum(a.entry(i, k) * b.entry(k, j) for k in range(a.cols))
          for j in range(b.cols)] for i in range(a.rows)],
        rows=a.rows, cols=b.cols,
    )
    got = linalg.mat_mul(a, b)
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert [(type(x), x) for x in got.entries] == [(type(x), x) for x in want.entries]


@st.composite
def square_matrices(draw):
    n = draw(st.integers(0, 4))
    data = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    return matrix(data, rows=n, cols=n)


@given(square_matrices(), st.integers(1, 6))
@settings(max_examples=150, deadline=None)
def test_rational_eigenvalues_are_where_the_rank_drops(a, scale):
    # an integer matrix has a monic integer characteristic polynomial, so
    # its rational eigenvalues are integers, within the largest row sum;
    # dividing the matrix by ``scale`` divides them too
    n = a.rows
    bound = max((sum(map(abs, a.row(i))) for i in range(n)), default=0)
    expected = [
        lam for lam in range(-bound, bound + 1)
        if rank(matrix([[a.entry(i, j) - (lam if i == j else 0) for j in range(n)]
                        for i in range(n)], rows=n, cols=n)) < n
    ]
    assert linalg.rational_eigenvalues(a) == expected
    scaled = matrix([[Fraction(x, scale) for x in a.row(i)] for i in range(n)], rows=n, cols=n)
    assert linalg.rational_eigenvalues(scaled) == [Fraction(lam, scale) for lam in expected]


def test_rational_eigenvalues_of_large_entries():
    # Sturm bisection, not a divisor search: 10^18 takes some 60 halvings
    big = 10**18
    assert linalg.rational_eigenvalues(matrix([[big, 5], [0, 1 - big]])) == [1 - big, big]
    assert linalg.rational_eigenvalues(matrix([[0, 1], [2, 0]])) == []  # +-sqrt(2)
