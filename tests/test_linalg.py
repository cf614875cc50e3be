from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterchar import linalg
from clusterchar.errors import DimensionError
from clusterchar.linalg import identity, kernel_basis, matrix, rank, solve, zeros


def test_kernel_of_identity_is_trivial():
    assert kernel_basis(identity(2)).cols == 0


def test_kernel_of_zero_is_everything():
    k = kernel_basis(zeros(2, 3))
    assert k.cols == 3
    assert k.rows == 3


def test_rank_examples():
    assert rank(identity(4)) == 4
    assert rank(matrix([[1, 2], [2, 4]])) == 1


def test_solve_identity():
    rhs = matrix([[3], [5]])
    assert solve(identity(2), rhs) == rhs


def test_solve_inconsistent():
    assert solve(zeros(2, 2), matrix([[1], [0]])) is None


def test_solve_triangular():
    m = matrix([[1, 1], [0, 1]])
    rhs = matrix([[2], [1]])
    assert solve(m, rhs) == matrix([[1], [1]])


def test_fractions_normalize():
    m = matrix([[Fraction(4, 2)]])
    assert m.entries == (2,)
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
    k = kernel_basis(m)
    assert not any(linalg.mat_mul(m, k).entries)
    assert rank(m) + k.cols == m.cols


@given(small_matrices())
@settings(max_examples=100, deadline=None)
def test_rank_of_transpose(m):
    assert rank(m) == rank(linalg.transpose(m))

