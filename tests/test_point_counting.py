"""Differential tests: the admissible-subspace counter against the reference.

`grassmannian_reference` enumerates every subspace at every vertex and
filters by arrow closure.  On hypothesis-generated small modules over
the point, a loop, linear A3 and the shipped a4 and d4 algebras (whose
oriented cycles exercise the membership checks) the two must produce
identical `count_all_subreps` tables at p = 2 and 3.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import grassmannian_reference as ref
from module_strategies import loop_modules, modules
from clusterchar import grassmannian, linalg
from clusterchar.cli import run
from clusterchar.errors import ResourceLimitError
from clusterchar.grassmannian import (
    _containing,
    _echelon,
    count_all_subreps,
    count_points,
    gaussian_binomial,
)
from clusterchar.modules import Representation
from clusterchar.polygon import linear_an_algebra

@given(
    st.integers(2, 3).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.lists(st.lists(st.integers(0, p - 1), min_size=4, max_size=4), max_size=3),
        )
    ),
    st.integers(0, 4),
)
@settings(max_examples=60, deadline=None)
def test_containing_lists_the_rref_of_each_superspace(case, k):
    # the lifted bases are exactly the canonical bases of the subspaces
    # of F_p^4 that contain w, so that equal subspaces are equal keys
    p, vectors = case
    w = _echelon(vectors, p)
    assume(k >= len(w[1]))
    expected = [
        (tuple(map(tuple, rows)), tuple(pivots))
        for rows, pivots in ref.subspaces(4, k, p)
        if all(ref._in_span(rows, pivots, vec, p) for vec in w[0])
    ]
    assert sorted(_containing(w, 4, k, p)) == sorted(expected)


@pytest.mark.parametrize(
    "name, max_dim", [("point", 4), ("a3", 3), ("a4", 2), ("d4", 2)]
)
@pytest.mark.parametrize("p", [2, 3])
def test_tables_match_reference(algebras, name, max_dim, p):
    @given(modules(algebras[name], max_dim))
    @settings(max_examples=40, deadline=None)
    def check(m):
        assert count_all_subreps(m, p) == ref.count_all_subreps(m, p)

    check()


@pytest.mark.parametrize("p", [2, 3])
def test_loop_tables_match_reference(algebras, p):
    @given(loop_modules(algebras["loop"]))
    @settings(max_examples=30, deadline=None)
    def check(m):
        assert count_all_subreps(m, p) == ref.count_all_subreps(m, p)

    check()


# -- the budget caps the nodes visited -------------------------------------


def test_unconstrained_vertex_is_one_node(algebras):
    # no arrows: Gr_3(F_7^6) is a Gaussian binomial, not an enumeration
    big = Representation(algebras["point"], (6,))
    assert count_points(big, (3,), 7, budget=1) == gaussian_binomial(6, 3, 7)


def test_budget_counts_nodes_visited():
    # over 1 -> 2 with the identity on F_2^2, Gr_(1,1): three lines at the
    # source are tried, and each forces U_2, a one-node weight: six nodes
    m = Representation(linear_an_algebra(2), (2, 2), {"a1": linalg.identity(2)})
    assert count_points(m, (1, 1), 2, budget=6) == 3
    with pytest.raises(ResourceLimitError, match="over 5 nodes"):
        count_points(m, (1, 1), 2, budget=5)


def test_small_budget_exits_3(capsys, data_dir, monkeypatch):
    real = grassmannian.count_points
    monkeypatch.setattr(
        grassmannian, "count_points", lambda m, e, p: real(m, e, p, budget=2)
    )
    code = run(
        ["grassmannian", str(data_dir / "a4.alg"), str(data_dir / "a4_M.mod"),
         "--dim", "1,1,0,0"]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "point-count budget exceeded (over 2 nodes visited)" in captured.err
