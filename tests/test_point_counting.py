"""Differential tests: the admissible-subspace counter against the reference,
and the single-class fit against the whole-box fit.

`grassmannian_reference` enumerates every subspace at every vertex and
filters by arrow closure.  On hypothesis-generated small modules over
the point, a loop, linear A3 and the shipped a4 and d4 algebras (whose
oriented cycles exercise the membership checks) the two must produce
identical tables of every class's count at p = 2 and 3.
"""

import random
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import grassmannian_reference as ref
from module_strategies import conjugate, loop_modules, modules
from clusterchar import grassmannian, linalg
from clusterchar.cli import run
from clusterchar.errors import NonPolynomialCountError, ResourceLimitError
from clusterchar.grassmannian import (
    _containing,
    _count_backtrack,
    _counted_classes,
    _echelon,
    _fixed_point_classes,
    counting_polynomial,
    gaussian_binomial,
)
from clusterchar.modules import Representation, direct_sum
from clusterchar.polygon import interval_module, linear_an_algebra

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
        box = [range(d + 1) for d in m.dims]
        assert _count_backtrack(m, box, p) == ref.count_all_subreps(m, p)

    check()


@pytest.mark.parametrize("p", [2, 3])
def test_loop_tables_match_reference(algebras, p):
    @given(loop_modules(algebras["loop"]))
    @settings(max_examples=30, deadline=None)
    def check(m):
        box = [range(d + 1) for d in m.dims]
        assert _count_backtrack(m, box, p) == ref.count_all_subreps(m, p)

    check()


# -- the budget caps the nodes visited -------------------------------------


def test_unconstrained_vertex_is_one_node(algebras, monkeypatch):
    # no arrows: Gr_3(F_7^6) is a Gaussian binomial, not an enumeration
    monkeypatch.setattr(grassmannian, "DEFAULT_BUDGET", 1)
    big = Representation(algebras["point"], (6,))
    assert _count_backtrack(big, [(3,)], 7) == {(3,): gaussian_binomial(6, 3, 7)}


def test_budget_counts_nodes_visited(monkeypatch):
    # over 1 -> 2 with the identity on F_2^2, Gr_(1,1): three lines at the
    # source are tried, and each forces U_2, a one-node weight: six nodes
    m = Representation(linear_an_algebra(2), (2, 2), {"a1": linalg.identity(2)})
    monkeypatch.setattr(grassmannian, "DEFAULT_BUDGET", 6)
    assert _count_backtrack(m, [(1,), (1,)], 2) == {(1, 1): 3}
    monkeypatch.setattr(grassmannian, "DEFAULT_BUDGET", 5)
    with pytest.raises(ResourceLimitError, match="over 5 nodes"):
        _count_backtrack(m, [(1,), (1,)], 2)


def test_small_budget_exits_3(capsys, data_dir, monkeypatch):
    monkeypatch.setattr(grassmannian, "DEFAULT_BUDGET", 2)
    code = run(
        ["grassmannian", str(data_dir / "a4.alg"), str(data_dir / "a4_M.mod"),
         "--dim", "1,1,0,0"]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "point-count budget exceeded (over 2 nodes visited)" in captured.err


def test_xvalue_budget_exits_3(capsys, data_dir, tmp_path, monkeypatch):
    # the character's path (every class at once) honours the same cap;
    # over the D4 star c maps its basis vector onto both at 4, which then
    # share a torus weight, and the module is a brick, which no Fitting
    # split reaches: it is point-counted whole
    alg = tmp_path / "d4_star.alg"
    alg.write_text(
        "[quiver]\nvertices: 1 2 3 4\narrow: a 1 4\narrow: b 2 4\narrow: c 3 4\n"
    )
    mod = tmp_path / "star.mod"
    mod.write_text(
        "[module]\ndims: 1 1 1 2\nmatrix a: [[1], [0]]\nmatrix b: [[0], [1]]\n"
        "matrix c: [[1], [1]]\n"
    )
    monkeypatch.setattr(grassmannian, "DEFAULT_BUDGET", 2)
    code = run(["xvalue", str(alg), str(mod)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "point-count budget exceeded (over 2 nodes visited)" in captured.err


def _write_module(path, m):
    path.write_text(
        "[module]\ndims: %s\n" % " ".join(map(str, m.dims))
        + "".join("matrix %s: %s\n" % (name, mat.to_lists()) for name, mat in m.matrices.items())
    )
    return str(path)


def test_xvalue_counts_no_points_of_a_conjugated_interval_sum(
    capsys, data_dir, tmp_path, monkeypatch
):
    # M[1,3] + M[1,2] + M[2,3] over linear A3, conjugated off the
    # fixed-point route: the character splits it into intervals and
    # sweeps nothing, while `grassmannian` still counts the whole module
    an3 = linear_an_algebra(3)
    intervals = [interval_module(an3, 1, 3), interval_module(an3, 1, 2), interval_module(an3, 2, 3)]
    plain = direct_sum(direct_sum(*intervals[:2]), intervals[2])
    m = conjugate(plain, random.Random(3))
    assert _fixed_point_classes(plain) is not None
    assert _fixed_point_classes(m) is None
    alg = str(data_dir / "an3.alg")
    plain_mod = _write_module(tmp_path / "plain.mod", plain)
    mod = _write_module(tmp_path / "conjugated.mod", m)
    assert run(["xvalue", alg, plain_mod]) == 0
    expected = capsys.readouterr().out
    sweeps = []
    count = grassmannian._count_backtrack
    monkeypatch.setattr(
        grassmannian, "_count_backtrack", lambda *args: sweeps.append(args[2]) or count(*args)
    )
    assert run(["xvalue", alg, mod]) == 0
    assert capsys.readouterr().out == expected
    assert sweeps == []
    assert run(["grassmannian", alg, mod, "--dim", "1,2,1"]) == 0
    chi = dict(_fixed_point_classes(plain))[1, 2, 1]
    assert capsys.readouterr().out.endswith("chi = %d\n" % chi)
    assert sweeps


# -- one driver behind both fitting entry points ---------------------------


@pytest.mark.parametrize(
    "name, max_dim", [("point", 4), ("a3", 3), ("a4", 2), ("d4", 2)]
)
def test_single_class_fits_agree_with_the_box(algebras, name, max_dim):
    # counting_polynomial fits one class from its own sweeps; _counted_classes
    # fits the whole box from sweeps over every class at a superset of its primes
    # (tree modules included, which submodule_classes answers by fixed points)
    @given(modules(algebras[name], max_dim))
    @settings(max_examples=40, deadline=None)
    def check(m):
        try:
            chi = dict(_counted_classes(m))
        except (NonPolynomialCountError, ResourceLimitError):
            return
        for e in product(*(range(d + 1) for d in m.dims)):
            assert counting_polynomial(m, e).evaluate(1) == chi.get(e, 0)

    check()
