import random

import pytest

from clusterchar import forms, laurent, linalg
from clusterchar.character import (
    CCObject,
    cc_product,
    cc_value,
    combine,
    module_object,
    shift_object,
    verify_triangle,
)
from clusterchar.cli import run
from clusterchar.errors import ConsistencyError
from clusterchar.laurent import laurent_render
from clusterchar.modules import Representation, load_module_file, simple, zero_module
from clusterchar.polygon import interval_module, linear_an_algebra
from clusterchar.quiver import load_algebra, load_algebra_file


def test_shift_objects_give_variables(a4):
    for i in range(4):
        assert cc_value(shift_object(a4, i)) == laurent.variable(4, i)


def test_a4_instance_value(a4_M):
    value = cc_value(module_object(a4_M))
    assert laurent_render(value) == "x2^-1*x3 + x1^-1*x4 + x1^-1*x2^-1*x4"
    num, den = laurent.fraction_parts(value)
    assert laurent_render(num) == "x1*x3 + x2*x4 + x4"
    assert den == (1, 1, 0, 0)


def test_d4_instance_value(d4_M):
    value = cc_value(module_object(d4_M))
    x0, x1, x2, x3 = (laurent.variable(4, i) for i in range(4))
    numerator = (x0 + x3) * (x0 + x3) + x1 * x2 * x3
    assert value * x0 * x1 * x2 == numerator


def test_zero_object_is_one(a4):
    assert cc_value(module_object(zero_module(a4))) == laurent.one(4)


def test_product_with_zero_object(a4, a4_M):
    z = module_object(zero_module(a4))
    assert cc_product(z, module_object(a4_M)) == cc_value(module_object(a4_M))


def test_square_of_shift(a4):
    s = shift_object(a4, 1)
    assert cc_product(s, s) == laurent.variable(4, 1) ** 2


def test_direct_sum_law_with_shift(a4, a4_M):
    lhs = cc_product(module_object(a4_M), shift_object(a4, 2))
    assert lhs == laurent.variable(4, 2) * cc_value(module_object(a4_M))


def test_multiplicativity_on_shipped_pairs(a4, d4, a4_M, d4_M):
    objects = [
        module_object(a4_M),
        module_object(simple(a4, 0)),
        shift_object(a4, 3),
        combine(module_object(simple(a4, 2)), shift_object(a4, 0)),
    ]
    for a in objects:
        for b in objects:
            assert cc_product(a, b) == cc_value(a) * cc_value(b)
    assert cc_product(module_object(d4_M), shift_object(d4, 1)) == cc_value(
        module_object(d4_M)
    ) * laurent.variable(4, 1)


def test_monomial_denominator_property(a4, d4, a4_M, d4_M):
    # Laurent property: the denominator divides x^(dimension vector)
    for m in (a4_M, d4_M, simple(a4, 1), simple(d4, 3), interval_module(4, 2, 3)):
        value = cc_value(module_object(m))
        cleared = value * laurent.monomial(len(m.dims), m.dims)
        assert all(
            all(x >= 0 for x in exps) for exps, _ in cleared.terms
        )


def _random_unimodular(rng, n):
    """A random integer matrix with determinant 1 and its integer inverse."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    inv = [row[:] for row in m]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        # m <- (I + c e_ij) m and inv <- inv (I - c e_ij)
        c = rng.choice((-2, -1, 1, 2))
        for k in range(n):
            m[i][k] += c * m[j][k]
            inv[k][j] -= c * inv[k][i]
    return m, inv


def _conjugate(module, rng):
    """Base change by unimodular matrices at every vertex."""
    n_v = module.algebra.quiver.n
    pairs = [_random_unimodular(rng, module.dims[i]) for i in range(n_v)]
    mats = {}
    for a in module.algebra.quiver.arrows:
        d_t, d_s = module.dims[a.target], module.dims[a.source]
        u_t = linalg.matrix(pairs[a.target][0], rows=d_t, cols=d_t)
        inv_s = linalg.matrix(pairs[a.source][1], rows=d_s, cols=d_s)
        mats[a.name] = linalg.mat_mul(linalg.mat_mul(u_t, module.matrices[a.name]), inv_s)
    return Representation(module.algebra, module.dims, mats)


def test_base_change_invariance(a4_M, d4_M):
    rng = random.Random(20240811)
    from clusterchar.modules import direct_sum

    doubled = direct_sum(a4_M, a4_M)
    for m in (a4_M, d4_M, doubled, interval_module(4, 1, 3)):
        reference = cc_value(module_object(m))
        for _ in range(3):
            conjugated = _conjugate(m, rng)
            assert cc_value(module_object(conjugated)) == reference


def test_verify_triangle_pentagon():
    a2 = linear_an_algebra(2)
    l = module_object(interval_module(2, 1, 1))  # S_1
    m = module_object(simple(a2, 1))  # S_2
    b = module_object(zero_module(a2))
    b_prime = module_object(interval_module(2, 1, 2))
    report = verify_triangle(l, m, b, b_prime)
    assert report.ok
    # symmetric in the two middle terms
    assert verify_triangle(l, m, b_prime, b).ok


def test_verify_triangle_detects_wrong_middle_term():
    a2 = linear_an_algebra(2)
    l = module_object(interval_module(2, 1, 1))
    m = module_object(simple(a2, 1))
    b_prime = module_object(interval_module(2, 1, 2))
    wrong = combine(l, m)  # the split middle term is wrong here
    report = verify_triangle(l, m, wrong, b_prime)
    assert not report.ok
    assert not (report.lhs - report.rhs).is_zero()
    assert "MISMATCH" in report.render()


def test_shift_vector_validation(a4):
    from clusterchar.errors import DimensionError

    with pytest.raises(DimensionError):
        CCObject(zero_module(a4), (1, 0, 0))


def test_values_are_cluster_variables_of_tilted_matrices(data_dir, a4, d4, a4_M, d4_M):
    # the character of each worked instance must appear among the cluster
    # variables generated by pure seed mutation from its own exchange
    # matrix; so must the initial variables themselves
    from clusterchar.mutation import enumerate_cluster_variables, load_matrix_file

    for algebra, module, stem, count in (
        (a4, a4_M, "a4", 14),
        (d4, d4_M, "d4", 16),
    ):
        variables = enumerate_cluster_variables(
            load_matrix_file(data_dir / ("%s_tilted.mat" % stem))
        )
        assert len(variables) == count
        assert cc_value(module_object(module)) in variables
        for i in range(4):
            assert cc_value(shift_object(algebra, i)) in variables


def _three_cycle_object(relations):
    """dims (1,1,0), a=[[1]] over the 3-cycle a: 1->2, b: 2->3, c: 3->1."""
    algebra = load_algebra(
        "[quiver]\nvertices: 1 2 3\narrow: a 1 2\narrow: b 2 3\narrow: c 3 1\n"
        "[relations]\n" + "".join("rel: %s\n" % r for r in relations)
    )
    return module_object(Representation(algebra, (1, 1, 0), {"a": linalg.matrix([[1]])}))


def test_square_of_long_interval():
    # M[1,5] + M[1,5] over linear A5, dims (2, 2, 2, 2, 2); the old
    # product-of-subspace-counts budget refused it
    m = interval_module(5, 1, 5)
    x = cc_value(module_object(m))
    assert cc_value(combine(module_object(m), module_object(m))) == x * x


def test_value_cache_is_per_algebra():
    # the same module data has different characters over these algebras
    over_x = _three_cycle_object(["b.a", "c.b", "a.c"])
    over_y = _three_cycle_object(["c.b.a", "a.c.b", "b.a.c"])
    for _ in range(2):  # the second round reads each algebra's cache
        assert laurent.laurent_render(cc_value(over_x)) == "x2^-1 + x1^-1 + x1^-1*x2^-1*x3"
        assert laurent.laurent_render(cc_value(over_y)) == (
            "x2^-1*x3 + x1^-1*x3 + x1^-1*x2^-1*x3^2"
        )


def test_coindex_mismatch_is_caught(capsys, data_dir, monkeypatch):
    # one more in the coindex read off the relations, at the first vertex
    # of every module: the coindex no longer meets the index through the
    # form matrix, and the character refuses instead of returning a value
    real = forms._relation_coindex

    def corrupted(m):
        return tuple(c + (i == 0) for i, c in enumerate(real(m)))

    monkeypatch.setattr(forms, "_relation_coindex", corrupted)
    algebra = load_algebra_file(data_dir / "a4.alg")
    module = load_module_file(data_dir / "a4_M.mod", algebra=algebra)
    with pytest.raises(ConsistencyError, match=r"^index mismatch: "):
        cc_value(module_object(module))
    assert run(["xvalue", str(data_dir / "a4.alg"), str(data_dir / "a4_M.mod")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "index mismatch: " in captured.err
