from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterchar import grassmannian
from clusterchar.errors import (
    InputError,
    NonPolynomialCountError,
    ResourceLimitError,
)
from clusterchar.grassmannian import (
    CountingPolynomial,
    _fit_and_verify,
    _interpolate,
    count_all_subreps,
    count_points,
    counting_polynomial,
    euler_char,
    gaussian_binomial,
    submodule_classes,
)
from clusterchar.linalg import identity
from clusterchar.modules import Representation, direct_sum, dual, simple
from clusterchar.polygon import interval_module, linear_an_algebra
from clusterchar.quiver import load_algebra

ONE_VERTEX = "[quiver]\nvertices: 1\n"


@pytest.fixture(scope="module")
def point():
    return load_algebra(ONE_VERTEX)


# -- independent oracle over F_2: subspaces as addition-closed subsets -------


def _all_f2_subspaces(d):
    vectors = list(product((0, 1), repeat=d))
    subspaces = []
    for chosen in product((0, 1), repeat=len(vectors)):
        subset = {v for v, c in zip(vectors, chosen) if c}
        if (0,) * d not in subset:
            continue
        if all(
            tuple((a + b) % 2 for a, b in zip(u, v)) in subset
            for u in subset
            for v in subset
        ):
            subspaces.append(subset)
    return subspaces


def _brute_count_f2(m, e):
    q = m.algebra.quiver
    per_vertex = [
        [s for s in _all_f2_subspaces(m.dims[i]) if len(s) == 2 ** e[i]]
        for i in range(q.n)
    ]
    arrows = [
        (
            a.source,
            a.target,
            [
                [m.matrices[a.name].entry(r, c) % 2 for c in range(m.dims[a.source])]
                for r in range(m.dims[a.target])
            ],
        )
        for a in q.arrows
    ]
    count = 0
    for combo in product(*per_vertex):
        ok = True
        for i, j, rows in arrows:
            for vec in combo[i]:
                image = tuple(
                    sum(x * y for x, y in zip(row, vec)) % 2 for row in rows
                )
                if image not in combo[j]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def test_brute_force_agreement_f2(a4_M, d4_M):
    sum_mod = direct_sum(
        interval_module(3, 1, 2), simple(interval_module(3, 1, 1).algebra, 2)
    )
    for m in (a4_M, d4_M, sum_mod):
        for e in product(*[range(d + 1) for d in m.dims]):
            assert count_points(m, e, 2) == _brute_count_f2(m, e)


# -- worked instances ---------------------------------------------------------


def test_single_vertex_counts(point):
    ksq = Representation(point, (2,))
    assert count_points(ksq, (1,), 2) == 3
    assert count_points(ksq, (1,), 3) == 4
    assert gaussian_binomial(2, 1, 2) == 3
    assert counting_polynomial(ksq, (1,)).coeffs == (1, 1)
    assert euler_char(ksq, (1,)) == 2


def test_a4_module_counts(a4_M):
    for p in (2, 3, 5):
        assert count_points(a4_M, (0, 1, 0, 0), p) == 0
    assert count_points(a4_M, (1, 0, 0, 0), 2) == 1
    assert count_points(a4_M, (1, 0, 0, 0), 3) == 1


def test_chi_of_empty_dimension_vector(a4_M):
    assert euler_char(a4_M, (0, 0, 0, 0)) == 1
    assert euler_char(a4_M, (1, 1, 0, 0)) == 1
    assert euler_char(a4_M, (0, 1, 0, 0)) == 0


def test_submodule_classes_zero_module(a4):
    from clusterchar.modules import zero_module

    assert submodule_classes(zero_module(a4)) == [((0, 0, 0, 0), 1)]


def test_submodule_classes_worked_instances(a4_M, d4_M):
    assert submodule_classes(a4_M) == [
        ((0, 0, 0, 0), 1),
        ((1, 0, 0, 0), 1),
        ((1, 1, 0, 0), 1),
    ]
    assert submodule_classes(d4_M) == [
        ((0, 0, 0, 0), 1),
        ((0, 0, 1, 0), 1),
        ((0, 1, 0, 0), 1),
        ((0, 1, 1, 0), 1),
        ((1, 1, 1, 0), 1),
    ]


def test_interval_submodules_are_suffixes():
    m = interval_module(4, 2, 4)
    expected = []
    for c in (5, 4, 3, 2):  # suffix [c, 4], with c = 5 the zero class
        expected.append(tuple(1 if c <= v <= 4 else 0 for v in range(1, 5)))
    assert sorted(e for e, _ in submodule_classes(m)) == sorted(expected)
    assert all(chi == 1 for _, chi in submodule_classes(m))


def test_partition_check(a4_M, d4_M):
    # summing the fixed-class counts over the box reproduces one
    # unconstrained enumeration of all subrepresentations
    for m in (a4_M, d4_M):
        for p in (2, 3):
            table = count_all_subreps(m, p)
            box = product(*[range(d + 1) for d in m.dims])
            assert sum(count_points(m, e, p) for e in box) == sum(table.values())


def test_convolution_identity(a4, a4_M):
    # chi(Gr_g(m + n)) = sum over e+f=g of chi(Gr_e m) chi(Gr_f n)
    pairs = [
        (a4_M, simple(a4, 0)),
        (a4_M, a4_M),
        (simple(a4, 1), simple(a4, 2)),
    ]
    for m, n in pairs:
        s = direct_sum(m, n)
        chi_m = dict(submodule_classes(m))
        chi_n = dict(submodule_classes(n))
        chi_s = dict(submodule_classes(s))
        box = product(*[range(d + 1) for d in s.dims])
        for g in box:
            expected = 0
            for e, ce in chi_m.items():
                f = tuple(x - y for x, y in zip(g, e))
                if all(x >= 0 for x in f):
                    expected += ce * chi_n.get(f, 0)
            assert chi_s.get(tuple(g), 0) == expected


def test_duality(a4_M, d4_M):
    for m in (a4_M, d4_M):
        md = dual(m)
        chi_m = dict(submodule_classes(m))
        chi_d = dict(submodule_classes(md))
        box = product(*[range(d + 1) for d in m.dims])
        for e in box:
            co_e = tuple(d - x for d, x in zip(m.dims, e))
            assert chi_m.get(tuple(e), 0) == chi_d.get(co_e, 0)


def test_e_out_of_range(a4_M):
    with pytest.raises(InputError):
        count_points(a4_M, (2, 0, 0, 0), 2)
    with pytest.raises(InputError):
        count_points(a4_M, (0, 0, 0, 0, 0), 2)


def test_counting_polynomial_checks_e_first(a4_M):
    # an entry above the module's dimension makes the degree bound negative
    with pytest.raises(InputError, match="out of range"):
        counting_polynomial(a4_M, (2, 1, 0, 0))
    with pytest.raises(InputError, match="wrong length"):
        counting_polynomial(a4_M, (1, 1, 0))


@pytest.mark.parametrize("e", [(0.9, 1.2), ("0", 1)], ids=["float", "str"])
@pytest.mark.parametrize(
    "fn", [lambda m, e: count_points(m, e, 5), counting_polynomial],
    ids=["count_points", "counting_polynomial"],
)
def test_non_integer_dim_vector_rejected(fn, e):
    # no coercion: (0.9, 1.2) is not read as e = (0, 1)
    with pytest.raises(InputError, match="must be integers"):
        fn(interval_module(2, 1, 2), e)


def test_non_prime_rejected(a4_M):
    with pytest.raises(InputError):
        count_points(a4_M, (1, 0, 0, 0), 4)


def test_budget_cap(monkeypatch):
    # the source of 1 -> 2 is enumerated (the arrow reads it later), and
    # Gr_3(F_7^6) has far more than 100 points; over the point the same
    # Grassmannian is one closed-form node (test_point_counting)
    monkeypatch.setattr(grassmannian, "DEFAULT_BUDGET", 100)
    big = Representation(linear_an_algebra(2), (6, 6), {"a1": identity(6)})
    with pytest.raises(ResourceLimitError):
        count_points(big, (3, 3), 7)


def test_prime_pool_exhaustion(point):
    big = Representation(point, (8,))
    with pytest.raises(ResourceLimitError):
        euler_char(big, (4,))  # degree 16 needs more than 12 primes


def test_explicit_primes_must_suffice(point):
    ksq = Representation(point, (2,))
    with pytest.raises(ResourceLimitError):
        euler_char(ksq, (1,), primes=[2, 3])  # degree 1 needs 3 primes
    assert euler_char(ksq, (1,), primes=[2, 3, 5]) == 2


def test_fit_verification_catches_non_polynomial():
    # counts that no degree-1 polynomial can match at the extra prime
    with pytest.raises(NonPolynomialCountError):
        _fit_and_verify([(2, 3), (3, 4), (5, 7)], 1)


def test_fit_rejects_fractional_coefficients():
    # degree-2 fit through three points with a half-integer leading term
    with pytest.raises(NonPolynomialCountError):
        _fit_and_verify([(2, 1), (3, 2), (5, 7), (7, 14)], 2)


@given(
    st.lists(st.fractions(max_denominator=6), min_size=1, max_size=6),
    st.sets(st.integers(-5, 40), min_size=6, max_size=6),
)
@settings(max_examples=100, deadline=None)
def test_interpolation_recovers_the_polynomial(coeffs, xs):
    # rational coefficients, so values at integer points are fractions too
    xs = sorted(xs)[: len(coeffs)]
    points = [(x, sum(c * x**k for k, c in enumerate(coeffs))) for x in xs]
    got = _interpolate(points)
    assert got == coeffs
    assert all(type(c) is Fraction for c in got)


def test_counting_polynomial_rendering():
    assert str(CountingPolynomial((1, 1))) == "q + 1"
    assert str(CountingPolynomial(())) == "0"
    assert str(CountingPolynomial((2, 0, 3))) == "3*q^2 + 2"
