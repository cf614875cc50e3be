import re
from fractions import Fraction
from itertools import product
from math import comb, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import modules_reference
from module_strategies import conjugate, loop_modules, modules
from opposite_reference import dual
from clusterchar import grassmannian
from clusterchar.errors import (
    InputError,
    NonPolynomialCountError,
    ResourceLimitError,
)
from clusterchar.grassmannian import (
    CountingPolynomial,
    _count_backtrack,
    _counted_classes,
    _fit_and_verify,
    _fixed_point_classes,
    _good_primes,
    _ranked_paths,
    counting_polynomial,
    degree_bound,
    euler_char,
    gaussian_binomial,
    submodule_classes,
)
from clusterchar.linalg import identity, matrix, rank
from clusterchar.modules import Representation, direct_sum, simple
from clusterchar.polygon import interval_module, linear_an_algebra
from clusterchar.quiver import load_algebra

ONE_VERTEX = "[quiver]\nvertices: 1\n"
KRONECKER = "[quiver]\nvertices: 1 2\narrow: a 1 2\narrow: b 1 2\n"


@pytest.fixture(scope="module")
def point():
    return load_algebra(ONE_VERTEX)


def _points(m, e, p):
    """F_p-points of Gr_e(m), from a sweep over the one class e."""
    return _count_backtrack(m, [(x,) for x in e], p).get(tuple(e), 0)


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
    an3 = linear_an_algebra(3)
    sum_mod = direct_sum(interval_module(an3, 1, 2), simple(an3, 2))
    for m in (a4_M, d4_M, sum_mod):
        for e in product(*[range(d + 1) for d in m.dims]):
            assert _points(m, e, 2) == _brute_count_f2(m, e)


# -- worked instances ---------------------------------------------------------


def test_single_vertex_counts(point):
    ksq = Representation(point, (2,))
    assert _points(ksq, (1,), 2) == 3
    assert _points(ksq, (1,), 3) == 4
    assert gaussian_binomial(2, 1, 2) == 3
    assert counting_polynomial(ksq, (1,)).coeffs == (1, 1)
    assert euler_char(ksq, (1,)) == 2


def test_a4_module_counts(a4_M):
    for p in (2, 3, 5):
        assert _points(a4_M, (0, 1, 0, 0), p) == 0
    assert _points(a4_M, (1, 0, 0, 0), 2) == 1
    assert _points(a4_M, (1, 0, 0, 0), 3) == 1


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
    m = interval_module(linear_an_algebra(4), 2, 4)
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
            table = _count_backtrack(m, [range(d + 1) for d in m.dims], p)
            box = product(*[range(d + 1) for d in m.dims])
            assert sum(_points(m, e, p) for e in box) == sum(table.values())


# these tree modules take the fixed-point route; _counted_classes pins
# point counting on the same instances
ROUTES = (submodule_classes, _counted_classes)


def test_convolution_identity(a4, a4_M):
    # chi(Gr_g(m + n)) = sum over e+f=g of chi(Gr_e m) chi(Gr_f n)
    pairs = [
        (a4_M, simple(a4, 0)),
        (a4_M, a4_M),
        (simple(a4, 1), simple(a4, 2)),
    ]
    for classes, (m, n) in product(ROUTES, pairs):
        s = direct_sum(m, n)
        chi_m = dict(classes(m))
        chi_n = dict(classes(n))
        chi_s = dict(classes(s))
        box = product(*[range(d + 1) for d in s.dims])
        for g in box:
            expected = 0
            for e, ce in chi_m.items():
                f = tuple(x - y for x, y in zip(g, e))
                if all(x >= 0 for x in f):
                    expected += ce * chi_n.get(f, 0)
            assert chi_s.get(tuple(g), 0) == expected


def test_duality(a4_M, d4_M):
    for classes, m in product(ROUTES, (a4_M, d4_M)):
        md = dual(m)
        chi_m = dict(classes(m))
        chi_d = dict(classes(md))
        box = product(*[range(d + 1) for d in m.dims])
        for e in box:
            co_e = tuple(d - x for d, x in zip(m.dims, e))
            assert chi_m.get(tuple(e), 0) == chi_d.get(co_e, 0)


def test_counting_polynomial_checks_e_first(a4_M):
    # an entry above the module's dimension makes the degree bound negative
    with pytest.raises(InputError, match="out of range"):
        counting_polynomial(a4_M, (2, 1, 0, 0))
    with pytest.raises(InputError, match="wrong length"):
        counting_polynomial(a4_M, (1, 1, 0))


@pytest.mark.parametrize("e", [(0.9, 1.2), ("0", 1)], ids=["float", "str"])
@pytest.mark.parametrize("fn", [counting_polynomial], ids=["counting_polynomial"])
def test_non_integer_dim_vector_rejected(fn, e):
    # no coercion: (0.9, 1.2) is not read as e = (0, 1)
    with pytest.raises(InputError, match="must be integers"):
        fn(interval_module(linear_an_algebra(2), 1, 2), e)


def test_budget_cap(monkeypatch):
    # the source of 1 -> 2 is enumerated (the arrow reads it later), and
    # Gr_3(F_7^6) has far more than 100 points; over the point the same
    # Grassmannian is one closed-form node (test_point_counting)
    monkeypatch.setattr(grassmannian, "DEFAULT_BUDGET", 100)
    big = Representation(linear_an_algebra(2), (6, 6), {"a1": identity(6)})
    with pytest.raises(ResourceLimitError):
        _points(big, (3, 3), 7)


def test_prime_pool_exhaustion(point):
    # degree 16: the fit counts at the 18 smallest primes, 2 to 61
    big = Representation(point, (8,))
    assert euler_char(big, (4,)) == comb(8, 4) == 70


def test_default_primes_skip_bad_reductions(a4):
    an3 = linear_an_algebra(3)
    ba_2 = Representation(
        an3, (1, 2, 1), {"a1": matrix([[1], [1]]), "a2": matrix([[1, 1]])}
    )
    assert _good_primes(_ranked_paths(ba_2), 3) == (3, 5, 7)
    d_3 = Representation(a4, (1, 1, 0, 0), {"d": matrix([[3]])})
    assert _good_primes(_ranked_paths(d_3), 2) == (2, 5)


def test_primes_dividing_a_denominator_are_skipped():
    # the regular simple with b/a = 1/2 over the Kronecker quiver: with a
    # acting as 1 and b as 1/2 it has no reduction mod 2, and scaled at
    # vertex 2 to a = 2 and b = 1, a loses its rank mod 2
    kronecker = load_algebra("[quiver]\nvertices: 1 2\narrow: a 1 2\narrow: b 1 2\n")
    halves = Representation(
        kronecker, (1, 1), {"a": matrix([[1]]), "b": matrix([[Fraction(1, 2)]])}
    )
    whole = Representation(kronecker, (1, 1), {"a": matrix([[2]]), "b": matrix([[1]])})
    assert _fixed_point_classes(halves) is None
    assert _good_primes(_ranked_paths(halves), 2) == (3, 5)
    assert _good_primes(_ranked_paths(whole), 2) == (3, 5)
    assert _counted_classes(halves) == _counted_classes(whole)


def test_default_pool_without_enough_good_primes(a4):
    # d divisible by every odd prime up to 37: the search runs past them
    every = prod((3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
    m = Representation(a4, (1, 1, 0, 0), {"d": matrix([[every]])})
    assert _good_primes(_ranked_paths(m), 1) == (2,)
    assert _good_primes(_ranked_paths(m), 2) == (2, 41)


def test_each_path_is_ranked_once_per_fit(d4, monkeypatch):
    # the fibre bound's arrow nullities come from the ranks the good-prime
    # search reads: one rank per basis path of positive length
    ranked = []
    real = grassmannian.rank

    def counted(mat):
        ranked.append(mat)
        return real(mat)

    monkeypatch.setattr(grassmannian, "rank", counted)
    m = Representation(d4, (2, 1, 1, 1), {
        "p": matrix([[1, 1]]), "q": matrix([[1, 1]]), "r": matrix([[1]]), "s": matrix([[1]]),
    })
    fits = grassmannian._fit_classes(m, [range(d + 1) for d in m.dims])
    assert fits
    paths = [p for row in d4.paths_from for ps in row for p in ps if p.arrows]
    assert len(ranked) == len(paths)


def _fit(points, degree):
    """The fit of one column of counts, given as (x, y) points."""
    return next(_fit_and_verify([x for x, _ in points], [[y for _, y in points]], degree))


def test_fit_verification_catches_non_polynomial():
    # counts that no degree-1 polynomial can match at the extra prime
    with pytest.raises(NonPolynomialCountError):
        _fit([(2, 3), (3, 4), (5, 7)], 1)


def test_fit_rejects_fractional_coefficients():
    # degree-2 fit through three points with a half-integer leading term
    with pytest.raises(NonPolynomialCountError):
        _fit([(2, 1), (3, 2), (5, 7), (7, 14)], 2)


FIT_XS = st.lists(st.integers(2, 60), min_size=8, max_size=8, unique=True)


@given(st.lists(st.integers(-9, 9), max_size=5), st.integers(0, 2), FIT_XS)
@settings(max_examples=100, deadline=None)
def test_interpolation_recovers_the_polynomial(coeffs, slack, xs):
    # fitted at a degree bound at or above the true degree, the integer
    # coefficients come back exactly, with trailing zeros trimmed
    degree = max(len(coeffs) - 1, 0) + slack
    points = [(x, sum(c * x**k for k, c in enumerate(coeffs))) for x in xs[: degree + 2]]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    assert _fit(points, degree).coeffs == tuple(coeffs)


@given(st.lists(st.integers(-9, 9), max_size=5), st.integers(1, 3), FIT_XS, st.data())
@settings(max_examples=100, deadline=None)
def test_fit_names_the_moved_verification_point(coeffs, extra, xs, data):
    degree = max(len(coeffs) - 1, 0)
    points = [(x, sum(c * x**k for k, c in enumerate(coeffs)))
              for x in xs[: degree + 1 + extra]]
    j = data.draw(st.integers(degree + 1, len(points) - 1))
    shift = data.draw(st.integers(-5, 5).filter(bool))
    x, y = points[j]
    points[j] = (x, y + shift)
    message = "count at verification prime %d is %d, fit predicts %d" % (x, y + shift, y)
    with pytest.raises(NonPolynomialCountError, match="^%s$" % re.escape(message)):
        _fit(points, degree)


@given(st.lists(st.integers(-9, 9), min_size=3, max_size=5), FIT_XS)
@settings(max_examples=100, deadline=None)
def test_fit_names_the_first_fractional_coefficient(binomial, xs):
    # sum of a_k * C(q, k) is an integer at every prime, and its
    # coefficients in q are rational once some a_k with k >= 2 is nonzero
    coeffs = [Fraction(0)] * len(binomial)
    basis = [Fraction(1)]  # C(q, k), ascending
    for k, a in enumerate(binomial):
        for i, c in enumerate(basis):
            coeffs[i] += a * c
        basis = [((basis[i - 1] if i else 0) - k * (basis[i] if i < len(basis) else 0))
                 / (k + 1) for i in range(len(basis) + 1)]
    first = next((c for c in coeffs if c.denominator != 1), None)
    assume(first is not None)
    degree = len(binomial) - 1
    points = [(x, sum(a * comb(x, k) for k, a in enumerate(binomial)))
              for x in xs[: degree + 2]]
    message = "interpolated count has non-integer coefficient %s" % first
    with pytest.raises(NonPolynomialCountError, match="^%s$" % re.escape(message)):
        _fit(points, degree)


def test_counting_polynomial_rendering():
    assert str(CountingPolynomial((1, 1))) == "q + 1"
    assert str(CountingPolynomial(())) == "0"
    assert str(CountingPolynomial((2, 0, 3))) == "3*q^2 + 2"
    # not a tuple, so that %-formatting takes it as one argument (the CLI)
    assert "%s" % CountingPolynomial((1, 1)) == "q + 1"


# -- torus fixed points ----------------------------------------------------


@pytest.mark.parametrize(
    "name, max_dim", [("point", 4), ("a3", 3), ("a4", 2), ("d4", 2)]
)
def test_fixed_points_agree_with_the_fit(algebras, name, max_dim):
    @given(modules(algebras[name], max_dim))
    @settings(max_examples=40, deadline=None)
    def check(m):
        _check_route_against_fit(m)

    check()


def test_fixed_points_agree_with_the_fit_on_a_loop(algebras):
    @given(loop_modules(algebras["loop"]))
    @settings(max_examples=40, deadline=None)
    def check(m):
        _check_route_against_fit(m)

    check()


def _check_route_against_fit(m):
    classes = _fixed_point_classes(m)
    assume(classes is not None)
    assert submodule_classes(m) == classes
    try:
        fit = _counted_classes(m)
    except (NonPolynomialCountError, ResourceLimitError):
        return  # the fit may refuse (its budget, or a count it cannot verify)
    assert classes == fit


# -- the fibre bound ------------------------------------------------------


def _fibre_bound(m, e):
    """T(e): the sum over v of max(0, e_v - r_v)(d_v - e_v), with r_v the
    largest e_s - nullity(a) over the arrows a: s -> v with s < v."""
    r = [0] * len(e)
    for a in m.algebra.quiver.arrows:
        if a.source < a.target:
            nullity = m.dims[a.source] - rank(m.matrices[a.name])
            r[a.target] = max(r[a.target], e[a.source] - nullity)
    return sum(max(0, x - w) * (d - x) for x, w, d in zip(e, r, m.dims))


def _check_fit_at_the_fibre_bound(m):
    # refitted at its ambient degree bound, on the primes the largest such
    # bound needs, every class has degree at most its fibre bound, and the
    # fit at the fibre bound is the same polynomial
    box = [range(d + 1) for d in m.dims]
    needed = sum(max(x * (d - x) for x in range(d + 1)) for d in m.dims) + 2
    try:
        ps = _good_primes(_ranked_paths(m), needed)
        tables = [_count_backtrack(m, box, p) for p in ps]
        ambient = {
            e: _fit([(p, t.get(e, 0)) for p, t in zip(ps, tables)], degree_bound(m, e))
            for e in sorted(set().union(*tables))
        }
    except (NonPolynomialCountError, ResourceLimitError):
        return  # the reference refuses (its budget, or a count it cannot verify)
    for e, poly in ambient.items():
        assert len(poly.coeffs) - 1 <= _fibre_bound(m, e)
    assert grassmannian._fit_classes(m, box) == ambient


@pytest.mark.parametrize(
    "name, max_dim", [("point", 4), ("a3", 3), ("a4", 2), ("d4", 2)]
)
def test_fibre_bound_keeps_every_fit(algebras, name, max_dim):
    @given(modules(algebras[name], max_dim))
    @settings(max_examples=40, deadline=None)
    def check(m):
        _check_fit_at_the_fibre_bound(m)

    check()


def test_fibre_bound_keeps_every_fit_on_a_loop(algebras):
    @given(loop_modules(algebras["loop"]))
    @settings(max_examples=40, deadline=None)
    def check(m):
        _check_fit_at_the_fibre_bound(m)

    check()


def test_fit_counts_at_the_primes_its_fibre_bound_needs(monkeypatch):
    # a1 is injective and a2 has a one-dimensional kernel, so (1, 2, 1) has
    # fibre bound 1 + 1 + 0 = 2 against a degree bound of 4: four good
    # primes, not six.  a2.a1 = [[2, 1], [1, 2]] loses rank mod 3.
    m = Representation(
        linear_an_algebra(3),
        (2, 3, 2),
        {"a1": matrix([[1, 0], [0, 1], [1, 1]]), "a2": matrix([[1, 0, 1], [0, 1, 1]])},
    )
    primes = []

    def counted(m, allowed, p):
        primes.append(p)
        return _count_backtrack(m, allowed, p)

    monkeypatch.setattr(grassmannian, "_count_backtrack", counted)
    assert str(counting_polynomial(m, (1, 2, 1))) == "q + 1"
    assert tuple(primes) == (2, 5, 7, 11)


def test_equal_weights_are_refused():
    # the two basis vectors at vertex 1 map onto one vector: the
    # coefficient quiver is a tree, but both carry the weight of the
    # vector at 2 minus e_a1, and the kernel line of a1, the class
    # (1, 0, 0), contains no basis vector
    m = Representation(
        linear_an_algebra(3),
        (2, 1, 2),
        {"a1": matrix([[-1, 1]]), "a2": matrix([[1], [-2]])},
    )
    assert _fixed_point_classes(m) is None
    classes = submodule_classes(m)
    assert ((1, 0, 0), 1) in classes
    assert classes == _counted_classes(m)


def test_a_cycle_is_refused():
    # a: 1 -> 2, b: 3 -> 2, c: 1 -> 3, each acting as 1: one basis vector
    # per vertex, so the weights are distinct, but the three edges close a
    # cycle, and a tree through two of them misses that c forces U_3 to
    # contain the image of U_1 or that b forces U_2 to contain that of U_3
    triangle = load_algebra(
        "[quiver]\nvertices: 1 2 3\narrow: a 1 2\narrow: b 3 2\narrow: c 1 3\n"
    )
    one = matrix([[1]])
    m = Representation(triangle, (1, 1, 1), {"a": one, "b": one, "c": one})
    assert _fixed_point_classes(m) is None
    assert submodule_classes(m) == [
        ((0, 0, 0), 1),
        ((0, 1, 0), 1),
        ((0, 1, 1), 1),
        ((1, 1, 1), 1),
    ]


def test_interval_modules_take_the_route():
    # every interval module of A5: a path of basis vectors, one per vertex
    an5 = linear_an_algebra(5)
    for lo in range(1, 6):
        for hi in range(lo, 6):
            m = interval_module(an5, lo, hi)
            assert _fixed_point_classes(m) == _counted_classes(m)


# -- the Fitting split ------------------------------------------------------


@pytest.mark.parametrize("name, max_dim", [("a3", 2), ("a4", 1), ("d4", 1)])
def test_split_classes_match_the_count_of_conjugated_sums(algebras, name, max_dim):
    # the block sum of two drawn modules, its blocks hidden by a unimodular
    # base change: the split convolves its summands' classes, and the count
    # of the whole module is the reference wherever it answers
    algebra = algebras[name]

    @given(modules(algebra, max_dim), modules(algebra, 1), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def check(a, b, rng):
        m = conjugate(direct_sum(a, b), rng)
        try:
            reference = _counted_classes(m)
        except (NonPolynomialCountError, ResourceLimitError):
            return  # the count may refuse (its budget, or a count it cannot verify)
        assert submodule_classes(m) == reference

    check()


def _convolved(tables, dims):
    """The classes of a direct sum from its summands' classes."""
    total = {(0,) * len(dims): 1}
    for classes in tables:
        out: dict = {}
        for e, x in total.items():
            for f, y in classes:
                key = tuple(a + b for a, b in zip(e, f))
                out[key] = out.get(key, 0) + x * y
        total = out
    return sorted((e, chi) for e, chi in total.items() if chi)


@pytest.mark.parametrize(
    "name, max_dim", [("a3", 2), ("a4", 1), ("d4", 1), ("kronecker", 2)]
)
def test_split_classes_match_the_full_split(algebras, name, max_dim):
    # submodule_classes splits one level at a time and stops at a part the
    # fixed points answer; the reference splits all the way down, and the
    # classes of its summands, each by fixed points or by a count, convolve
    # to the same table
    algebra = algebras[name] if name in algebras else load_algebra(KRONECKER)

    @given(modules(algebra, max_dim), modules(algebra, 1), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def check(a, b, rng):
        m = conjugate(direct_sum(a, b), rng)
        tables = []
        for s in modules_reference.fitting_split(m):
            classes = _fixed_point_classes(s)
            if classes is None:
                try:
                    classes = _counted_classes(s)
                except (NonPolynomialCountError, ResourceLimitError):
                    return  # the count may refuse (its budget, or a count it cannot verify)
            tables.append(classes)
        assert submodule_classes(m) == _convolved(tables, m.dims)

    check()
