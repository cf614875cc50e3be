"""Acceptance criteria, one test per criterion.

Each test enforces the stated exactness and runtime bound and prints one
pass line (visible with ``pytest -s``).  Values are exact integer /
Laurent-polynomial equalities throughout; there are no tolerances to
tune.
"""

import random
import time
from itertools import product
from math import comb

from clusterchar import laurent
from clusterchar.character import cc_value, module_object
from clusterchar.forms import coindex, euler_form, form_a_row, index
from clusterchar.grassmannian import submodule_classes
from clusterchar.laurent import from_dict, laurent_render
from clusterchar.modules import (
    direct_sum,
    injective,
    load_module_file,
    projective,
    simple,
)
from clusterchar.mutation import (
    enumerate_cluster_variables,
    initial_seed,
    mutate_matrix,
    mutate_seed,
)
from clusterchar.polygon import (
    all_arcs,
    arc_to_object,
    interval_module,
    interval_ses,
    linear_an_matrix,
    verify_an,
)
from clusterchar.quiver import load_algebra_file


def _report(label, start, bound):
    elapsed = time.perf_counter() - start
    assert elapsed < bound, "%s exceeded %.0f s (took %.2f s)" % (label, bound, elapsed)
    print("ACCEPTANCE %s: PASS (%.2f s)" % (label, elapsed))


def test_criterion_1_a4_reproduction(data_dir):
    start = time.perf_counter()
    algebra = load_algebra_file(data_dir / "a4.alg")
    module = load_module_file(data_dir / "a4_M.mod", algebra=algebra)

    value = cc_value(module_object(module))
    assert laurent_render(value) == "x2^-1*x3 + x1^-1*x4 + x1^-1*x2^-1*x4"
    num, den = laurent.fraction_parts(value)
    assert laurent_render(num) == "x1*x3 + x2*x4 + x4"
    assert den == (1, 1, 0, 0)

    assert index(module) == (0, 1, -1, 0)  # [P_2] - [P_3]
    assert coindex(module) == (1, 0, 0, -1)  # [P_1] - [P_4]

    assert submodule_classes(module) == [
        ((0, 0, 0, 0), 1),
        ((1, 0, 0, 0), 1),
        ((1, 1, 0, 0), 1),
    ]
    _report("1 (A4 reproduction)", start, 1.0)


def test_criterion_2_d4_reproduction(data_dir):
    start = time.perf_counter()
    algebra = load_algebra_file(data_dir / "d4.alg")
    module = load_module_file(data_dir / "d4_M.mod", algebra=algebra)

    value = cc_value(module_object(module))
    # ((x0 + x3)^2 + x1 x2 x3) / (x0 x1 x2), written as a Laurent polynomial
    expected = from_dict(
        4,
        {
            (1, -1, -1, 0): 1,
            (-1, -1, -1, 2): 1,
            (0, -1, -1, 1): 2,
            (-1, 0, 0, 1): 1,
        },
    )
    assert value == expected

    assert index(module) == (1, 0, 0, -1)  # [P_0] - [P_3]
    assert coindex(module) == (-1, 1, 1, 0)  # [P_1] + [P_2] - [P_0]

    assert submodule_classes(module) == [
        ((0, 0, 0, 0), 1),
        ((0, 0, 1, 0), 1),
        ((0, 1, 0, 0), 1),
        ((0, 1, 1, 0), 1),
        ((1, 1, 1, 0), 1),
    ]
    _report("2 (D4 reproduction)", start, 1.0)


def test_criterion_3_multiplication_formula_exhaustive():
    start = time.perf_counter()
    expected_arcs = {2: 5, 3: 9, 4: 14, 5: 20, 6: 27}
    for n in (2, 3, 4, 5, 6):
        report = verify_an(n)
        assert report.arc_count == expected_arcs[n]
        assert report.crossing_pairs == comb(n + 3, 4)
        triangle_lines = [l for l in report.lines if "triangle" in l]
        assert len(triangle_lines) == report.crossing_pairs
        assert all(l.startswith("ok") for l in triangle_lines), (
            "multiplication identity failed for some crossing pair at n=%d" % n
        )
        assert report.checks_failed == 0
    _report("3 (multiplication formula, A2..A6)", start, 120.0)


def test_criterion_4_bijection_with_cluster_variables():
    start = time.perf_counter()
    for n, expected in ((2, 5), (3, 9), (4, 14), (5, 20), (6, 27)):
        arc_values = {cc_value(arc_to_object(n, a)) for a in all_arcs(n)}
        oracle = set(enumerate_cluster_variables(linear_an_matrix(n)))
        assert arc_values == oracle
        assert len(arc_values) == expected
    _report("4 (bijection with cluster variables)", start, 60.0)


def _shipped_modules(data_dir):
    out = []
    for stem, mod in (("a4", "a4_M"), ("d4", "d4_M")):
        algebra = load_algebra_file(data_dir / ("%s.alg" % stem))
        out.append(load_module_file(data_dir / ("%s.mod" % mod), algebra=algebra))
        for i in range(algebra.quiver.n):
            out += [simple(algebra, i), projective(algebra, i), injective(algebra, i)]
    for n in (2, 3, 4):
        for lo in range(1, n + 1):
            for hi in range(lo, n + 1):
                out.append(interval_module(n, lo, hi))
    return out


def test_criterion_5_descent_to_k0(data_dir):
    start = time.perf_counter()
    for module in _shipped_modules(data_dir):
        algebra = module.algebra
        direct = tuple(
            euler_form(simple(algebra, i), module)
            - euler_form(module, simple(algebra, i))
            for i in range(algebra.quiver.n)
        )
        via_matrix = form_a_row(algebra, module.dims)
        assert direct == via_matrix
        delta = tuple(c - i for c, i in zip(coindex(module), index(module)))
        assert delta == via_matrix
    _report("5 (form descends to K_0)", start, 10.0)


def test_criterion_6_property_bundle(data_dir):
    start = time.perf_counter()
    rng = random.Random(1729)

    # Laurent ring axioms on randomized polynomials
    def rand_poly(n):
        terms = {}
        for _ in range(rng.randrange(5)):
            exps = tuple(rng.randint(-3, 3) for _ in range(n))
            terms[exps] = rng.randint(-6, 6)
        return from_dict(n, terms)

    for _ in range(200):
        n = rng.randint(1, 3)
        p, q, r = rand_poly(n), rand_poly(n), rand_poly(n)
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    # chi convolution on direct sums (extra-prime verification is built
    # into every euler-characteristic call on this path)
    a4 = load_algebra_file(data_dir / "a4.alg")
    a4_M = load_module_file(data_dir / "a4_M.mod", algebra=a4)
    for m, n_mod in ((a4_M, simple(a4, 0)), (interval_module(3, 1, 2), interval_module(3, 2, 3))):
        s = direct_sum(m, n_mod)
        chi_m, chi_n = dict(submodule_classes(m)), dict(submodule_classes(n_mod))
        chi_s = dict(submodule_classes(s))
        for g in product(*[range(d + 1) for d in s.dims]):
            total = sum(
                ce * chi_n.get(tuple(x - y for x, y in zip(g, e)), 0)
                for e, ce in chi_m.items()
                if all(x - y >= 0 for x, y in zip(g, e))
            )
            assert chi_s.get(tuple(g), 0) == total

    # mutation involutions
    b3 = linear_an_matrix(3)
    seed = initial_seed(b3)
    for k in range(3):
        assert mutate_matrix(mutate_matrix(b3, k), k) == b3
        assert mutate_seed(mutate_seed(seed, k), k) == seed

    # base-change invariance of the character value
    from test_character import _conjugate

    for module in (a4_M, interval_module(4, 1, 3)):
        reference = cc_value(module_object(module))
        assert cc_value(module_object(_conjugate(module, rng))) == reference

    # index/coindex additivity on harness short exact sequences
    for sub, total, quot in interval_ses(4):
        assert index(total) == tuple(a + b for a, b in zip(index(sub), index(quot)))
        assert coindex(total) == tuple(
            a + b for a, b in zip(coindex(sub), coindex(quot))
        )

    _report("6 (property bundle)", start, 180.0)
