import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from module_strategies import conjugate
from module_strategies import modules as generated_modules
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
from clusterchar.errors import ClusterCharError, ConsistencyError, DimensionError
from clusterchar.laurent import laurent_render
from clusterchar.modules import Representation, load_module_file, simple, zero_module
from clusterchar.polygon import interval_module, linear_an_algebra
from clusterchar.quiver import AlgebraPresentation, load_algebra, load_algebra_file


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
    interval = interval_module(linear_an_algebra(4), 2, 3)
    for m in (a4_M, d4_M, simple(a4, 1), simple(d4, 3), interval):
        value = cc_value(module_object(m))
        cleared = value * laurent.monomial(len(m.dims), m.dims)
        assert all(
            all(x >= 0 for x in exps) for exps, _ in cleared.terms
        )


def test_base_change_invariance(a4_M, d4_M):
    rng = random.Random(20240811)
    from clusterchar.modules import direct_sum

    doubled = direct_sum(a4_M, a4_M)
    for m in (a4_M, d4_M, doubled, interval_module(linear_an_algebra(4), 1, 3)):
        reference = cc_value(module_object(m))
        for _ in range(3):
            conjugated = conjugate(m, rng)
            assert cc_value(module_object(conjugated)) == reference


def test_verify_triangle_pentagon():
    a2 = linear_an_algebra(2)
    l = module_object(interval_module(a2, 1, 1))  # S_1
    m = module_object(simple(a2, 1))  # S_2
    b = module_object(zero_module(a2))
    b_prime = module_object(interval_module(a2, 1, 2))
    report = verify_triangle(l, m, b, b_prime)
    assert report.ok
    # symmetric in the two middle terms
    assert verify_triangle(l, m, b_prime, b).ok


def test_verify_triangle_detects_wrong_middle_term():
    a2 = linear_an_algebra(2)
    l = module_object(interval_module(a2, 1, 1))
    m = module_object(simple(a2, 1))
    b_prime = module_object(interval_module(a2, 1, 2))
    wrong = combine(l, m)  # the split middle term is wrong here
    report = verify_triangle(l, m, wrong, b_prime)
    assert not report.ok
    assert not (report.lhs - report.rhs).is_zero()
    assert "MISMATCH" in report.render()


def test_shift_vector_validation(a4):
    with pytest.raises(DimensionError):
        CCObject(zero_module(a4), (1, 0, 0))


@pytest.mark.parametrize("shifts", [(0.5, 0, 0, 0), (1.0, 0, 0, 0), (True, 0, 0, 0)],
                         ids=["half", "float_one", "bool"])
def test_shift_multiplicities_must_be_integers(a4_M, shifts):
    # a shift is a number of summands Sigma P_i: neither a fraction, nor
    # a float exponent, nor a truth value read as 1
    with pytest.raises(DimensionError, match=r"^shift multiplicities must be integers$"):
        CCObject(a4_M, shifts)


@pytest.mark.parametrize("name", ["a4", "d4"])
def test_shifts_are_a_monomial_factor(algebras, name):
    # X(M + sum_i s_i Sigma P_i) = x^s X(M), on fresh algebras, with the
    # shifted value asked for first (it fills the module's cached value)
    # and last (it reads that value)
    algebra = algebras[name]
    n = algebra.quiver.n

    @given(generated_modules(algebra, 2), st.tuples(*[st.integers(0, 2)] * n))
    @settings(max_examples=25, deadline=None)
    def check(drawn, shifts):
        for shifted_first in (True, False):
            fresh = AlgebraPresentation(algebra.quiver, algebra.relations)
            m = Representation(fresh, drawn.dims, drawn.matrices)
            if shifted_first:
                shifted = cc_value(CCObject(m, shifts))
                plain = cc_value(module_object(m))
            else:
                plain = cc_value(module_object(m))
                shifted = cc_value(CCObject(m, shifts))
            assert shifted == plain * laurent.monomial(n, shifts)

    check()


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


def test_kronecker_values_lie_on_the_alternating_mutation_walks():
    # the acyclic case: the preprojectives of dims (n, n+1) with a = [I; 0]
    # and b = [0; I], the preinjectives of dims (n+1, n) with a = [I | 0]
    # and b = [0 | I], for n <= 4, and the two shifts.  The walk
    # mu1 mu2 ... reaches the preinjectives in order, mu2 mu1 ... the
    # preprojectives
    from clusterchar.mutation import initial_seed, mutate_seed, quiver_to_matrix

    kronecker = load_algebra("[quiver]\nvertices: 1 2\narrow: a 1 2\narrow: b 1 2\n")

    def module(dims, a, b):
        mats = {"a": linalg.matrix(a), "b": linalg.matrix(b)} if min(dims) else {}
        return module_object(Representation(kronecker, dims, mats))

    shifts = [shift_object(kronecker, 0), shift_object(kronecker, 1)]
    preinjectives, preprojectives = [], []
    for n in range(5):
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        preprojectives.append(module((n, n + 1), eye + [[0] * n], [[0] * n] + eye))
        preinjectives.append(module((n + 1, n), [r + [0] for r in eye], [[0] + r for r in eye]))
    variables = set()
    for first, named in ((0, preinjectives), (1, preprojectives)):
        seed = initial_seed(quiver_to_matrix(kronecker.quiver))
        variables.update(seed.variables)
        for step in range(7):
            k = (first + step) % 2
            seed = mutate_seed(seed, k)
            variables.update(seed.variables)
            if step < len(named):
                assert seed.variables[k] == cc_value(named[step])
    assert len(variables) == 16
    objects = shifts + preinjectives + preprojectives
    values = {cc_value(obj) for obj in objects}
    assert len(values) == len(objects) == 12
    assert values <= variables


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
    m = interval_module(linear_an_algebra(5), 1, 5)
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
    # one more in <S_1, m>, the coindex's role of the Euler form, and not
    # in <m, S_i>, the index's: the coindex no longer meets the index
    # through the form matrix, and the character refuses instead of
    # returning a value
    real = forms.euler_form

    def corrupted(m, n):
        first_simple = m.dims == tuple(int(i == 0) for i in range(len(m.dims)))
        return real(m, n) + first_simple

    monkeypatch.setattr(forms, "euler_form", corrupted)
    algebra = load_algebra_file(data_dir / "a4.alg")
    module = load_module_file(data_dir / "a4_M.mod", algebra=algebra)
    with pytest.raises(ConsistencyError, match=r"^index mismatch: "):
        cc_value(module_object(module))
    assert run(["xvalue", str(data_dir / "a4.alg"), str(data_dir / "a4_M.mod")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "index mismatch: " in captured.err


def _shuffled(text, rng):
    """An algebra file with its vertex labels, its arrow lines and its
    relation lines each put in an order drawn from ``rng``."""
    lines = text.splitlines()
    for prefix in ("arrow:", "rel:"):
        at = [k for k, line in enumerate(lines) if line.startswith(prefix)]
        for k, line in zip(at, rng.sample([lines[k] for k in at], len(at))):
            lines[k] = line
    k = next(k for k, line in enumerate(lines) if line.startswith("vertices:"))
    labels = lines[k].split()[1:]
    lines[k] = "vertices: " + " ".join(rng.sample(labels, len(labels)))
    return "\n".join(lines) + "\n"


# the D4 star, whose module with c = [[1], [2]] is refused with
# NonPolynomialCountError (ROADMAP item 1), and with c = [[1], [1]] is not
D4_STAR = "[quiver]\nvertices: 1 2 3 4\narrow: a 1 4\narrow: b 2 4\narrow: c 3 4\n"


def _star_modules(algebra):
    a, b = linalg.matrix([[1], [0]]), linalg.matrix([[0], [1]])
    return st.sampled_from([1, 2]).map(lambda k: Representation(
        algebra, (1, 1, 1, 2), {"a": a, "b": b, "c": linalg.matrix([[1], [k]])}
    ))


@pytest.mark.parametrize("name, max_dim", [("a4", 2), ("d4", 2), ("an3", 2), ("d4_star", None)])
def test_value_does_not_depend_on_the_order_of_the_presentation(data_dir, name, max_dim):
    # the sweep order, the fibre bound, the path basis, the good primes and
    # the Euler form's matrix all follow the order of vertices, arrows or
    # relations; X_M must only permute its variables with the vertices, or
    # raise the same error under every order
    text = D4_STAR if name == "d4_star" else (data_dir / ("%s.alg" % name)).read_text()
    algebra = load_algebra(text)
    strategy = _star_modules(algebra) if max_dim is None else generated_modules(algebra, max_dim)

    def value(m):
        try:
            return cc_value(module_object(m))
        except ClusterCharError as exc:
            return type(exc)

    @given(strategy, st.randoms(use_true_random=False))
    @settings(max_examples=20, deadline=None)
    def check(m, rng):
        other = load_algebra(_shuffled(text, rng))
        # vertex k of the shuffled algebra is vertex at[k] of the original
        at = [algebra.quiver.vertices.index(v) for v in other.quiver.vertices]
        want = value(m)
        got = value(Representation(other, [m.dims[i] for i in at], m.matrices))
        if isinstance(want, type):
            assert got is want
        else:
            terms = {tuple(exps[i] for i in at): c for exps, c in want.terms}
            assert got == laurent.from_dict(len(at), terms)

    check()
