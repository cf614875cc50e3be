import ast
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import modules_reference
from module_strategies import conjugate, loop_modules, modules
from clusterchar import linalg, quiver
from clusterchar.errors import AlgebraBuildError, ConsistencyError, DimensionError, InputError
from clusterchar.forms import indices
from clusterchar.modules import (
    Representation,
    _fitting_parts,
    direct_sum,
    euler_form,
    ext1_dim,
    fitting_parts,
    hom_dim,
    injective,
    load_module,
    path_matrix,
    projective,
    simple,
    zero_module,
)
from clusterchar.quiver import AlgebraPresentation, load_algebra, path_target
from opposite_reference import dual, opposite
from test_quiver import load_named, presentations

A2_HEREDITARY = "[quiver]\nvertices: 1 2\narrow: a1 1 2\n"
A3_HEREDITARY = "[quiver]\nvertices: 1 2 3\narrow: a1 1 2\narrow: a2 2 3\n"


@pytest.fixture(scope="module")
def a2h():
    return load_algebra(A2_HEREDITARY)


@pytest.fixture(scope="module")
def a3h():
    return load_algebra(A3_HEREDITARY)


def test_projective_dims_a4(a4):
    assert [projective(a4, i).dims for i in range(4)] == [
        (1, 0, 0, 0),
        (1, 1, 1, 0),
        (0, 0, 1, 1),
        (1, 1, 0, 1),
    ]


def test_injective_dims_a4(a4):
    assert injective(a4, 0).dims == (1, 1, 0, 1)  # matches P_4
    assert injective(a4, 3).dims == (0, 0, 1, 1)  # matches P_3
    assert injective(a4, 1).dims == (0, 1, 0, 1)
    assert injective(a4, 2).dims == (0, 1, 1, 0)


def _check_injectives(alg):
    # I_i, read off the algebra's own basis, against the dual of P_i over
    # the opposite, which reduces its own presentation: the two may keep
    # different basis paths (the flipped square), but the graded counts
    # of their bases mirror, and the modules are isomorphic injective
    # hulls of S_i
    q, op = alg.quiver, opposite(alg)
    graded = sorted((p.source, path_target(q, p), len(p.arrows)) for p in alg.basis)
    mirrored = sorted((path_target(op.quiver, p), p.source, len(p.arrows)) for p in op.basis)
    assert (op.nilpotency_bound, mirrored) == (alg.nilpotency_bound, graded)
    simples = [simple(alg, j) for j in range(q.n)]
    for i in range(q.n):
        inj, ref = injective(alg, i), dual(projective(op, i))
        assert inj.dims == ref.dims
        end = hom_dim(inj, inj)
        assert hom_dim(inj, ref) == hom_dim(ref, inj) == hom_dim(ref, ref) == end
        assert [hom_dim(s, inj) for s in simples] == [int(j == i) for j in range(q.n)]
        assert not any(ext1_dim(s, inj) for s in simples)


@pytest.mark.parametrize("name", [
    "a4", "d4", "an2", "an3", "an4", "an5", "loop", "flipped_square", "fractions", "a3_ba",
])
def test_injective_matches_the_dual_over_the_opposite(data_dir, name):
    _check_injectives(load_named(data_dir, name))


@given(presentations(max_vertices=3, max_arrows=4, max_len=3))
@settings(max_examples=40, deadline=None)
def test_injective_matches_the_dual_over_the_opposite_on_random_presentations(presentation):
    try:
        alg = AlgebraPresentation(*presentation)
    except AlgebraBuildError:
        assume(False)
    _check_injectives(alg)


def test_one_vertex_p_equals_i_equals_s():
    alg = load_algebra("[quiver]\nvertices: v\n")
    assert projective(alg, 0).dims == injective(alg, 0).dims == simple(alg, 0).dims == (1,)


def test_simples(a4):
    for i in range(4):
        s = simple(a4, i)
        assert s.dims == tuple(1 if j == i else 0 for j in range(4))
        assert modules_reference.top_dims(projective(a4, i)) == s.dims


def test_hom_projective_identity(a4, a4_M):
    modules = [a4_M] + [simple(a4, i) for i in range(4)] + [injective(a4, i) for i in range(4)]
    for n in modules:
        for i in range(4):
            assert hom_dim(projective(a4, i), n) == n.dims[i]


def test_hom_examples(a4, a4_M):
    assert hom_dim(a4_M, simple(a4, 1)) == 1
    assert hom_dim(a4_M, a4_M) == 1
    for i in range(4):
        assert hom_dim(simple(a4, i), simple(a4, i)) == 1


def test_hom_algebra_mismatch(a4, a2h):
    with pytest.raises(DimensionError):
        hom_dim(simple(a4, 0), simple(a2h, 0))


# the reference syzygy carries the only checks a cover gets: pinned here,
# and with its checks made to fire below


def test_syzygy_of_simple(a4):
    syz = modules_reference.compute_syzygy(simple(a4, 1))
    assert syz.cover_mults == (0, 1, 0, 0)
    assert syz.kernel.dims == (1, 0, 1, 0)
    for mat in syz.kernel.matrices.values():
        assert not any(mat.entries)


def test_syzygy_of_projective_has_zero_kernel(a4):
    # a projective is its own minimal cover, so the syzygy vanishes
    for i in range(4):
        syz = modules_reference.compute_syzygy(projective(a4, i))
        assert syz.cover_mults == tuple(1 if j == i else 0 for j in range(4))
        assert not any(syz.kernel.dims)


def test_syzygy_of_zero(a4):
    syz = modules_reference.compute_syzygy(zero_module(a4))
    assert syz.cover_mults == (0, 0, 0, 0)
    assert not any(syz.kernel.dims)


def _cover_dims(m, syz):
    """Dimension vector of the cover: sum_i [P0 : P_i] dim P_i."""
    alg = m.algebra
    return tuple(
        sum(c * projective(alg, i).dims[j] for i, c in enumerate(syz.cover_mults))
        for j in range(alg.quiver.n)
    )


def test_syzygy_exactness(a4, d4, a4_M, d4_M):
    mods = [a4_M, d4_M] + [simple(a4, i) for i in range(4)] + [simple(d4, i) for i in range(4)]
    for m in mods:
        syz = modules_reference.compute_syzygy(m)
        assert syz.kernel.dims == tuple(
            p - d for p, d in zip(_cover_dims(m, syz), m.dims)
        )


def test_canonical_modules_build_no_second_presentation(data_dir, monkeypatch):
    reduced = []
    algebra = load_algebra((data_dir / "d4.alg").read_text())
    real_reduce = quiver._reduce_paths
    monkeypatch.setattr(quiver, "_reduce_paths",
                        lambda *args: reduced.append(args) or real_reduce(*args))
    assert projective(algebra, 1).dims == (0, 1, 0, 1)
    assert injective(algebra, 1).dims == (1, 1, 0, 0)
    # the injective reads the algebra's own basis: no second presentation
    assert reduced == []


def test_ext_vanishes_on_projectives(a4, a4_M):
    for i in range(4):
        for n in (a4_M, simple(a4, 1), injective(a4, 0)):
            assert ext1_dim(projective(a4, i), n) == 0


def test_ext_example_a4(a4):
    assert ext1_dim(simple(a4, 1), simple(a4, 0)) == 1


def test_ext_hereditary_a2(a2h):
    assert ext1_dim(simple(a2h, 0), simple(a2h, 1)) == 1
    assert ext1_dim(simple(a2h, 1), simple(a2h, 0)) == 0


def _hereditary_euler(m, n):
    q = m.algebra.quiver
    total = sum(a * b for a, b in zip(m.dims, n.dims))
    for arrow in q.arrows:
        total -= m.dims[arrow.source] * n.dims[arrow.target]
    return total


def test_hereditary_closed_form_oracle(a2h, a3h):
    # on relation-free quivers, hom - ext must match the closed form
    for alg in (a2h, a3h):
        n_v = alg.quiver.n
        mods = (
            [simple(alg, i) for i in range(n_v)]
            + [projective(alg, i) for i in range(n_v)]
            + [injective(alg, i) for i in range(n_v)]
        )
        for m in mods:
            for n in mods:
                assert hom_dim(m, n) - ext1_dim(m, n) == _hereditary_euler(m, n)


def test_min_proj_presentation(a4):
    # the index, read off the relations, is [P0] - [P1] of the reference
    # presentation
    def check(m, p0, p1):
        assert modules_reference.presentation(m) == (p0, p1)
        assert indices(m)[0] == tuple(x - y for x, y in zip(p0, p1))

    for i in range(4):
        check(projective(a4, i), tuple(1 if j == i else 0 for j in range(4)), (0, 0, 0, 0))
    check(simple(a4, 2), (0, 0, 1, 0), (0, 0, 0, 1))
    check(simple(a4, 3), (0, 0, 0, 1), (0, 1, 0, 0))


def test_min_inj_copresentation(a4):
    # the minimal injective copresentation of m is the minimal projective
    # presentation of its dual over the opposite algebra, and the coindex
    # is [I0] - [I1]
    def check(m, i0, i1):
        assert modules_reference.presentation(dual(m)) == (i0, i1)
        assert indices(m)[1] == tuple(x - y for x, y in zip(i0, i1))

    for i in range(4):
        check(injective(a4, i), tuple(1 if j == i else 0 for j in range(4)), (0, 0, 0, 0))
    check(simple(a4, 0), (1, 0, 0, 0), (0, 1, 0, 0))
    check(simple(a4, 2), (0, 0, 1, 0), (0, 1, 0, 0))


def test_direct_sum(a4, a4_M):
    z = zero_module(a4)
    s = direct_sum(a4_M, z)
    assert s.dims == a4_M.dims
    assert hom_dim(s, a4_M) == hom_dim(a4_M, a4_M)
    both = direct_sum(a4_M, simple(a4, 2))
    assert both.dims == (1, 1, 1, 0)
    for i in range(4):
        assert hom_dim(projective(a4, i), both) == hom_dim(
            projective(a4, i), a4_M
        ) + hom_dim(projective(a4, i), simple(a4, 2))


def test_hom_duality(a4, a4_M, d4, d4_M):
    for m, n in [
        (a4_M, simple(a4, 0)),
        (simple(a4, 1), a4_M),
        (d4_M, simple(d4, 3)),
        (projective(a4, 1), a4_M),
    ]:
        assert hom_dim(m, n) == hom_dim(dual(n), dual(m))


def test_module_loader(a4, data_dir):
    text = (data_dir / "a4_M.mod").read_text()
    m = load_module(text, algebra=a4)
    assert m.dims == (1, 1, 0, 0)
    assert m.matrices["d"].entries == (1,)


def test_loader_rejects_non_integer(a4):
    text = "[module]\ndims: 1 1 0 0\nmatrix d: [[0.5]]\n"
    with pytest.raises(InputError, match="non-integer"):
        load_module(text, algebra=a4)


_SPACES = st.text(alphabet=" \t", max_size=3)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda cols: st.lists(
        st.lists(st.integers(-10**12, 10**12), min_size=cols, max_size=cols),
        min_size=1, max_size=4,
    )),
    st.data(),
)
def test_loader_reads_matrix_rows_as_literal_eval_does(a2h, rows, data):
    tokens = re.findall(r"[\[\],]|-?[0-9]+", str(rows))
    gaps = data.draw(st.lists(_SPACES, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    body = "".join(g + t for g, t in zip(gaps, tokens + [""]))
    text = "[module]\ndims: %d %d\nmatrix a1: %s\n" % (len(rows[0]), len(rows), body)
    m = load_module(text, algebra=a2h)
    # literal_eval is the reference here only: the loader does not use it
    assert m.matrices["a1"] == linalg.matrix(ast.literal_eval(body.strip()))


def test_loader_rejects_matrix_on_zero_space(a4):
    text = "[module]\ndims: 1 0 0 0\nmatrix d: [[1]]\n"
    with pytest.raises(InputError, match="0-dimensional"):
        load_module(text, algebra=a4)


def test_loader_rejects_wrong_dims(a4):
    with pytest.raises(InputError):
        load_module("[module]\ndims: 1 1\n", algebra=a4)


def test_loader_rejects_relation_violation(a4):
    text = (
        "[module]\ndims: 0 1 1 1\n"
        "matrix a: [[1]]\nmatrix b: [[1]]\n"
    )
    with pytest.raises(InputError, match="relations"):
        load_module(text, algebra=a4)


def test_relation_check_skips_paths_through_zero_spaces(a4, monkeypatch):
    # every relation of a4 passes through vertex 3 (b.a in its middle), so
    # a module that is zero there acts as 0 along each term, with no product
    products = []
    mat_mul = linalg.mat_mul

    def counted(a, b):
        products.append((a, b))
        return mat_mul(a, b)

    monkeypatch.setattr(linalg, "mat_mul", counted)
    one = linalg.matrix([[1]])
    m = Representation(a4, (1, 1, 0, 1), {"d": one, "g": one})
    assert m.dims == (1, 1, 0, 1) and products == []


def _perturbed(data, m):
    """m's algebra, dims and arrow matrices, with one entry changed when
    the draw asks for it: data the relations may or may not still hold on."""
    mats = dict(m.matrices)
    names = [name for name, mat in mats.items() if mat.entries]
    if names and data.draw(st.booleans()):
        name = data.draw(st.sampled_from(names))
        entries = list(mats[name].entries)
        entries[data.draw(st.integers(0, len(entries) - 1))] += data.draw(st.sampled_from([-1, 1, 2]))
        mats[name] = mats[name]._replace(entries=tuple(entries))
    return SimpleNamespace(algebra=m.algebra, dims=m.dims, matrices=mats)


def test_relation_check_matches_the_reference(algebras):
    # the program pushes basis vectors through sparse arrow columns, the
    # reference sums full path matrices: they accept and refuse alike, on
    # drawn modules (which hold) and on ones with one entry changed, over
    # random presentations and the fixture algebras with relations
    outcomes = set()

    def check(raw):
        try:
            Representation(raw.algebra, raw.dims, raw.matrices)
            accepted = True
        except InputError:
            accepted = False
        assert accepted == modules_reference.satisfies_relations(raw)
        outcomes.add(accepted)

    @given(presentations(max_vertices=3, max_arrows=4, max_len=3), st.data())
    @settings(max_examples=80, deadline=None)
    def check_presentations(presentation, data):
        try:
            alg = AlgebraPresentation(*presentation)
        except AlgebraBuildError:
            assume(False)
        check(_perturbed(data, data.draw(modules(alg, 3))))

    check_presentations()
    for name, max_dim in [("loop", 3), ("a4", 2), ("d4", 2)]:

        @given(_generated(algebras, name, max_dim), st.data())
        @settings(max_examples=60, deadline=None)
        def check_generated(m, data):
            check(_perturbed(data, m))

        check_generated()
    # k[x]/x^3 refuses most changed strictly upper-triangular loops
    assert outcomes == {True, False}


@pytest.mark.parametrize("dims", [(1.7, 1), ("1", 1)], ids=["float", "str"])
def test_representation_rejects_non_integer_dims(a2h, dims):
    # no coercion: 1.7 is not read as 1, nor "1" as 1
    with pytest.raises(InputError, match="must be integers"):
        Representation(a2h, dims)


def test_representation_shape_check(a4):
    with pytest.raises(DimensionError):
        Representation(a4, (1, 1, 0, 0), {"d": linalg.matrix([[1, 1]])})


def test_hom_to_simple_is_top_multiplicity(algebras, a4_M, d4_M):
    # dim Hom(m, S_i) equals the multiplicity of S_i in the top of m, the
    # reference's minimal cover has one P_i per top coordinate, and its
    # kernel makes up the difference in dimension
    def check(m):
        alg = m.algebra
        tops = modules_reference.top_dims(m)
        for i in range(alg.quiver.n):
            assert hom_dim(m, simple(alg, i)) == tops[i]
        syz = modules_reference.compute_syzygy(m)
        assert syz.cover_mults == tops
        assert syz.kernel.dims == tuple(
            c - d for c, d in zip(_cover_dims(m, syz), m.dims)
        )

    check(a4_M)
    check(d4_M)
    generated = [
        modules(algebras[name], max_dim)
        for name, max_dim in [("point", 4), ("a3", 3), ("a4", 2), ("d4", 2)]
    ]
    for strategy in generated + [loop_modules(algebras["loop"])]:

        @given(strategy)
        @settings(max_examples=30, deadline=None)
        def check_generated(m):
            check(m)

        check_generated()


# the algebras of the `algebras` fixture, with the largest dimension
# drawn at each vertex (the loop draws its own, up to 3)
GENERATED = [("point", 4), ("loop", 3), ("a3", 3), ("a4", 2), ("d4", 2)]


def _generated(algebras, name, max_dim):
    algebra = algebras[name]
    return loop_modules(algebra) if name == "loop" else modules(algebra, max_dim)


@pytest.mark.parametrize("name,max_dim", GENERATED)
def test_index_matches_the_reference_presentation(algebras, name, max_dim):
    # (<m, S_i>)_i read off the relations against [P0] - [P1] of the
    # reference's minimal presentation, over the algebra and its opposite
    @given(_generated(algebras, name, max_dim))
    @settings(max_examples=100, deadline=None)
    def check(m):
        for module in (m, dual(m)):
            p0, p1 = modules_reference.presentation(module)
            assert indices(module)[0] == tuple(x - y for x, y in zip(p0, p1))

    check()


@pytest.mark.parametrize("name,max_dim", GENERATED)
def test_ext1_matches_reference(algebras, name, max_dim):
    strategy = _generated(algebras, name, max_dim)

    @given(strategy, strategy)
    @settings(max_examples=50, deadline=None)
    def check(m, n):
        for x, y in ((m, n), (dual(n), dual(m))):
            algebra = x.algebra
            simples = [simple(algebra, i) for i in range(algebra.quiver.n)]
            pairs = [(x, y), (y, x)] + [(x, s) for s in simples] + [(s, x) for s in simples]
            for a, b in pairs:
                assert ext1_dim(a, b) == modules_reference.ext1_dim(a, b)

    check()


@given(presentations(max_vertices=4, max_arrows=6, max_len=3), st.data())
@settings(max_examples=40, deadline=None)
def test_euler_form_matches_the_reference_on_random_presentations(presentation, data):
    # loops, cycles, several relations from one vertex, coefficients up to
    # 3 in size and monomial cuts: <m, n> read off the relations against
    # dim Hom less the reference's dim Ext^1, both ways round and with
    # every simple on either side
    try:
        alg = AlgebraPresentation(*presentation)
    except AlgebraBuildError:
        assume(False)
    m, n = data.draw(modules(alg, 2)), data.draw(modules(alg, 2))
    simples = [simple(alg, i) for i in range(alg.quiver.n)]
    for x, y in [(m, n), (n, m)] + [(m, s) for s in simples] + [(s, m) for s in simples]:
        assert euler_form(x, y) == hom_dim(x, y) - modules_reference.ext1_dim(x, y)


@pytest.mark.parametrize("name,max_dim", GENERATED)
def test_index_matches_the_euler_forms_with_the_simples(algebras, name, max_dim):
    # the index is checked through the coindex and the form matrix, which
    # holds where the form descends to K_0; dim Hom(m, S_i) less the
    # reference's dim Ext^1(m, S_i) is the reference
    @given(_generated(algebras, name, max_dim))
    @settings(max_examples=50, deadline=None)
    def check(m):
        simples = [simple(m.algebra, i) for i in range(m.algebra.quiver.n)]
        assert indices(m)[0] == tuple(
            hom_dim(m, s) - modules_reference.ext1_dim(m, s) for s in simples
        )

    check()


def _all_ones_projective(algebra, i):
    """P_i with every arrow matrix replaced by all ones: no module morphism
    target for a cover, and over k[x]/x^3 it breaks x^3 = 0."""
    p = projective(algebra, i)
    ones = {
        name: linalg.matrix([[1] * mat.cols] * mat.rows, rows=mat.rows, cols=mat.cols)
        for name, mat in p.matrices.items()
    }
    return Representation(algebra, p.dims, ones)


def test_cover_that_is_no_morphism_raises(algebras, monkeypatch):
    # over k[x]/x^3, P / x^2 P has kernel x^2 P; a cover whose x sends
    # x^2 back onto the generator does not map that kernel into itself
    loop = algebras["loop"]
    m = Representation(loop, (2,), {"x": linalg.matrix([[0, 0], [1, 0]])})
    assert modules_reference.compute_syzygy(m).kernel.dims == (1,)
    # the wrong projective breaks the relation, so let it be built unchecked
    monkeypatch.setattr(Representation, "_check_relations", lambda self: None)
    monkeypatch.setattr(modules_reference, "projective", _all_ones_projective)
    with pytest.raises(DimensionError, match="not a module morphism"):
        modules_reference.compute_syzygy(m)
    # over the square 1 -> 2 -> 4, 1 -> 3 -> 4 with b.a = 0, the cover of
    # P_1 / aP_1 is P_1 with kernel aP_1 at 2, which b must send to the zero
    # kernel at 4; the all-ones P_1 sends it onto c.a2, which m keeps
    square = load_algebra(
        "[quiver]\nvertices: 1 2 3 4\narrow: a 1 2\narrow: a2 1 3\narrow: b 2 4\n"
        "arrow: c 3 4\n[relations]\nrel: b.a\n"
    )
    one = linalg.matrix([[1]])
    m = Representation(square, (1, 0, 1, 1), {"a2": one, "c": one})
    with pytest.raises(DimensionError, match="not a module morphism"):
        modules_reference.compute_syzygy(m)


def test_cover_from_a_module_off_the_relations_raises(algebras, monkeypatch):
    # S + S over k[x]/x^3 has two generators, so its cover P + P comes from
    # direct sums, which check the relations like any module
    loop = algebras["loop"]
    m = Representation(loop, (2,))

    def unchecked_projective(algebra, i):
        with monkeypatch.context() as patch:
            patch.setattr(Representation, "_check_relations", lambda self: None)
            return _all_ones_projective(algebra, i)

    monkeypatch.setattr(modules_reference, "projective", unchecked_projective)
    with pytest.raises(InputError, match="does not satisfy the algebra relations"):
        modules_reference.compute_syzygy(m)


def test_cover_that_misses_the_top_raises(algebras, monkeypatch):
    # a cover-map column that sends a generator to 0 leaves m(i) uncovered
    def no_generators(m, p):
        if p.arrows:
            return path_matrix(m, p)
        return linalg.zeros(m.dims[p.source], m.dims[p.source])

    monkeypatch.setattr(modules_reference, "path_matrix", no_generators)
    for m in (simple(algebras["point"], 0), simple(algebras["a4"], 1)):
        with pytest.raises(DimensionError, match="not surjective"):
            modules_reference.compute_syzygy(m)


# -- the Fitting split --------------------------------------------------------

KRONECKER = "[quiver]\nvertices: 1 2\narrow: a 1 2\narrow: b 1 2\n"


def _summands(m):
    """The summands of m: each part of `fitting_parts` split again, until
    none splits."""
    parts = fitting_parts(m)
    if parts is None:
        return [m]
    return [s for part in parts for s in _summands(part)]


@pytest.mark.parametrize("name, max_dim", [("a3", 2), ("a4", 1), ("d4", 1)])
def test_fitting_summands_add_up(algebras, name, max_dim):
    algebra = algebras[name]

    @given(modules(algebra, max_dim), modules(algebra, 1), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def check(a, b, rng):
        m = conjugate(direct_sum(a, b), rng)
        summands = _summands(m)
        # no summand is zero, unless m is, which comes back whole
        assert all(sum(s.dims) for s in summands) or summands == [m]
        assert tuple(map(sum, zip(*(s.dims for s in summands)))) == m.dims
        for s in summands:
            assert _summands(s) == [s]

    check()


def _regular_simples(summands):
    """The points b/a of summands of dimension (1, 1) over the Kronecker quiver."""
    assert [s.dims for s in summands] == [(1, 1)] * len(summands)
    return sorted(
        Fraction(s.matrices["b"].entry(0, 0)) / s.matrices["a"].entry(0, 0)
        for s in summands
    )


@pytest.mark.parametrize("k", [1, 2, 614889782588491410])
def test_fitting_split_of_two_regular_simples(k):
    # a = 1 and b = [[0, 1], [0, k]]: R_0 + R_k
    m = Representation(
        load_algebra(KRONECKER),
        (2, 2),
        {"a": linalg.identity(2), "b": linalg.matrix([[0, 1], [0, k]])},
    )
    assert _regular_simples(_summands(m)) == [0, k]


def test_fitting_split_shifts_by_a_rational_eigenvalue(monkeypatch):
    # b has eigenvalues 1 and 2, so the module is R_1 + R_2.  End is
    # spanned by 1 and b, and its echelon basis, b - 3 (eigenvalues -2 and
    # -1) and 1, holds no element that is neither nilpotent nor invertible:
    # only b - 3 + 2 splits the module
    m = Representation(
        load_algebra(KRONECKER),
        (2, 2),
        {"a": linalg.identity(2), "b": linalg.matrix([[0, 1], [-2, 3]])},
    )
    sought = []
    eigenvalues = linalg.rational_eigenvalues
    monkeypatch.setattr(
        linalg, "rational_eigenvalues", lambda a: sought.append(a) or eigenvalues(a)
    )
    assert _regular_simples(_summands(m)) == [1, 2]
    assert sought


def test_fitting_parts_of_a_non_endomorphism_raise():
    # the coordinate projection onto the first basis vector at both
    # vertices of R_0 + R_1 (a = 1, b = [[0, 1], [0, 1]]) is no module map:
    # b sends the kernel's vector into the image
    m = Representation(
        load_algebra(KRONECKER),
        (2, 2),
        {"a": linalg.identity(2), "b": linalg.matrix([[0, 1], [0, 1]])},
    )
    projection = linalg.matrix([[1, 0], [0, 0]])
    with pytest.raises(
        ConsistencyError, match="^Fitting summands are not submodules at arrow 'b'$"
    ):
        _fitting_parts(m, [projection, projection])
