import pytest
from hypothesis import given, settings

import modules_reference
from module_strategies import loop_modules, modules
from clusterchar import linalg
from clusterchar.errors import DimensionError, InputError
from clusterchar.modules import (
    Representation,
    _compute_syzygy,
    direct_sum,
    dual,
    ext1_dim,
    hom_dim,
    injective,
    load_module,
    min_inj_copresentation,
    min_proj_presentation,
    path_matrix,
    projective,
    simple,
    syzygy,
    top_dims,
    zero_module,
)
from clusterchar.quiver import load_algebra

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


def test_one_vertex_p_equals_i_equals_s():
    alg = load_algebra("[quiver]\nvertices: v\n")
    assert projective(alg, 0).dims == injective(alg, 0).dims == simple(alg, 0).dims == (1,)


def test_simples(a4):
    for i in range(4):
        s = simple(a4, i)
        assert s.dims == tuple(1 if j == i else 0 for j in range(4))
        assert top_dims(projective(a4, i)) == s.dims


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


def test_syzygy_of_simple(a4):
    syz = syzygy(simple(a4, 1))
    assert syz.cover_mults == (0, 1, 0, 0)
    assert syz.kernel.dims == (1, 0, 1, 0)
    for mat in syz.kernel.matrices.values():
        assert not any(mat.entries)


def test_syzygy_of_projective_has_zero_kernel(a4):
    # a projective is its own minimal cover, so the syzygy vanishes
    for i in range(4):
        syz = syzygy(projective(a4, i))
        assert syz.cover_mults == tuple(1 if j == i else 0 for j in range(4))
        assert syz.kernel.is_zero()


def test_syzygy_of_zero(a4):
    syz = syzygy(zero_module(a4))
    assert syz.cover_mults == (0, 0, 0, 0)
    assert syz.kernel.is_zero()


def test_syzygy_exactness(a4, d4, a4_M, d4_M):
    mods = [a4_M, d4_M] + [simple(a4, i) for i in range(4)] + [simple(d4, i) for i in range(4)]
    for m in mods:
        syz = syzygy(m)
        assert syz.kernel.dims == tuple(
            p - d for p, d in zip(syz.cover.dims, m.dims)
        )


def _syzygy_data(syz):
    return (
        syz.cover_mults,
        syz.cover.fingerprint(),
        syz.cover_map,
        syz.kernel.fingerprint(),
        syz.inclusion,
    )


def test_canonical_modules_are_built_once(data_dir, monkeypatch):
    from clusterchar.modules import _build_projective

    built = []

    def counted(algebra, i):
        built.append((algebra, i))
        return _build_projective(algebra, i)

    monkeypatch.setattr("clusterchar.modules._build_projective", counted)
    algebra = load_algebra((data_dir / "d4.alg").read_text())
    assert projective(algebra, 1) is projective(algebra, 1)
    assert injective(algebra, 1) is injective(algebra, 1)
    # the injective is the dual of a projective over the opposite
    assert built == [(algebra, 1), (algebra.opposite(), 1)]


def test_syzygy_is_memoized_by_fingerprint(data_dir):
    algebra = load_algebra((data_dir / "d4.alg").read_text())
    text = (data_dir / "d4_M.mod").read_text()
    first, second = load_module(text, algebra), load_module(text, algebra)
    assert first is not second
    assert syzygy(first) is syzygy(second)
    # a fresh computation: the same data over a newly built algebra
    fresh_algebra = load_algebra((data_dir / "d4.alg").read_text())
    fresh = syzygy(load_module(text, fresh_algebra))
    assert fresh is not syzygy(first)
    assert _syzygy_data(fresh) == _syzygy_data(syzygy(first))


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
    for i in range(4):
        p0, p1 = min_proj_presentation(projective(a4, i))
        assert p0 == tuple(1 if j == i else 0 for j in range(4))
        assert p1 == (0, 0, 0, 0)
    assert min_proj_presentation(simple(a4, 2)) == ((0, 0, 1, 0), (0, 0, 0, 1))
    assert min_proj_presentation(simple(a4, 3)) == ((0, 0, 0, 1), (0, 1, 0, 0))


def test_min_inj_copresentation(a4):
    for i in range(4):
        i0, i1 = min_inj_copresentation(injective(a4, i))
        assert i0 == tuple(1 if j == i else 0 for j in range(4))
        assert i1 == (0, 0, 0, 0)
    assert min_inj_copresentation(simple(a4, 0)) == ((1, 0, 0, 0), (0, 1, 0, 0))
    assert min_inj_copresentation(simple(a4, 2)) == ((0, 0, 1, 0), (0, 1, 0, 0))


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


def test_module_loader_resolves_algebra(data_dir):
    from clusterchar.modules import load_module_file

    m = load_module_file(data_dir / "a4_M.mod")
    assert m.algebra.dim() == 9


def test_loader_rejects_non_integer(a4):
    text = "[module]\ndims: 1 1 0 0\nmatrix d: [[0.5]]\n"
    with pytest.raises(InputError, match="non-integer"):
        load_module(text, algebra=a4)


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
    # minimal cover has one P_i per top coordinate, and its kernel makes
    # up the difference in dimension
    def check(m):
        alg = m.algebra
        tops = top_dims(m)
        for i in range(alg.quiver.n):
            assert hom_dim(m, simple(alg, i)) == tops[i]
        syz = syzygy(m)
        assert syz.cover_mults == tops
        assert syz.kernel.dims == tuple(
            c - d for c, d in zip(syz.cover.dims, m.dims)
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
def test_syzygy_matches_reference(algebras, name, max_dim):
    @given(_generated(algebras, name, max_dim))
    @settings(max_examples=100, deadline=None)
    def check(m):
        for module in (m, dual(m)):
            got = _syzygy_data(_compute_syzygy(module))
            assert got == _syzygy_data(modules_reference.compute_syzygy(module))

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
    assert _compute_syzygy(m).kernel.dims == (1,)
    # the wrong projective breaks the relation, so let it be built unchecked
    monkeypatch.setattr(Representation, "_check_relations", lambda self: None)
    monkeypatch.setattr("clusterchar.modules.projective", _all_ones_projective)
    with pytest.raises(DimensionError, match="not a module morphism"):
        _compute_syzygy(m)


def test_cover_from_a_module_off_the_relations_raises(algebras, monkeypatch):
    # S + S over k[x]/x^3 has two generators, so its cover P + P comes from
    # the internal block sum, which checks the relations like any module
    loop = algebras["loop"]
    m = Representation(loop, (2,))

    def unchecked_projective(algebra, i):
        with monkeypatch.context() as patch:
            patch.setattr(Representation, "_check_relations", lambda self: None)
            return _all_ones_projective(algebra, i)

    monkeypatch.setattr("clusterchar.modules.projective", unchecked_projective)
    with pytest.raises(InputError, match="does not satisfy the algebra relations"):
        _compute_syzygy(m)


def test_cover_that_misses_the_top_raises(algebras, monkeypatch):
    # a cover-map column that sends a generator to 0 leaves m(i) uncovered
    def no_generators(m, p):
        if p.arrows:
            return path_matrix(m, p)
        return linalg.zeros(m.dims[p.source], m.dims[p.source])

    monkeypatch.setattr("clusterchar.modules.path_matrix", no_generators)
    for m in (simple(algebras["point"], 0), simple(algebras["a4"], 1)):
        with pytest.raises(DimensionError, match="not surjective"):
            _compute_syzygy(m)
