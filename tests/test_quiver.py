import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opposite_reference
import quiver_reference
from clusterchar import cli, quiver
from clusterchar.errors import AlgebraBuildError, InputError
from clusterchar.modules import hom_dim, projective, simple
from clusterchar.quiver import (
    AlgebraPresentation,
    Path,
    load_algebra,
    load_algebra_file,
    make_quiver,
    path_target,
    same_algebra,
)
from opposite_reference import dual, opposite

ONE_VERTEX = "[quiver]\nvertices: v\n"
LOOP_CUBE = "[quiver]\nvertices: 1\narrow: x 1 1\n[relations]\nrel: x.x.x\n"
# arrows declared so that the two sides of the square sort one way and
# their reversals the other: the opposite keeps the other side as basis
# path, so only the graded counts of the two bases mirror, not the paths
FLIPPED_SQUARE = (
    "[quiver]\nvertices: 1 2 3 4\n"
    "arrow: a 1 2\narrow: a2 1 3\narrow: c 3 4\narrow: b 2 4\n"
    "[relations]\nrel: b.a - c.a2\n"
)


def test_a4_basis(a4):
    assert a4.dim() == 9
    assert a4.nilpotency_bound == 3
    q = a4.quiver
    names = sorted(
        ".".join(q.arrows[k].name for k in reversed(p.arrows))
        or "e_%s" % q.vertices[p.source]
        for p in a4.basis
    )
    assert names == sorted(["e_1", "e_2", "e_3", "e_4", "d", "a", "b", "g", "d.g"])


def test_one_vertex_algebra():
    alg = load_algebra(ONE_VERTEX)
    assert alg.dim() == 1
    assert alg.nilpotency_bound == 1


def test_d4_loads(d4):
    assert d4.dim() == 10
    # commutative-square reading: the two length-2 paths around the square
    # fall into one basis class
    assert len(d4.paths_from[0][3]) == 1


def test_dim_b_is_sum_of_projective_dims(a4, d4):
    for alg in (a4, d4):
        total = sum(sum(projective(alg, i).dims) for i in range(alg.quiver.n))
        assert alg.dim() == total


def load_named(data_dir, name):
    """A shipped algebra by file stem, or one of the small presentations
    named here."""
    texts = {
        "loop": LOOP_CUBE,
        "flipped_square": FLIPPED_SQUARE,
        # b.a, the pivot, has coefficient 2: it reduces to 3/2 c.a2
        "fractions": FLIPPED_SQUARE.replace("b.a - c.a2", "2*b.a - 3*c.a2"),
        # a monomial relation: global dimension 2
        "a3_ba": "[quiver]\nvertices: 1 2 3\narrow: a 1 2\narrow: b 2 3\n[relations]\nrel: b.a\n",
    }
    if name in texts:
        return load_algebra(texts[name])
    return load_algebra_file(data_dir / ("%s.alg" % name))


@pytest.mark.parametrize("name", ["a4", "d4", "loop", "flipped_square"])
def test_paths_from_groups_the_basis(data_dir, name):
    alg = load_named(data_dir, name)
    for a in (alg, opposite(alg)):
        n = a.quiver.n
        assert len(a.paths_from) == n
        for i in range(n):
            assert len(a.paths_from[i]) == n
            for j in range(n):
                assert a.paths_from[i][j] == tuple(
                    p for p in a.basis
                    if (p.source, path_target(a.quiver, p)) == (i, j)
                )


@pytest.mark.parametrize(
    "name", ["a4", "d4", "an2", "an3", "an4", "an5", "loop", "flipped_square"]
)
def test_derived_opposite_matches_a_fresh_build(data_dir, name):
    # the tests' shared opposite is an involution on instances, and the
    # one kept in the store is the one a fresh reduction gives
    alg = load_named(data_dir, name)
    fresh = opposite_reference._reversed(alg)
    op = opposite(alg)
    assert op is opposite(alg) and opposite(op) is alg
    assert (op.quiver, op.relations) == (fresh.quiver, fresh.relations)
    assert op.nilpotency_bound == fresh.nilpotency_bound == alg.nilpotency_bound
    assert op.basis == fresh.basis and op._reduce_table == fresh._reduce_table


@pytest.mark.parametrize("fault, message", [
    ("relation", "relation does not vanish in the basis"),
    ("too_long", "basis path at or above the nilpotency bound"),
], ids=["relation", "too_long"])
def test_constructor_checks_its_reduction(data_dir, monkeypatch, fault, message):
    # the reduction keeps as basis path one it should not: a path of a
    # relation, or a path as long as the nilpotency bound
    real = quiver._reduce_paths

    def keep_a_path(q, rels):
        bound, table = real(q, rels)
        if fault == "relation":
            kept = rels[0][0][1]
        else:
            kept = next(p for p in table if len(p) == bound)
        table[kept] = {kept: 1}
        return bound, table

    monkeypatch.setattr(quiver, "_reduce_paths", keep_a_path)
    with pytest.raises(AlgebraBuildError, match=message):
        load_algebra_file(data_dir / "a4.alg")


def test_one_reduction_per_loaded_algebra(capsys, data_dir, monkeypatch):
    calls = []
    real = quiver._reduce_paths

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(quiver, "_reduce_paths", counted)
    code = cli.run(["xvalue", str(data_dir / "a4.alg"), str(data_dir / "a4_M.mod")])
    assert code == 0
    assert "X = " in capsys.readouterr().out
    # the algebra alone: the coindex reads no second presentation
    assert len(calls) == 1


def test_double_dual_fingerprints(a4, a4_M):
    dd = dual(dual(a4_M))
    assert dd.dims == a4_M.dims
    for i in range(4):
        s = simple(a4, i)
        assert hom_dim(a4_M, s) == hom_dim(dd, s)
        assert hom_dim(s, a4_M) == hom_dim(s, dd)


def test_same_algebra_structural(a4, data_dir):
    other = load_algebra((data_dir / "a4.alg").read_text())
    assert same_algebra(a4, other)


def test_unknown_vertex_in_arrow():
    with pytest.raises(InputError, match="unknown vertex"):
        load_algebra("[quiver]\nvertices: 1 2\narrow: a 1 9\n")


def test_duplicate_arrow_name():
    with pytest.raises(InputError, match="duplicate arrow"):
        load_algebra("[quiver]\nvertices: 1 2\narrow: a 1 2\narrow: a 2 1\n")


def test_unknown_arrow_in_relation():
    with pytest.raises(InputError, match="unknown arrow"):
        load_algebra(
            "[quiver]\nvertices: 1 2\narrow: a 1 2\n[relations]\nrel: b.a\n"
        )


def test_non_composable_relation():
    with pytest.raises(InputError, match="composable"):
        load_algebra(
            "[quiver]\nvertices: 1 2 3\narrow: a 1 2\narrow: b 1 3\n"
            "[relations]\nrel: b.a\n"
        )


def test_non_admissible_relation():
    with pytest.raises(InputError, match="admissible"):
        load_algebra(
            "[quiver]\nvertices: 1 2\narrow: a 1 2\n[relations]\nrel: a\n"
        )


# b.a and f.e.d both run 1 -> 5, one of length 2 and one of length 3
INHOMOGENEOUS_IN_LENGTH = (
    "[quiver]\nvertices: 1 2 3 4 5\n"
    "arrow: a 1 2\narrow: b 2 5\narrow: d 1 3\narrow: e 3 4\narrow: f 4 5\n"
    "[relations]\nrel: b.a - f.e.d\n"
)


def test_inhomogeneous_relation():
    in_target = (
        "[quiver]\nvertices: 1 2 3 4\n"
        "arrow: a 1 2\narrow: b 2 3\narrow: c 2 4\n"
        "[relations]\nrel: b.a - c.a\n"
    )
    for text in (in_target, INHOMOGENEOUS_IN_LENGTH):
        with pytest.raises(
            InputError, match=r"not homogeneous in \(source, target, length\)"
        ):
            load_algebra(text)


def test_growth_cap(monkeypatch):
    monkeypatch.setattr(quiver, "DEFAULT_BASIS_CAP", 16)
    loop = "[quiver]\nvertices: 1\narrow: x 1 1\n"
    with pytest.raises(AlgebraBuildError, match="exceeded cap 16"):
        load_algebra(loop)


def test_integer_coefficient_relation():
    # scaled commutativity relation: 2*(b.a) - 2*(c.a) over a genuine square
    text = (
        "[quiver]\nvertices: 1 2 3 4\n"
        "arrow: a 1 2\narrow: a2 1 3\narrow: b 2 4\narrow: c 3 4\n"
        "[relations]\nrel: 2*b.a - 2*c.a2\n"
    )
    alg = load_algebra(text)
    # one surviving class of length-2 paths
    assert alg.dim() == 4 + 4 + 1


def test_make_quiver_rejects_duplicates():
    with pytest.raises(InputError):
        make_quiver(["1", "1"], [])


def test_reduce_path_beyond_nilpotency_bound(a4):
    from clusterchar.quiver import Path

    q = a4.quiver
    g, a, b = q.arrow_index("g"), q.arrow_index("a"), q.arrow_index("b")
    # gamma a b gamma: composable of length 4, one past the bound, while
    # its prefix of length 3 reaches the bound and reduces to zero
    assert a4.nilpotency_bound == 3
    assert a4.reduce_path(Path(3, (g, a, b))) == {}
    with pytest.raises(InputError, match="longer than the nilpotency bound 3"):
        a4.reduce_path(Path(3, (g, a, b, g)))


# -- the graded climb against the ungraded reference -------------------------


@st.composite
def presentations(draw, max_vertices, max_arrows, max_len):
    """A small quiver (loops and cycles allowed) with random relations,
    each homogeneous in (source, target, length): monomials and binomials
    with coefficients up to 3 in size, so that Fractions occur.  Every
    path of one length is a relation too, which keeps the algebra
    finite-dimensional and the reference climb short."""
    n = draw(st.integers(1, max_vertices))
    ends = st.tuples(st.integers(1, n), st.integers(1, n))
    q = make_quiver(
        [str(v) for v in range(1, n + 1)],
        [("a%d" % k, str(s), str(t))
         for k, (s, t) in enumerate(draw(st.lists(ends, max_size=max_arrows)))],
    )
    groups: dict = {}
    layer = [Path(v, ()) for v in range(n)]
    for length in range(1, max_len + 2):
        layer = [
            Path(p.source, p.arrows + (k,))
            for p in layer
            for k, a in enumerate(q.arrows)
            if a.source == path_target(q, p)
        ]
        for p in layer if length >= 2 else ():
            groups.setdefault((p.source, path_target(q, p), length), []).append(p)
    rels = []
    if groups:
        coefficients = st.sampled_from([-3, -2, -1, 1, 2, 3])
        keys = sorted(k for k in groups if k[2] <= max_len)
        for key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=4)):
            terms = draw(st.lists(st.sampled_from(groups[key]), min_size=1,
                                  max_size=2, unique=True))
            rels.append(tuple((draw(coefficients), p) for p in terms))
        # a cut through more paths makes the reference climb take minutes
        sizes: dict = {}
        for (_, _, length), ps in groups.items():
            sizes[length] = sizes.get(length, 0) + len(ps)
        cut = draw(st.sampled_from(
            [length for length in sorted(sizes) if length >= 3 and sizes[length] <= 150]
            or [3]
        ))
        rels += [((1, p),) for (_, _, length), ps in groups.items()
                 if length == cut for p in ps]
    return q, tuple(rels)


def _climb(reduce_paths, q, rels):
    """The bound and the table, entries typed; or the exception class."""
    try:
        bound, table = reduce_paths(q, rels)
    except (InputError, AlgebraBuildError) as exc:
        return type(exc)
    return bound, {
        p: [(b, type(c), c) for b, c in row.items()] for p, row in table.items()
    }


def _check_against_reference(q, rels):
    got = _climb(quiver._reduce_paths, q, rels)
    assert got == _climb(quiver_reference._reduce_paths, q, rels)
    if isinstance(got, tuple):
        op = opposite(AlgebraPresentation(q, rels))
        assert _climb(lambda *_: (op.nilpotency_bound, op._reduce_table),
                      op.quiver, op.relations) == _climb(
            quiver_reference._reduce_paths, op.quiver, op.relations
        )


@given(presentations(max_vertices=3, max_arrows=4, max_len=3))
@settings(max_examples=60, deadline=None)
def test_graded_climb_matches_the_reference(presentation):
    _check_against_reference(*presentation)


@pytest.mark.slow
@given(presentations(max_vertices=4, max_arrows=5, max_len=4))
@settings(max_examples=300, deadline=None)
def test_graded_climb_matches_the_reference_on_larger_quivers(presentation):
    _check_against_reference(*presentation)


@pytest.mark.parametrize(
    "name",
    ["a4", "d4", "an2", "an3", "an4", "an5", "loop", "flipped_square", "fractions"],
)
def test_graded_climb_matches_the_reference_on_fixed_algebras(data_dir, name):
    alg = load_named(data_dir, name)
    _check_against_reference(alg.quiver, alg.relations)


def test_both_climbs_stop_at_the_basis_cap():
    two_loops = make_quiver(["1"], [("x", "1", "1"), ("y", "1", "1")])
    assert _climb(quiver._reduce_paths, two_loops, ()) is AlgebraBuildError
    _check_against_reference(two_loops, ())
