import pytest

from clusterchar import cli, linalg, quiver
from clusterchar.errors import AlgebraBuildError, InputError
from clusterchar.modules import hom_dim, projective, simple
from clusterchar.quiver import (
    build_algebra,
    load_algebra,
    load_algebra_file,
    make_quiver,
    path_sort_key,
    path_target,
    render_path,
    same_algebra,
)

ONE_VERTEX = "[quiver]\nvertices: v\n"
LOOP_CUBE = "[quiver]\nvertices: 1\narrow: x 1 1\n[relations]\nrel: x.x.x\n"
# arrows declared so that the two sides of the square sort one way and
# their reversals the other: the opposite keeps the other side as basis
# path than a fresh reduction of the opposite would
FLIPPED_SQUARE = (
    "[quiver]\nvertices: 1 2 3 4\n"
    "arrow: a 1 2\narrow: a2 1 3\narrow: c 3 4\narrow: b 2 4\n"
    "[relations]\nrel: b.a - c.a2\n"
)


def test_a4_basis(a4):
    assert a4.dim() == 9
    assert a4.nilpotency_bound == 3
    names = sorted(render_path(a4.quiver, p) for p in a4.basis)
    assert names == sorted(["e_1", "e_2", "e_3", "e_4", "d", "a", "b", "g", "d.g"])


def test_one_vertex_algebra():
    alg = load_algebra(ONE_VERTEX)
    assert alg.dim() == 1
    assert alg.nilpotency_bound == 1


def test_d4_loads(d4):
    assert d4.dim() == 10
    # commutative-square reading: the two length-2 paths around the square
    # fall into one basis class
    assert len(d4.basis_by_pair[(0, 3)]) == 1


def test_dim_b_is_sum_of_projective_dims(a4, d4):
    for alg in (a4, d4):
        total = sum(
            projective(alg, i).total_dim() for i in range(alg.quiver.n)
        )
        assert alg.dim() == total


def test_opposite_is_involution(a4):
    op = a4.opposite()
    assert op.dim() == a4.dim()
    assert op.opposite() is a4


def _ideal_blocks(alg):
    """Per (source, target) block: the paths of length <= the nilpotency
    bound, and the vectors p - reduce(p) spanning the ideal there."""
    blocks: dict = {}
    for p in alg._reduce_table:
        blocks.setdefault((p.source, path_target(alg.quiver, p)), []).append(p)
    out = {}
    for key, paths in blocks.items():
        paths.sort(key=path_sort_key)
        rows = []
        for p in paths:
            vec = {p: 1}
            for b, c in alg.reduce_path(p).items():
                vec[b] = vec.get(b, 0) - c
            rows.append([vec.get(x, 0) for x in paths])
        out[key] = (paths, rows)
    return out


def _rank(rows, width):
    return linalg.rank(linalg.matrix(rows, rows=len(rows), cols=width))


@pytest.mark.parametrize(
    "name", ["a4", "d4", "an2", "an3", "an4", "an5", "loop", "flipped_square"]
)
def test_derived_opposite_matches_a_fresh_build(data_dir, name):
    texts = {"loop": LOOP_CUBE, "flipped_square": FLIPPED_SQUARE}
    if name in texts:
        alg = load_algebra(texts[name])
    else:
        alg = load_algebra_file(data_dir / ("%s.alg" % name))
    op = alg.opposite()
    fresh = build_algebra(op.quiver, op.relations)
    assert op.quiver == fresh.quiver and op.relations == fresh.relations
    assert op.nilpotency_bound == fresh.nilpotency_bound
    assert op.dim() == fresh.dim() == alg.dim()
    derived, rebuilt = _ideal_blocks(op), _ideal_blocks(fresh)
    assert derived.keys() == rebuilt.keys()
    for key, (paths, rows) in derived.items():
        assert rebuilt[key][0] == paths
        # the same ideal span, whichever basis paths each side kept
        width = len(paths)
        assert _rank(rows, width) == _rank(rebuilt[key][1], width)
        assert _rank(rows, width) == _rank(rows + rebuilt[key][1], width)
    if name == "flipped_square":
        assert op.basis != fresh.basis


def test_opposite_checks_the_reversed_relations(data_dir):
    alg = load_algebra_file(data_dir / "a4.alg")
    (_, p), = alg.relations.relations[0]
    alg._reduce_table[p] = {p: 1}
    with pytest.raises(AlgebraBuildError, match="does not vanish"):
        alg.opposite()


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
    assert len(calls) == 1


def test_double_dual_fingerprints(a4, a4_M):
    from clusterchar.modules import dual

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


def test_inhomogeneous_relation():
    text = (
        "[quiver]\nvertices: 1 2 3 4\n"
        "arrow: a 1 2\narrow: b 2 3\narrow: c 2 4\n"
        "[relations]\nrel: b.a - c.a\n"
    )
    with pytest.raises(InputError, match="homogeneous"):
        load_algebra(text)


def test_growth_cap():
    loop = "[quiver]\nvertices: 1\narrow: x 1 1\n"
    with pytest.raises(AlgebraBuildError):
        load_algebra(loop, basis_cap=16)


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
    # gamma a b gamma: composable of length 4, one past the bound
    long_path = Path(3, (g, a, b, g))
    assert a4.reduce_path(long_path) == {}


def test_render_trivial_path(a4):
    from clusterchar.quiver import Path

    assert render_path(a4.quiver, Path(0, ())) == "e_1"
