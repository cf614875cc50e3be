import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import modules_reference
from module_strategies import loop_modules
from module_strategies import modules as generated_modules
import clusterchar
from clusterchar import character, cli, forms, modules, polygon, quiver
from clusterchar.errors import AlgebraBuildError, ConsistencyError
from clusterchar.forms import antisym_form_matrix, form_a_row, indices
from clusterchar.modules import (
    direct_sum,
    euler_form,
    ext1_dim,
    hom_dim,
    injective,
    load_module_file,
    projective,
    simple,
    zero_module,
)
from clusterchar.polygon import interval_ses, interval_module, linear_an_algebra, verify_an
from clusterchar.quiver import AlgebraPresentation, load_algebra, load_algebra_file
from opposite_reference import dual
from test_quiver import presentations

A4_FORM_MATRIX = (
    (0, 1, 0, 0),
    (-1, 0, -1, 1),
    (0, 1, 0, -1),
    (0, -1, 1, 0),
)
# E = I - (arrow counts i -> j) over a4, row i being the index of S_i
A4_EULER = (
    (1, 0, 0, 0),
    (-1, 1, -1, 0),
    (0, 0, 1, -1),
    (0, -1, 0, 1),
)


def test_a4_form_matrix(a4):
    assert antisym_form_matrix(a4) == A4_FORM_MATRIX


@pytest.mark.parametrize("i, j", [(1, 1), (1, 2)], ids=["diagonal", "off-diagonal"])
def test_corrupt_presentation_entry_is_caught(data_dir, monkeypatch, i, j):
    # one more P_j in the presentation of the simple at i, as one more in
    # <S_i, S_j>: the form matrix checks every entry of E against the
    # arrows and refuses it.  The descent check of S_i alone would miss
    # the diagonal entry, which moves its index and its coindex alike
    real = forms.euler_form
    unit = [tuple(int(v == k) for v in range(4)) for k in range(4)]

    def corrupted(m, n):
        return real(m, n) + (m.dims == unit[i] and n.dims == unit[j])

    monkeypatch.setattr(forms, "euler_form", corrupted)
    algebra = load_algebra((data_dir / "a4.alg").read_text())
    with pytest.raises(ConsistencyError, match=r"^form matrix mismatch: <S_2, S_%d> = " % (j + 1)):
        antisym_form_matrix(algebra)
    if i == j:
        moved = tuple(x + (k == i) for k, x in enumerate(A4_EULER[i]))
        assert indices(simple(algebra, i))[0] == moved
    else:
        with pytest.raises(ConsistencyError, match=r"^index mismatch: "):
            indices(simple(algebra, i))


def test_form_matrix_reads_no_copresentation(capsys, data_dir, monkeypatch):
    # the arrows are the form matrix's second route, the relations acting
    # on the module the coindex's only one, and I_i is read off the
    # algebra's own basis: each call reduces the one presentation it
    # loads, and no second one
    reduced = []
    real = quiver._reduce_paths

    def counted(q, rels):
        reduced.append(q)
        return real(q, rels)

    monkeypatch.setattr(quiver, "_reduce_paths", counted)
    alg, mod = str(data_dir / "a4.alg"), str(data_dir / "a4_M.mod")
    for argv, head in [
        (["form-matrix", alg], "0 1 0 0\n-1 0 -1 1\n0 1 0 -1\n0 -1 1 0\n"),
        (["index", alg, mod], "ind = [P_2] - [P_3]\ncoind = [P_1] - [P_4]\n"),
        (["xvalue", alg, mod], "X = (x1*x3 + x2*x4 + x4) / (x1*x2)\n"),
        (["algebra", "check", alg], "vertices: 1 2 3 4\n"),
    ]:
        reduced.clear()
        assert cli.run(argv) == 0
        assert capsys.readouterr().out.startswith(head)
        assert len(reduced) == 1, argv
    # verify_an builds its algebra once and passes it down, so its
    # modules and its oracle matrix all come from that one algebra
    reduced.clear()
    assert verify_an(3).ok
    assert len(reduced) == 1


def _spied_verify_a4(monkeypatch):
    """Run `verify_an(4)`; return the algebra it built, the module parts
    of the objects passed to `cc_value` and the modules the character
    took the submodule classes of."""
    built, valued, split = [], [], []
    real_algebra = polygon.linear_an_algebra
    real_value, real_classes = character.cc_value, character.submodule_classes

    def algebra(n):
        built.append(real_algebra(n))
        return built[-1]

    def value(obj):
        valued.append(obj.module_part)
        return real_value(obj)

    def classes(m):
        split.append(m)
        return real_classes(m)

    monkeypatch.setattr(polygon, "linear_an_algebra", algebra)
    for home in (character, polygon):
        monkeypatch.setattr(home, "cc_value", value)
    monkeypatch.setattr(character, "submodule_classes", classes)
    assert verify_an(4).ok
    [built_algebra] = built
    return built_algebra, valued, split


def test_the_algebra_keeps_only_values(monkeypatch):
    # the character value of a module is the one derived value read
    # again, so it is all that a run stores on its algebra, keyed by the
    # module alone: the shifts are a monomial factor
    algebra, valued, _ = _spied_verify_a4(monkeypatch)
    assert set(algebra._memo) == {("cc_value", m.fingerprint()) for m in valued}


def test_each_module_is_split_into_classes_once(monkeypatch):
    # a shifted object reads the value of its module part, so the
    # submodule classes of each distinct module are taken once
    _, valued, split = _spied_verify_a4(monkeypatch)
    assert len(split) == len({m.fingerprint() for m in valued})


def test_a_second_run_recomputes_every_value(monkeypatch):
    # each run builds its own algebra, so no value of the first run is
    # read by the second: both take the submodule classes of all 17
    # distinct modules of A4
    runs = []
    for _ in range(2):
        with monkeypatch.context() as patch:
            runs.append(len(_spied_verify_a4(patch)[2]))
    assert runs == [17, 17]


def test_coindex_is_computed_once_per_module(capsys, data_dir, monkeypatch):
    # `index` reads the coindex, and the CLI prints it as well: each
    # <S_i, m> and each <m, S_i> is read off the relations once
    calls = []
    real = forms.euler_form

    def counted(m, n):
        calls.append((m.dims, n.dims))
        return real(m, n)

    monkeypatch.setattr(forms, "euler_form", counted)
    code = cli.run(["index", str(data_dir / "a4.alg"), str(data_dir / "a4_M.mod")])
    capsys.readouterr()
    assert code == 0
    simples = [tuple(int(j == i) for j in range(4)) for i in range(4)]
    m = (1, 1, 0, 0)
    assert sorted(calls) == sorted([(m, s) for s in simples] + [(s, m) for s in simples])


def test_a_value_builds_no_projective_and_solves_no_hom(capsys, data_dir, monkeypatch):
    # the index and the coindex are both read off the relations acting on
    # the module, and the form matrix off the arrows: a value builds no
    # projective and solves no Hom space, and neither does printing the
    # form matrix, which checks every <S_i, S_j>
    built, homs = [], []
    real_build, real_hom = modules.projective, modules.hom_dim

    def counted_build(algebra, i):
        built.append(i)
        return real_build(algebra, i)

    def counted_hom(m, n):
        homs.append((m.dims, n.dims))
        return real_hom(m, n)

    # every name the package binds the builder to, the command line's included
    for module in (modules, cli, clusterchar):
        monkeypatch.setattr(module, "projective", counted_build)
    monkeypatch.setattr(modules, "hom_dim", counted_hom)
    code = cli.run(["xvalue", str(data_dir / "a4.alg"), str(data_dir / "a4_M.mod")])
    assert (code, capsys.readouterr().err) == (0, "")
    assert cli.run(["form-matrix", str(data_dir / "a4.alg")]) == 0
    assert capsys.readouterr().out == "0 1 0 0\n-1 0 -1 1\n0 1 0 -1\n0 -1 1 0\n"
    assert (built, homs) == ([], [])


@pytest.mark.parametrize(
    "alg_name, mod_name", [("a4", "a4_M"), ("a4", None), ("d4", "d4_M")],
    ids=["a4_M", "S_1", "d4_M"],
)
def test_corrupt_cover_is_caught(capsys, data_dir, monkeypatch, alg_name, mod_name):
    # one P_i of the cover moved to the next vertex, as a unit of the
    # index (<m, S_i>)_i = [P0] - [P1] moved.  Moved for every module, the
    # fault shows in the index of the module asked for, and in the printed
    # form matrix, whose entries <S_i, S_j> are checked against the
    # arrows.  Moved only for the non-simple modules, it spares the
    # simples, so the form matrix still holds; the index must catch it
    # either way, as its second route coind(m) - (E - E^T) dim m reads the
    # module on the other side of the form, and the coindex is only
    # returned once that check passes
    real = forms.euler_form

    def load():
        # a fresh algebra, so that no index is already cached
        algebra = load_algebra_file(data_dir / ("%s.alg" % alg_name))
        if mod_name is None:
            return simple(algebra, 0)
        return load_module_file(data_dir / ("%s.mod" % mod_name), algebra)

    def move_cover(hit):
        def corrupted(m, n):
            if sum(n.dims) != 1 or not hit(m):
                return real(m, n)
            simples = [simple(m.algebra, j) for j in range(len(m.dims))]
            ind = [real(m, s) for s in simples]
            i = next(k for k, c in enumerate(ind) if c)
            ind[i] -= 1
            ind[(i + 1) % len(ind)] += 1
            return ind[n.dims.index(1)]

        monkeypatch.setattr(forms, "euler_form", corrupted)

    m = load()
    move_cover(lambda x: True)
    with pytest.raises(ConsistencyError, match=r"^index mismatch: "):
        indices(m)
    assert cli.run(["form-matrix", str(data_dir / ("%s.alg" % alg_name))]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.match(r"error: form matrix mismatch: <S_\w+, S_\w+> = ", captured.err)
    if mod_name is not None:
        m = load()
        move_cover(lambda x: sum(x.dims) > 1)
        with pytest.raises(ConsistencyError, match=r"^index mismatch: "):
            indices(m)


# algebras whose form does not descend, so that the descent check refuses
# some of their modules: linear A3 with b.a, and two relations that share
# their paths, which rank gamma_1 tells apart only by their coefficients
OFF_CONTRACT = {
    "a3_ba": "[quiver]\nvertices: 1 2 3\narrow: a 1 2\narrow: b 2 3\n[relations]\nrel: b.a\n",
    "two_relations": "[quiver]\nvertices: 1 2 3\narrow: a 1 2\narrow: b 1 2\narrow: c 2 3\n"
                     "[relations]\nrel: c.a - c.b\nrel: c.a - 2*c.b\n",
}


@pytest.mark.parametrize(
    "name, max_dim",
    [("loop", 3), ("a4", 2), ("d4", 2), ("a3_ba", 2), ("two_relations", 2)],
)
def test_coindex_matches_the_euler_forms_with_the_simples(algebras, name, max_dim):
    # the coindex read off the relations against the Euler forms
    # (<S_i, m>)_i of the reference, dim Hom - dim Ext^1 with Ext^1 from
    # the reference syzygy.  Off the contract the form is read directly
    if name in OFF_CONTRACT:
        algebra = load_algebra(OFF_CONTRACT[name])
    else:
        algebra = algebras[name]
    simples = [simple(algebra, i) for i in range(algebra.quiver.n)]
    route = (lambda m: indices(m)[1]) if name not in OFF_CONTRACT else (
        lambda m: tuple(euler_form(s, m) for s in simples)
    )
    strategy = loop_modules(algebra) if name == "loop" else generated_modules(algebra, max_dim)

    @given(strategy)
    @settings(max_examples=50, deadline=None)
    def check(m):
        reference = tuple(hom_dim(s, m) - modules_reference.ext1_dim(s, m) for s in simples)
        assert route(m) == reference

    check()


@pytest.mark.parametrize("name, max_dim", [("loop", 3), ("a4", 2), ("d4", 2)])
def test_coindex_matches_the_injective_copresentation(algebras, name, max_dim):
    # the injective copresentation, as the reference presentation of the
    # dual over the opposite algebra
    algebra = algebras[name]
    strategy = loop_modules(algebra) if name == "loop" else generated_modules(algebra, max_dim)

    @given(strategy)
    @settings(max_examples=50, deadline=None)
    def check(m):
        i0, i1 = modules_reference.presentation(dual(m))
        assert indices(m)[1] == tuple(x - y for x, y in zip(i0, i1))

    check()


def test_one_vertex_form_matrix():
    alg = load_algebra("[quiver]\nvertices: v\n")
    assert antisym_form_matrix(alg) == ((0,),)


def _arrow_count_antisym(alg):
    n = alg.quiver.n
    counts = [[0] * n for _ in range(n)]
    for a in alg.quiver.arrows:
        counts[a.source][a.target] += 1
    return tuple(
        tuple(counts[j][i] - counts[i][j] for j in range(n)) for i in range(n)
    )


def test_hereditary_form_is_arrow_count_antisymmetrization():
    for n in (2, 3, 4):
        alg = linear_an_algebra(n)
        assert antisym_form_matrix(alg) == _arrow_count_antisym(alg)


@given(presentations(max_vertices=3, max_arrows=4, max_len=3))
@settings(max_examples=60, deadline=None)
def test_form_matrix_is_arrow_count_antisymmetrization(presentation):
    # loops, 2-cycles and parallel arrows included: every relation has
    # length >= 2, so each simple's presentation agrees with the arrows
    try:
        alg = AlgebraPresentation(*presentation)
    except AlgebraBuildError:
        assume(False)
    assert antisym_form_matrix(alg) == _arrow_count_antisym(alg)


@given(presentations(max_vertices=3, max_arrows=4, max_len=3), st.data())
@settings(max_examples=60, deadline=None)
def test_form_row_read_off_the_arrows_is_the_checked_matrix_applied(presentation, data):
    # loops cancel, parallel arrows and oriented cycles add up
    try:
        alg = AlgebraPresentation(*presentation)
    except AlgebraBuildError:
        assume(False)
    matrix = antisym_form_matrix(alg)
    vectors = st.tuples(*[st.integers(-4, 4)] * alg.quiver.n)
    for e in data.draw(st.lists(vectors, min_size=1, max_size=4)):
        assert form_a_row(alg, e) == tuple(sum(x * y for x, y in zip(row, e)) for row in matrix)


def test_cluster_tilted_instances_match_arrow_counts(a4, d4):
    # holds for the shipped cluster-tilted instances; checked per instance
    assert antisym_form_matrix(a4) == _arrow_count_antisym(a4)
    assert antisym_form_matrix(d4) == _arrow_count_antisym(d4)


def test_euler_form_on_projectives(a4, a4_M):
    for i in range(4):
        for n in (a4_M, simple(a4, 2), injective(a4, 1)):
            assert euler_form(projective(a4, i), n) == n.dims[i]


def test_euler_form_solves_no_hom(data_dir, monkeypatch):
    # <m, n> is one rank, of the map the relations induce; no Hom space
    # is solved for it, projective or not
    def no_hom(m, n):
        raise AssertionError("Hom solved for an Euler form")

    monkeypatch.setattr(modules, "hom_dim", no_hom)
    algebra = load_algebra_file(data_dir / "a4.alg")
    m = load_module_file(data_dir / "a4_M.mod", algebra)
    pairs = [(m, simple(algebra, i)) for i in range(4)]
    pairs += [(simple(algebra, 1), m), (projective(algebra, 0), m), (m, m)]
    assert [euler_form(x, y) for x, y in pairs] == [0, 1, -1, 0, 0, 1, 1]


def test_form_matrix_solves_no_hom(data_dir, monkeypatch):
    # the form matrix reads the arrows and the presentations of the simples only
    def no_hom(m, n):
        raise AssertionError("Hom solved for the form matrix")

    monkeypatch.setattr(modules, "hom_dim", no_hom)
    algebra = load_algebra_file(data_dir / "a4.alg")
    assert antisym_form_matrix(algebra) == A4_FORM_MATRIX


def test_ext1_from_a_projective_solves_one_hom(data_dir, monkeypatch):
    # Hom(P, n) alone: <P, n> solves none
    algebra = load_algebra_file(data_dir / "a4.alg")
    m = load_module_file(data_dir / "a4_M.mod", algebra)
    calls = []
    real = modules.hom_dim

    def counted(x, y):
        if any(x.dims) and any(y.dims):
            calls.append((x, y))
        return real(x, y)

    monkeypatch.setattr(modules, "hom_dim", counted)
    assert ext1_dim(projective(algebra, 0), m) == 0
    assert len(calls) == 1


def test_zero_module_pairs_to_zero(a4, d4, a4_M, d4_M):
    for alg, m in ((a4, a4_M), (d4, d4_M)):
        zero = zero_module(alg)
        others = [zero, m] + [simple(alg, i) for i in range(4)]
        others += [projective(alg, i) for i in range(4)]
        for n in others:
            assert euler_form(zero, n) == euler_form(n, zero) == 0
            assert ext1_dim(zero, n) == ext1_dim(n, zero) == 0


def test_euler_form_examples(a4):
    a2 = load_algebra("[quiver]\nvertices: 1 2\narrow: a 1 2\n")
    assert euler_form(simple(a2, 0), simple(a2, 1)) == -1
    assert euler_form(simple(a4, 1), simple(a4, 0)) == -1


def _form_a(a, v, w):
    """<v, w>_a, as v dotted with the form matrix applied to w."""
    return sum(x * y for x, y in zip(v, form_a_row(a, w)))


def test_form_a_values(a4):
    assert _form_a(a4, (1, 0, 0, 0), (0, 1, 0, 0)) == 1
    assert _form_a(a4, (0, 0, 0, 1), (0, 1, 0, 0)) == -1


@given(st.lists(st.integers(-5, 5), min_size=4, max_size=4))
@settings(max_examples=50, deadline=None)
def test_form_a_skew(a4, v):
    assert _form_a(a4, tuple(v), tuple(v)) == 0


def test_index_coindex_worked_instances(a4_M, d4_M):
    # ([P_2] - [P_3], [P_1] - [P_4])
    assert indices(a4_M) == ((0, 1, -1, 0), (1, 0, 0, -1))
    # ([P_0] - [P_3], [P_1] + [P_2] - [P_0])
    assert indices(d4_M) == ((1, 0, 0, -1), (-1, 1, 1, 0))


def test_index_of_projectives(a4):
    for i in range(4):
        assert indices(projective(a4, i))[0] == tuple(
            1 if j == i else 0 for j in range(4)
        )


def test_coindex_of_injectives(a4):
    for i in range(4):
        assert indices(injective(a4, i))[1] == tuple(
            1 if j == i else 0 for j in range(4)
        )


def test_both_routes_agree_everywhere(a4, d4, a4_M, d4_M):
    mods = [a4_M, d4_M]
    for alg in (a4, d4):
        mods.append(zero_module(alg))
        for i in range(4):
            mods += [simple(alg, i), projective(alg, i), injective(alg, i)]
    # both are read off the relations; the reference takes each Euler form
    # with a simple as dim Hom - dim Ext^1, Ext^1 from its syzygy
    for m in mods:
        simples = [simple(m.algebra, i) for i in range(m.algebra.quiver.n)]
        assert indices(m) == (
            tuple(hom_dim(m, s) - modules_reference.ext1_dim(m, s) for s in simples),
            tuple(hom_dim(s, m) - modules_reference.ext1_dim(s, m) for s in simples),
        )


def _shipped_modules(a4, d4, a4_M, d4_M):
    mods = [a4_M, d4_M]
    for alg in (a4, d4):
        for i in range(alg.quiver.n):
            mods += [simple(alg, i), projective(alg, i), injective(alg, i)]
    for n in (2, 3, 4):
        alg = linear_an_algebra(n)
        for lo in range(1, n + 1):
            for hi in range(lo, n + 1):
                mods.append(interval_module(alg, lo, hi))
    return mods


def test_descent_to_k0(a4, d4, a4_M, d4_M):
    # the antisymmetrized form of a module against every simple depends
    # only on its class: direct Hom/Ext values match the matrix acting on
    # the dimension vector
    for m in _shipped_modules(a4, d4, a4_M, d4_M):
        alg = m.algebra
        direct = tuple(
            euler_form(simple(alg, i), m) - euler_form(m, simple(alg, i))
            for i in range(alg.quiver.n)
        )
        assert direct == form_a_row(alg, m.dims)


def test_coindex_minus_index_is_form_row(a4, d4, a4_M, d4_M):
    for m in _shipped_modules(a4, d4, a4_M, d4_M):
        ind, coind = indices(m)
        delta = tuple(c - i for c, i in zip(coind, ind))
        assert delta == form_a_row(m.algebra, m.dims)


def _added(p, q):
    """The sum of two (index, coindex) pairs, entry by entry."""
    return tuple(tuple(a + b for a, b in zip(u, v)) for u, v in zip(p, q))


def test_index_additive_over_direct_sums(a4, a4_M):
    pairs = [(a4_M, simple(a4, 0)), (a4_M, projective(a4, 3)), (simple(a4, 1), injective(a4, 2))]
    for m, n in pairs:
        s = direct_sum(m, n)
        assert indices(s) == _added(indices(m), indices(n))


def test_index_additive_on_a4_ses(a4, a4_M):
    # 0 -> S_1 -> M -> S_2 -> 0 in the A4 data
    s1, s2 = simple(a4, 0), simple(a4, 1)
    assert indices(a4_M) == _added(indices(s1), indices(s2))


def test_index_additive_on_interval_ses():
    for n in (2, 3, 4):
        for sub, total, quot in interval_ses(linear_an_algebra(n)):
            assert indices(total) == _added(indices(sub), indices(quot))
