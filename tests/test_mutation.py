import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mutation_reference
from clusterchar import cli, mutation
from clusterchar.errors import (
    ConsistencyError,
    InputError,
    LaurentDivisionError,
    NotFiniteTypeError,
)
from clusterchar.laurent import LaurentPoly, laurent_render
from clusterchar.mutation import (
    check_exchange_matrix,
    enumerate_cluster_variables,
    initial_seed,
    load_matrix,
    mutate_matrix,
    mutate_seed,
    quiver_to_matrix,
)
from clusterchar.polygon import linear_an_algebra
from clusterchar.quiver import make_quiver

A2 = ((0, 1), (-1, 0))


def test_matrix_mutation_rank2():
    assert mutate_matrix(A2, 0) == ((0, -1), (1, 0))


def test_matrix_mutation_a3_middle():
    b = quiver_to_matrix(linear_an_algebra(3).quiver)
    mutated = mutate_matrix(b, 1)
    # arrows at the middle vertex reverse and the composite 1 -> 3 appears
    assert mutated == (
        (0, -1, 1),
        (1, 0, -1),
        (-1, 1, 0),
    )


@st.composite
def skew_matrices(draw):
    n = draw(st.integers(2, 4))
    entries = {}
    for i in range(n):
        for j in range(i + 1, n):
            entries[(i, j)] = draw(st.integers(-2, 2))
    return tuple(
        tuple(
            0 if i == j else (entries[(i, j)] if i < j else -entries[(j, i)])
            for j in range(n)
        )
        for i in range(n)
    )


@given(skew_matrices(), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_matrix_mutation_involution(b, k):
    k = k % len(b)
    assert mutate_matrix(mutate_matrix(b, k), k) == b


@given(skew_matrices(), st.data())
@settings(max_examples=100, deadline=None)
def test_extended_matrix_mutation_matches_the_entrywise_rule(b, data):
    n = len(b)
    rows = st.tuples(*[st.integers(-3, 3)] * n)
    m = b + data.draw(st.tuples(*[rows] * n))
    k = data.draw(st.integers(0, n - 1))
    assert mutate_matrix(m, k) == tuple(
        tuple(
            -m[i][j] if k in (i, j)
            else m[i][j] + (abs(m[i][k]) * m[k][j] + m[i][k] * abs(m[k][j])) // 2
            for j in range(n)
        )
        for i in range(2 * n)
    )


@given(skew_matrices(), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_matrix_mutation_preserves_skew_symmetry(b, k):
    k = k % len(b)
    check_exchange_matrix(mutate_matrix(b, k))


def test_seed_mutation_a2_steps():
    s = initial_seed(A2)
    s1 = mutate_seed(s, 0)
    assert laurent_render(s1.variables[0]) == "x1^-1*x2 + x1^-1"
    s2 = mutate_seed(s1, 1)
    assert laurent_render(s2.variables[1]) == "x2^-1 + x1^-1 + x1^-1*x2^-1"


def test_seed_mutation_involution():
    s = initial_seed(quiver_to_matrix(linear_an_algebra(3).quiver))
    for k in range(3):
        assert mutate_seed(mutate_seed(s, k), k) == s
    deep = mutate_seed(mutate_seed(s, 0), 1)
    for k in range(3):
        assert mutate_seed(mutate_seed(deep, k), k) == deep


def test_enumerate_a2_exact_set():
    expected = {
        "x1",
        "x2",
        "x1^-1*x2 + x1^-1",
        "x1*x2^-1 + x2^-1",
        "x2^-1 + x1^-1 + x1^-1*x2^-1",
    }
    assert {laurent_render(v) for v in enumerate_cluster_variables(A2)} == expected


@pytest.mark.parametrize("n,count", [(2, 5), (3, 9), (4, 14)])
def test_enumerate_linear_counts(n, count):
    b = quiver_to_matrix(linear_an_algebra(n).quiver)
    assert len(enumerate_cluster_variables(b)) == count
    assert count == n * (n + 3) // 2


@pytest.mark.parametrize("seed_cap", [mutation.DEFAULT_SEED_CAP, 1])
def test_enumerate_rank_zero(seed_cap):
    # the initial seed is the only one visited: it has no direction to mutate in
    assert enumerate_cluster_variables((), seed_cap) == frozenset()


def test_enumerate_cap():
    kronecker = ((0, 2), (-2, 0))
    with pytest.raises(NotFiniteTypeError, match="not finite within cap"):
        enumerate_cluster_variables(kronecker, seed_cap=50)


def _dynkin(n, edges):
    """Exchange matrix of an orientation of a tree: b_ij = 1 for an edge i -> j."""
    b = [[0] * n for _ in range(n)]
    for i, j in edges:
        b[i][j], b[j][i] = 1, -1
    return tuple(map(tuple, b))


def _type_d(n):
    return _dynkin(n, [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)])


def _type_e(n):
    return _dynkin(n, [(i, i + 1) for i in range(n - 2)] + [(2, n - 1)])


# (matrix, cluster variables, clusters); the clusters of A_n are counted
# by the Catalan number C_{n+1}.
FINITE_TYPE_COUNTS = {
    "A2": (quiver_to_matrix(linear_an_algebra(2).quiver), 5, 5),
    "A3": (quiver_to_matrix(linear_an_algebra(3).quiver), 9, 14),
    "A4": (quiver_to_matrix(linear_an_algebra(4).quiver), 14, 42),
    "A5": (quiver_to_matrix(linear_an_algebra(5).quiver), 20, 132),
    "A6": (quiver_to_matrix(linear_an_algebra(6).quiver), 27, 429),
    "D4": (_type_d(4), 16, 50),
    "D5": (_type_d(5), 25, 182),
    "D6": (_type_d(6), 36, 672),
    "E6": (_type_e(6), 42, 833),
    "E7": (_type_e(7), 70, 4160),
}
# the types of rank at most 5, which the Laurent-keyed reference
# enumerates in a fraction of a second from any seed
REFERENCE_KINDS = sorted(k for k, (b, _, _) in FINITE_TYPE_COUNTS.items() if len(b) <= 5)


@given(
    st.sampled_from(sorted(FINITE_TYPE_COUNTS)),
    st.lists(st.integers(0, 5), max_size=6),
    st.integers(0, 5),
)
@settings(max_examples=60, deadline=None)
def test_mutation_is_an_involution(kind, path, k):
    # the oracle never mutates a seed back towards its parent, so the
    # involution it relies on is checked here, on seeds along random paths
    b = FINITE_TYPE_COUNTS[kind][0]
    n = len(b)
    s = initial_seed(b)
    for j in path:
        s = mutate_seed(s, j % n)
    assert mutate_seed(mutate_seed(s, k % n), k % n) == s


def _log_work(monkeypatch):
    """The list into which each Laurent division ("divide"), Laurent
    multiplication ("mul") and matrix mutation ("mutate") is logged, in
    the order they are made."""
    log = []

    def dividing(p, q):
        log.append("divide")
        return divide(p, q)

    def multiplying(p, q):
        log.append("mul")
        return multiply(p, q)

    def mutating(m, k):
        log.append("mutate")
        return mutate(m, k)

    divide, mutate = mutation.laurent_divexact, mutation.mutate_matrix
    multiply = LaurentPoly.__mul__
    monkeypatch.setattr(mutation, "laurent_divexact", dividing)
    monkeypatch.setattr(LaurentPoly, "__mul__", multiplying)
    monkeypatch.setattr(mutation, "mutate_matrix", mutating)
    return log


def _enumerate_counting_work(monkeypatch, b, seed_cap):
    """Variables, the number of Laurent divisions and the number of
    matrix mutations; no Laurent arithmetic comes before the last
    matrix mutation."""
    log = _log_work(monkeypatch)
    variables = enumerate_cluster_variables(b, seed_cap=seed_cap)
    mutations = log.count("mutate")
    assert log[:mutations] == ["mutate"] * mutations
    return len(variables), log.count("divide"), mutations


def _assert_counts(monkeypatch, b, variables, clusters):
    # one division per cluster variable outside the initial cluster, one
    # matrix mutation per cluster outside the initial one (a revisit
    # mutates nothing), and n visits per cluster (one of them the skipped
    # parent) plus the initial seed: the enumeration closes at that cap
    # and not below it; the divisions all come after the search
    n = len(b)
    visits = n * clusters + 1
    assert _enumerate_counting_work(monkeypatch, b, visits) == (
        variables,
        variables - n,
        clusters - 1,
    )
    with pytest.raises(NotFiniteTypeError, match="more than %d seeds" % (visits - 1)):
        enumerate_cluster_variables(b, seed_cap=visits - 1)


@pytest.mark.parametrize("kind", sorted(FINITE_TYPE_COUNTS))
def test_finite_type_counts(monkeypatch, kind):
    _assert_counts(monkeypatch, *FINITE_TYPE_COUNTS[kind])


def test_rank_one_mutates_once(monkeypatch):
    # A1: the one mutation reaches the second cluster, whose only direction
    # leads back to the first
    _assert_counts(monkeypatch, ((0,),), 2, 2)


@pytest.mark.slow
def test_finite_type_counts_e8(monkeypatch):
    _assert_counts(monkeypatch, _type_e(8), 128, 25080)


KRONECKER = ((0, 2), (-2, 0))
MARKOV = ((0, 2, -2), (-2, 0, 2), (2, -2, 0))
AFFINE_A2 = ((0, 1, 1), (-1, 0, 1), (-1, -1, 0))  # acyclic


def _cap_message(seed_cap):
    return "^%s$" % re.escape("not finite within cap: more than %d seeds" % seed_cap)


@pytest.mark.parametrize(
    "b,seed_cap",
    [(KRONECKER, 30), (MARKOV, 150), (AFFINE_A2, 200), (MARKOV, 20_000)],
    ids=["kronecker-30", "markov-150", "affine-a2-200", "markov-20000"],
)
def test_capped_run_computes_no_laurent_polynomial(monkeypatch, b, seed_cap):
    # the search runs on g-vectors and [B; C] alone, and the variables are
    # computed only once it closes, so a capped run neither divides nor
    # multiplies, however large its Laurent polynomials would have grown
    log = _log_work(monkeypatch)
    with pytest.raises(NotFiniteTypeError, match=_cap_message(seed_cap)):
        enumerate_cluster_variables(b, seed_cap=seed_cap)
    assert "divide" not in log and "mul" not in log


def _affine(arms):
    """An acyclic star: arms of the given lengths, each oriented away
    from the centre, vertex 0."""
    edges, n = [], 1
    for length in arms:
        previous = 0
        for _ in range(length):
            edges.append((previous, n))
            previous, n = n, n + 1
    return _dynkin(n, edges)


# Kronecker and Markov have an entry 2; acyclic affine A2 and the stars
# with arms (2, 2, 2), (1, 3, 3) and (1, 2, 5), the extended Dynkin
# diagrams of E6, E7 and E8, have a singular 2I - |B|
REFUSED_AT_ONCE = {
    "kronecker": KRONECKER,
    "markov": MARKOV,
    "affine-a2": AFFINE_A2,
    "affine-e6": _affine((2, 2, 2)),
    "affine-e7": _affine((1, 3, 3)),
    "affine-e8": _affine((1, 2, 5)),
}


@pytest.mark.parametrize("kind", sorted(REFUSED_AT_ONCE))
def test_infinite_type_is_refused_at_the_initial_seed(monkeypatch, capsys, tmp_path, kind):
    # at the default cap of 500,000 seeds Markov used to take seconds and
    # hundreds of megabytes to refuse; a theorem refuses these at once
    b = REFUSED_AT_ONCE[kind]
    log = _log_work(monkeypatch)
    with pytest.raises(NotFiniteTypeError, match=_cap_message(mutation.DEFAULT_SEED_CAP)):
        enumerate_cluster_variables(b)
    path = tmp_path / "b.mat"
    path.write_text("%d\n%s\n" % (len(b), "\n".join(" ".join(map(str, r)) for r in b)))
    assert cli.run(["enumerate", str(path)]) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: not finite within cap: more than 500000 seeds\n")
    assert log == []


# affine A3, 0 -> 1 -> 2 -> 3 and 0 -> 3, mutated at vertex 1: every
# |b_ij| <= 1 and an oriented cycle 0 -> 2 -> 1 -> 0, so the initial seed
# decides nothing and the search runs to the cap
CYCLIC_AFFINE_A3 = ((0, -1, 1, 1), (1, 0, -1, 0), (-1, 1, 0, 1), (-1, 0, -1, 0))


def test_cyclic_infinite_type_runs_to_the_cap(monkeypatch):
    assert not mutation._infinite_type(CYCLIC_AFFINE_A3)
    log = _log_work(monkeypatch)
    with pytest.raises(NotFiniteTypeError, match=_cap_message(400)):
        enumerate_cluster_variables(CYCLIC_AFFINE_A3, seed_cap=400)
    assert log and set(log) == {"mutate"}


def test_e8_is_not_refused():
    # E8, the largest finite type, is enumerated only by a slow test
    assert not mutation._infinite_type(_type_e(8))


# the most clusters of a finite type of rank n (A1, A2, A3, D4 and D5;
# a product of types has fewer), so that a finite type of rank n closes
# within n * CLUSTERS_MAX[n] + 1 seeds
CLUSTERS_MAX = {1: 2, 2: 5, 3: 14, 4: 50, 5: 182}


@st.composite
def exchange_matrices_up_to_rank_5(draw):
    """Skew-symmetric matrices of rank 1 to 5: entries in -2..2, or an
    acyclic quiver with single arrows, its vertices relabelled."""
    n = draw(st.integers(1, 5))
    acyclic = draw(st.booleans())
    order = draw(st.permutations(range(n)))
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = draw(st.integers(0, 1) if acyclic else st.integers(-2, 2))
            b[order[i]][order[j]], b[order[j]][order[i]] = x, -x
    return tuple(map(tuple, b))


@given(exchange_matrices_up_to_rank_5())
@settings(max_examples=150, deadline=None)
def test_refused_matrices_do_not_close_in_the_search(b):
    # what the theorems refuse at the initial seed, the g-vector search
    # itself, with the check off, fails to close at a cap that every
    # finite type of that rank closes within
    if not mutation._infinite_type(b):
        return
    seed_cap = len(b) * CLUSTERS_MAX[len(b)] + 1
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mutation, "_infinite_type", lambda b: False)
        with pytest.raises(NotFiniteTypeError, match=_cap_message(seed_cap)):
            enumerate_cluster_variables(b, seed_cap)


def _positive_definite_ldlt(a):
    """Positive definiteness by an LDL^T factorization over Fraction:
    every pivot d_j must be positive."""
    n = len(a)
    low = [[Fraction(0)] * n for _ in range(n)]
    d = []
    for j in range(n):
        dj = Fraction(a[j][j]) - sum(low[j][k] ** 2 * d[k] for k in range(j))
        if dj <= 0:
            return False
        d.append(dj)
        for i in range(j + 1, n):
            low[i][j] = (a[i][j] - sum(low[i][k] * low[j][k] * d[k] for k in range(j))) / dj
    return True


@st.composite
def symmetric_integer_matrices(draw):
    """Symmetric integer matrices of size 1 to 6: random ones, and Gram
    matrices M^T M plus a diagonal in -2..2, about half of them definite."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        m = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
        shift = [draw(st.integers(-2, 2)) for _ in range(n)]
        return [
            [sum(m[k][i] * m[k][j] for k in range(n)) + (i == j) * shift[i] for j in range(n)]
            for i in range(n)
        ]
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = draw(st.integers(-4, 9 if i == j else 4))
    return a


@given(symmetric_integer_matrices())
@settings(max_examples=300, deadline=None)
def test_integer_definiteness_matches_a_fraction_ldlt(a):
    assert mutation._positive_definite(a) == _positive_definite_ldlt(a)


def _divide_faulty_on_fifth_call(monkeypatch):
    """Make the oracle's fifth Laurent division raise; return the list of
    divisions tried."""
    calls = []

    def faulty(p, q):
        calls.append(q)
        if len(calls) == 5:
            raise LaurentDivisionError("inexact division (coefficient obstruction)")
        return divide(p, q)

    divide = mutation.laurent_divexact
    monkeypatch.setattr(mutation, "laurent_divexact", faulty)
    return calls


def test_division_error_reaches_the_cli(monkeypatch, capsys, data_dir):
    # A4 closes at 4 * 42 + 1 seeds and then makes its 10 divisions
    calls = _divide_faulty_on_fifth_call(monkeypatch)
    with pytest.raises(LaurentDivisionError, match="coefficient obstruction"):
        enumerate_cluster_variables(quiver_to_matrix(linear_an_algebra(4).quiver))
    assert len(calls) == 5
    calls.clear()
    assert cli.run(["enumerate", str(data_dir / "an4.mat")]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: inexact division (coefficient obstruction)\n"


def test_cap_error_takes_precedence_over_a_division_error(monkeypatch, capsys, data_dir):
    # below closure the search stops before the first division, so the
    # cap is what is reported
    calls = _divide_faulty_on_fifth_call(monkeypatch)
    b = quiver_to_matrix(linear_an_algebra(4).quiver)
    with pytest.raises(NotFiniteTypeError, match=_cap_message(168)):
        enumerate_cluster_variables(b, seed_cap=168)
    assert cli.run(["enumerate", str(data_dir / "an4.mat"), "--max-seeds", "168"]) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: not finite within cap: more than 168 seeds\n")
    assert calls == []


def _mutation_equivalent(b, path, order, sign):
    """``sign`` times ``b`` mutated along ``path``, its vertices put in the
    order in which ``order`` lists them."""
    n = len(b)
    for k in path:
        b = mutate_matrix(b, k % n)
    perm = [i for i in order if i < n]
    return tuple(tuple(sign * b[pi][pj] for pj in perm) for pi in perm)


def _assert_same_as_reference(b, seed_cap):
    try:
        expected = mutation_reference.enumerate_cluster_variables(b, seed_cap)
    except NotFiniteTypeError as exc:
        with pytest.raises(NotFiniteTypeError, match=re.escape(str(exc))):
            enumerate_cluster_variables(b, seed_cap)
    else:
        assert enumerate_cluster_variables(b, seed_cap) == expected


@pytest.mark.parametrize("kind", ["A6", "D6", "E6"])
def test_rank_six_matches_reference(kind):
    _assert_same_as_reference(FINITE_TYPE_COUNTS[kind][0], mutation.DEFAULT_SEED_CAP)


@given(
    st.sampled_from(REFERENCE_KINDS),
    st.lists(st.integers(0, 5), max_size=6),
    st.permutations(range(6)),
    st.sampled_from((1, -1)),
)
@settings(max_examples=40, deadline=None)
def test_enumeration_matches_reference(kind, path, order, sign):
    # finite type, mutated and relabelled: the same set of variables
    b = _mutation_equivalent(FINITE_TYPE_COUNTS[kind][0], path, order, sign)
    _assert_same_as_reference(b, mutation.DEFAULT_SEED_CAP)


@given(
    st.sampled_from(REFERENCE_KINDS),
    st.lists(st.integers(0, 5), max_size=6),
    st.permutations(range(6)),
    st.sampled_from((1, -1)),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_cap_boundary_matches_reference(kind, path, order, sign, closes):
    # n C + 1 seeds is the least cap at which a finite type with C clusters
    # closes, and so where the variables are first computed
    b0, _, clusters = FINITE_TYPE_COUNTS[kind]
    b = _mutation_equivalent(b0, path, order, sign)
    seed_cap = len(b) * clusters + closes
    if closes:
        assert enumerate_cluster_variables(b, seed_cap) == (
            mutation_reference.enumerate_cluster_variables(b, seed_cap)
        )
    else:
        for enumerate_variables in (
            enumerate_cluster_variables, mutation_reference.enumerate_cluster_variables
        ):
            with pytest.raises(NotFiniteTypeError, match=_cap_message(seed_cap)):
                enumerate_variables(b, seed_cap)


@given(skew_matrices(), st.integers(1, 60))
@settings(max_examples=80, deadline=None)
def test_capped_enumeration_matches_reference(b, seed_cap):
    # mostly infinite type: the same cap error, or the same variables
    _assert_same_as_reference(b, seed_cap)


# Each of the next five corruptions breaks the tropical duality G^T C = I
# on the first new seed it makes, before the variables could show it.
NOT_DUAL = re.escape("G^T C is not I")


def test_revisited_cluster_with_foreign_matrix_raises(monkeypatch):
    # Negating every mutated [B; C] flips the signs of the c-vectors and of
    # B together, which the g-vector recurrence and the exchange relation
    # do not see; C = -I after the first step is not the dual of G.
    correct = mutation.mutate_matrix

    def corrupted(b, k):
        return tuple(tuple(-x for x in row) for row in correct(b, k))

    monkeypatch.setattr(mutation, "mutate_matrix", corrupted)
    with pytest.raises(ConsistencyError, match=NOT_DUAL):
        enumerate_cluster_variables(A2)


def test_revisited_cluster_with_foreign_c_rows_raises(monkeypatch):
    # Doubling C after each mutation keeps every c-vector's sign, hence
    # the g-vectors, and leaves B and the variables alone, but not G^T C.
    correct = mutation.mutate_matrix

    def corrupted(b, k):
        out = correct(b, k)
        n = len(out[0])
        return out[:n] + tuple(tuple(2 * x for x in row) for row in out[n:])

    monkeypatch.setattr(mutation, "mutate_matrix", corrupted)
    with pytest.raises(ConsistencyError, match=NOT_DUAL):
        enumerate_cluster_variables(A2)


def test_mixed_sign_c_vector_raises(monkeypatch):
    # negating the first row of C after each mutation leaves a c-vector
    # with entries of both signs, and breaks duality before that c-vector
    # is mutated along (`test_g_vector_checks_sign_coherence` reaches the
    # sign check itself)
    correct = mutation.mutate_matrix

    def corrupted(b, k):
        out = correct(b, k)
        n = len(out[0])
        return out[:n] + (tuple(-x for x in out[n]),) + out[n + 1:]

    monkeypatch.setattr(mutation, "mutate_matrix", corrupted)
    with pytest.raises(ConsistencyError, match=NOT_DUAL):
        enumerate_cluster_variables(quiver_to_matrix(linear_an_algebra(3).quiver))


def test_g_vectors_off_a_basis_raise(monkeypatch):
    correct = mutation._g_vector

    def doubled(gs, m, k):
        return tuple(2 * x for x in correct(gs, m, k))

    monkeypatch.setattr(mutation, "_g_vector", doubled)
    with pytest.raises(ConsistencyError, match=NOT_DUAL):
        enumerate_cluster_variables(A2, seed_cap=1000)


def test_repeated_g_vector_raises(monkeypatch):
    def neighbour(gs, m, k):
        return gs[k - 1]

    monkeypatch.setattr(mutation, "_g_vector", neighbour)
    with pytest.raises(ConsistencyError, match=NOT_DUAL):
        enumerate_cluster_variables(A2)


def test_g_vector_checks_sign_coherence():
    # A3 with c-vector 0 = (1, 0, -1), then with C = 0
    m = quiver_to_matrix(linear_an_algebra(3).quiver) + ((1, 0, 0), (0, 1, 0), (-1, 0, 1))
    unit = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(ConsistencyError, match="not sign-coherent"):
        mutation._g_vector(unit, m, 0)
    with pytest.raises(ConsistencyError, match="not sign-coherent"):
        mutation._g_vector(unit, m[:3] + ((0, 0, 0),) * 3, 1)


@pytest.mark.parametrize("n", [3, 4])
def test_corrupted_exchange_matrix_raises(monkeypatch, n):
    # Swapping two vertices other than k in B after each mutation leaves
    # the C and the g-vectors of that step alone, so G^T C = I holds on the
    # seed it makes; G B = B0 C in column k does not.  (Unchecked, the
    # enumeration ends in an inexact division.)
    correct = mutation.mutate_matrix

    def corrupted(m, k):
        out = correct(m, k)
        i, j = [x for x in range(n) if x != k][:2]
        perm = list(range(n))
        perm[i], perm[j] = j, i
        top = tuple(tuple(out[r][c] for c in perm) for r in perm)
        return top + out[n:]

    monkeypatch.setattr(mutation, "mutate_matrix", corrupted)
    with pytest.raises(ConsistencyError, match="G B and B0 C differ in column"):
        enumerate_cluster_variables(quiver_to_matrix(linear_an_algebra(n).quiver))


def _assert_dual(b0, gs, m):
    """G^T C = I and G B = B0 C, entry by entry; G has the g-vectors
    ``gs`` as columns and ``m`` is [B; C]."""
    n = len(b0)
    g = [[gs[j][i] for j in range(n)] for i in range(n)]
    b, c = m[:n], m[n:]
    for i in range(n):
        for j in range(n):
            assert sum(g[l][i] * c[l][j] for l in range(n)) == int(i == j)
            assert sum(g[i][l] * b[l][j] for l in range(n)) == sum(
                b0[i][l] * c[l][j] for l in range(n)
            )


@given(
    st.one_of(
        skew_matrices(),
        st.sampled_from(sorted(FINITE_TYPE_COUNTS)).map(
            lambda kind: FINITE_TYPE_COUNTS[kind][0]
        ),
    ),
    st.lists(st.integers(0, 6), max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_tropical_duality_along_mutation_paths(b0, path):
    # the enumerator checks G^T C = I and one column of G B = B0 C per
    # seed; here both identities are checked in full, on every seed of a
    # random path, infinite types included
    n = len(b0)
    gs = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    m = b0 + gs
    _assert_dual(b0, gs, m)
    for k in path:
        k %= n
        gs = gs[:k] + (mutation._g_vector(gs, m, k),) + gs[k + 1:]
        m = mutate_matrix(m, k)
        _assert_dual(b0, gs, m)


def test_variable_count_is_mutation_invariant():
    b = quiver_to_matrix(linear_an_algebra(3).quiver)
    base = len(enumerate_cluster_variables(b))
    for k in range(3):
        assert len(enumerate_cluster_variables(mutate_matrix(b, k))) == base


def test_enumerate_cluster_tilted_a4(data_dir):
    from clusterchar.mutation import load_matrix_file

    b = load_matrix_file(data_dir / "a4_tilted.mat")
    assert len(enumerate_cluster_variables(b)) == 14


def test_quiver_to_matrix():
    q = make_quiver(["1", "2"], [("a", "1", "2")])
    assert quiver_to_matrix(q) == A2
    qop = make_quiver(["1", "2"], [("a", "2", "1")])
    assert quiver_to_matrix(qop) == ((0, -1), (1, 0))


def test_quiver_to_matrix_a4_tilted(a4, data_dir):
    from clusterchar.mutation import load_matrix_file

    assert quiver_to_matrix(a4.quiver) == load_matrix_file(data_dir / "a4_tilted.mat")


def test_quiver_to_matrix_rejects_loop():
    q = make_quiver(["1"], [("x", "1", "1")])
    with pytest.raises(InputError, match="loop"):
        quiver_to_matrix(q)


def test_two_cycles_cancel():
    q = make_quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    assert quiver_to_matrix(q) == ((0, 0), (0, 0))


@pytest.mark.parametrize("b", [((0, 1.5), (-1.5, 0)), ((0, "1"), ("-1", 0))])
def test_non_integer_entries_raise(b):
    # int() would round the floats into A2 and read the strings as numbers
    with pytest.raises(InputError, match="must be integers"):
        enumerate_cluster_variables(b)


def test_load_matrix_rejects_bad_input():
    with pytest.raises(InputError):
        load_matrix("2\n0 1\n1 0\n")  # not skew-symmetric
    with pytest.raises(InputError):
        load_matrix("3\n0 1\n-1 0\n")
    with pytest.raises(InputError):
        load_matrix("")


def test_mutation_index_out_of_range():
    with pytest.raises(InputError):
        mutate_matrix(A2, 2)
    with pytest.raises(InputError):
        mutate_seed(initial_seed(A2), -1)


def test_tilted_a4_count_matches_heptagon_diagonals(data_dir):
    from clusterchar.mutation import load_matrix_file
    from clusterchar.polygon import all_arcs

    b = load_matrix_file(data_dir / "a4_tilted.mat")
    assert len(enumerate_cluster_variables(b)) == len(all_arcs(4))
