import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mutation_reference
from clusterchar import mutation
from clusterchar.errors import ConsistencyError, InputError, NotFiniteTypeError
from clusterchar.laurent import laurent_render
from clusterchar.mutation import (
    check_exchange_matrix,
    enumerate_cluster_variables,
    initial_seed,
    load_matrix,
    mutate_matrix,
    mutate_seed,
    quiver_to_matrix,
)
from clusterchar.polygon import linear_an_matrix
from clusterchar.quiver import make_quiver

A2 = ((0, 1), (-1, 0))


def test_matrix_mutation_rank2():
    assert mutate_matrix(A2, 0) == ((0, -1), (1, 0))


def test_matrix_mutation_a3_middle():
    b = linear_an_matrix(3)
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
    s = initial_seed(linear_an_matrix(3))
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
    assert len(enumerate_cluster_variables(linear_an_matrix(n))) == count
    assert count == n * (n + 3) // 2


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
    "A2": (linear_an_matrix(2), 5, 5),
    "A3": (linear_an_matrix(3), 9, 14),
    "A4": (linear_an_matrix(4), 14, 42),
    "A5": (linear_an_matrix(5), 20, 132),
    "A6": (linear_an_matrix(6), 27, 429),
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


def _enumerate_counting_work(monkeypatch, b, seed_cap):
    """Variables, the number of Laurent divisions and the number of
    matrix mutations."""
    divisions, mutations = [], []

    def dividing(p, q):
        divisions.append(q)
        return divide(p, q)

    def mutating(m, k):
        mutations.append(k)
        return mutate(m, k)

    divide, mutate = mutation.laurent_divexact, mutation.mutate_matrix
    monkeypatch.setattr(mutation, "laurent_divexact", dividing)
    monkeypatch.setattr(mutation, "mutate_matrix", mutating)
    variables = enumerate_cluster_variables(b, seed_cap=seed_cap)
    return len(variables), len(divisions), len(mutations)


def _assert_counts(monkeypatch, b, variables, clusters):
    # one division per cluster variable outside the initial cluster, one
    # matrix mutation per cluster outside the initial one (a revisit
    # mutates nothing), and n visits per cluster (one of them the skipped
    # parent) plus the initial seed: the enumeration closes at that cap
    # and not below it
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
        enumerate_cluster_variables(linear_an_matrix(3))


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
    m = linear_an_matrix(3) + ((1, 0, 0), (0, 1, 0), (-1, 0, 1))
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
        enumerate_cluster_variables(linear_an_matrix(n))


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
    b = linear_an_matrix(3)
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
