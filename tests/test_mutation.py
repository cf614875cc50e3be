import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterchar import mutation
from clusterchar.errors import ConsistencyError, InputError, NotFiniteTypeError
from clusterchar.laurent import laurent_parse, variable
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


@given(skew_matrices(), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_matrix_mutation_preserves_skew_symmetry(b, k):
    k = k % len(b)
    check_exchange_matrix(mutate_matrix(b, k))


def test_seed_mutation_a2_steps():
    s = initial_seed(A2)
    s1 = mutate_seed(s, 0)
    assert s1.variables[0] == laurent_parse("x1^-1 + x1^-1*x2", 2)
    s2 = mutate_seed(s1, 1)
    assert s2.variables[1] == laurent_parse("x1^-1 + x2^-1 + x1^-1*x2^-1", 2)


def test_seed_mutation_involution():
    s = initial_seed(linear_an_matrix(3))
    for k in range(3):
        assert mutate_seed(mutate_seed(s, k), k) == s
    deep = mutate_seed(mutate_seed(s, 0), 1)
    for k in range(3):
        assert mutate_seed(mutate_seed(deep, k), k) == deep


def test_enumerate_a2_exact_set():
    expected = {
        variable(2, 0),
        variable(2, 1),
        laurent_parse("x1^-1 + x1^-1*x2", 2),
        laurent_parse("x2^-1 + x1*x2^-1", 2),
        laurent_parse("x1^-1 + x2^-1 + x1^-1*x2^-1", 2),
    }
    assert set(enumerate_cluster_variables(A2)) == expected


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
}


def _enumerate_counting_clusters(monkeypatch, b):
    """Variables, and clusters: each cluster is mutated once per direction."""
    calls = []

    def counting(s, k):
        calls.append(k)
        return original(s, k)

    original = mutation.mutate_seed
    monkeypatch.setattr(mutation, "mutate_seed", counting)
    variables = enumerate_cluster_variables(b)
    assert len(calls) % len(b) == 0
    return len(variables), len(calls) // len(b)


@pytest.mark.parametrize("kind", sorted(FINITE_TYPE_COUNTS))
def test_finite_type_counts(monkeypatch, kind):
    b, variables, clusters = FINITE_TYPE_COUNTS[kind]
    assert _enumerate_counting_clusters(monkeypatch, b) == (variables, clusters)


@pytest.mark.slow
def test_finite_type_counts_e7(monkeypatch):
    assert _enumerate_counting_clusters(monkeypatch, _type_e(7)) == (70, 4160)


def test_revisited_cluster_with_foreign_matrix_raises(monkeypatch):
    # Negating every mutated matrix leaves the exchange relations, hence the
    # variables, unchanged, but flips the matrix sign along each step; the
    # pentagon of A2 reaches a cluster along paths of both parities.
    correct = mutation.mutate_matrix

    def corrupted(b, k):
        return tuple(tuple(-x for x in row) for row in correct(b, k))

    monkeypatch.setattr(mutation, "mutate_matrix", corrupted)
    with pytest.raises(ConsistencyError, match="not relabellings"):
        enumerate_cluster_variables(A2)


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
