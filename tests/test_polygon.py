import pytest

from clusterchar.character import cc_value
from clusterchar.errors import InputError
from clusterchar.laurent import variable
from clusterchar.mutation import initial_seed, mutate_seed
from clusterchar.polygon import (
    Arc,
    all_arcs,
    arc_to_object,
    crossing,
    interval_module,
    interval_ses,
    linear_an_algebra,
    linear_an_matrix,
    smoothings,
    verify_an,
)


@pytest.mark.parametrize("n,count", [(2, 5), (3, 9), (4, 14)])
def test_arc_counts(n, count):
    arcs = all_arcs(n)
    assert len(arcs) == count
    assert len(set(arcs)) == count


def test_arcs_print_and_order_as_pairs():
    # the repr appears in InputError messages; arcs sort as (i, j) tuples
    assert repr(Arc(0, 2)) == "Arc(i=0, j=2)"
    arcs = all_arcs(4)
    assert sorted(reversed(arcs)) == arcs == sorted(arcs, key=lambda a: (a.i, a.j))


def test_arc_to_object_conventions():
    obj = arc_to_object(4, Arc(1, 6))
    assert not any(obj.module_part.dims)
    assert obj.shift_multiplicities == (1, 0, 0, 0)

    s1 = arc_to_object(4, Arc(0, 2))
    assert s1.module_part.dims == (1, 0, 0, 0)
    assert s1.shift_multiplicities == (0, 0, 0, 0)

    sincere = arc_to_object(4, Arc(0, 5))
    assert sincere.module_part.dims == (1, 1, 1, 1)


def test_arc_validation():
    with pytest.raises(InputError):
        arc_to_object(4, Arc(0, 1))  # boundary edge
    with pytest.raises(InputError):
        arc_to_object(4, Arc(0, 6))  # boundary edge through the last corner


def test_crossing_examples():
    assert crossing(Arc(0, 2), Arc(1, 4))
    assert not crossing(Arc(0, 2), Arc(2, 4))  # shared endpoint
    assert not crossing(Arc(0, 2), Arc(3, 5))  # disjoint
    assert crossing(Arc(1, 4), Arc(0, 2))  # symmetric


def test_smoothing_example_n4():
    first, second = smoothings(4, Arc(0, 2), Arc(1, 4))
    # {0,1} and {1,2} are boundary edges and contribute nothing
    assert first.module_part.dims == (0, 0, 1, 0)  # S_3 from {2,4}
    assert first.shift_multiplicities == (0, 0, 0, 0)
    assert second.module_part.dims == (1, 1, 1, 0)  # M[1,3] from {0,4}
    swapped = smoothings(4, Arc(1, 4), Arc(0, 2))
    assert swapped[0].module_part.dims == first.module_part.dims
    assert swapped[1].module_part.dims == second.module_part.dims


def test_smoothing_example_pentagon():
    first, second = smoothings(2, Arc(0, 2), Arc(1, 3))
    assert not any(first.module_part.dims) and first.shift_multiplicities == (0, 0)
    assert second.module_part.dims == (1, 1)


def test_smoothing_with_shift_sides():
    first, second = smoothings(3, Arc(0, 4), Arc(2, 5))
    # {4,5} is a boundary edge; {0,5} is a shift arc at vertex... no: j=5=n+2
    assert second.shift_multiplicities[1] == 0
    # the pair ({0,2}, {4,5}) and ({0,5}, {2,4})
    assert first.module_part.dims == (1, 0, 0)
    assert second.module_part.dims == (0, 0, 1)


def test_smoothing_requires_crossing():
    with pytest.raises(InputError):
        smoothings(4, Arc(0, 2), Arc(2, 4))


def test_fan_arcs_give_initial_cluster():
    n = 4
    for i in range(1, n + 1):
        obj = arc_to_object(n, Arc(i, n + 2))
        assert cc_value(obj) == variable(n, i - 1)


@pytest.mark.parametrize("n", [3, 4])
def test_flip_of_fan_arc_matches_seed_mutation(n):
    seed = initial_seed(linear_an_matrix(n))
    for k in range(1, n + 1):
        flipped = Arc(k - 1, k + 1)  # flip of {k, n+2} in the fan
        value = cc_value(arc_to_object(n, flipped))
        assert value == mutate_seed(seed, k - 1).variables[k - 1]


def test_interval_ses_shapes():
    triples = list(interval_ses(3))
    assert all(
        tuple(s + q for s, q in zip(sub.dims, quot.dims)) == total.dims
        for sub, total, quot in triples
    )


@pytest.mark.parametrize("n", [2, 3])
def test_verify_an_small(n):
    report = verify_an(n)
    assert report.ok
    assert report.arc_count == n * (n + 3) // 2
    assert report.checks_failed == 0
    assert report.variable_count == report.expected_variable_count
    assert any("bijection" in line for line in report.lines)


@pytest.mark.slow
def test_verify_an_7():
    report = verify_an(7)
    assert report.ok, report.summary()
    assert report.variable_count == 35


@pytest.mark.slow
def test_verify_an_8():
    report = verify_an(8)
    assert report.ok, report.summary()
    assert report.variable_count == 44


def test_verify_an_range_check():
    with pytest.raises(InputError):
        verify_an(1)
    with pytest.raises(InputError):
        verify_an(9)


def test_crossing_pair_count_matches_four_subsets():
    # each 4-subset of polygon corners gives exactly one crossing pair
    from math import comb

    for n in (2, 3, 4):
        arcs = all_arcs(n)
        pairs = sum(
            1
            for idx, a in enumerate(arcs)
            for b in arcs[idx + 1 :]
            if crossing(a, b)
        )
        assert pairs == comb(n + 3, 4)


def test_interval_module_values_match_suffix_rule():
    m = interval_module(3, 1, 2)
    algebra = linear_an_algebra(3)
    assert m.algebra is algebra
    assert m.dims == (1, 1, 0)
