import pytest
from hypothesis import given, strategies as st

from bnhecke.errors import NotASubpartition, WeightExceedsLevel
from bnhecke.partitions import (
    as_partition,
    completion,
    difference,
    enumerate_by_weight,
    is_subpartition,
    multiplicity,
    partitions_of,
    subpartitions,
    union,
    vector_sum,
    weight,
    z_value,
)

partitions = st.lists(
    st.integers(min_value=1, max_value=9), max_size=6
).map(lambda parts: tuple(sorted(parts, reverse=True)))


def test_as_partition_accepts_sorted():
    assert as_partition([3, 1, 1]) == (3, 1, 1)
    assert as_partition(()) == ()


@pytest.mark.parametrize("bad", [(1, 2), (0,), (-1, 3), (2, 3, 1)])
def test_as_partition_rejects_malformed(bad):
    with pytest.raises(ValueError):
        as_partition(bad)


@pytest.mark.parametrize("bad", [(1.5,), (1.0,), (True,), ("2",), (2, False)])
def test_as_partition_reads_only_integers(bad):
    # int() would truncate 1.5, count True as 1 and parse "2"
    with pytest.raises(TypeError):
        as_partition(bad)


def test_weight_counts_size_plus_length():
    assert weight(()) == 0
    assert weight((1,)) == 2
    assert weight((2, 2)) == 6
    assert weight((3, 1, 1)) == 8


def test_multiplicity():
    assert multiplicity((3, 2, 2, 1), 2) == 2
    assert multiplicity((3, 2, 2, 1), 4) == 0


@given(partitions, partitions)
def test_union_is_sorted_merge(lam, mu):
    merged = union(lam, mu)
    assert sorted(merged, reverse=True) == list(merged)
    assert sorted(merged) == sorted(lam + mu)


@given(partitions, partitions)
def test_difference_inverts_union(lam, mu):
    assert difference(union(lam, mu), mu) == lam


def test_difference_rejects_excess():
    with pytest.raises(NotASubpartition):
        difference((3, 1), (2,))


def test_vector_sum_pads_with_zeros():
    assert vector_sum((2, 1), (1,)) == (3, 1)
    assert vector_sum((), (4, 4)) == (4, 4)


@pytest.mark.parametrize(
    "mu, n, expected",
    [
        ((), 3, (1, 1, 1)),
        ((1,), 2, (2,)),
        ((2,), 4, (3, 1)),
        ((2, 1), 5, (3, 2)),
        ((1, 1), 4, (2, 2)),
    ],
)
def test_completion_examples(mu, n, expected):
    assert completion(mu, n) == expected


@given(partitions, st.integers(min_value=0, max_value=30))
def test_completion_is_a_partition_of_n(mu, n):
    if weight(mu) > n:
        with pytest.raises(WeightExceedsLevel):
            completion(mu, n)
        return
    full = completion(mu, n)
    assert sum(full) == n
    assert len(full) == n - sum(mu)
    assert sorted(full, reverse=True) == list(full)
    # dropping one from each part recovers mu
    assert tuple(p - 1 for p in full if p > 1) == mu


def test_z_value_examples():
    assert z_value(()) == 1
    assert z_value((1, 1, 1)) == 6
    assert z_value((2, 1)) == 2
    assert z_value((3,)) == 3
    assert z_value((2, 2)) == 8


@given(st.integers(min_value=0, max_value=7))
def test_z_value_sums_to_group_order(n):
    from math import factorial

    assert sum(factorial(n) // z_value(mu) for mu in partitions_of(n)) == (
        factorial(n)
    )


def test_partitions_of_counts():
    assert [len(partitions_of(n)) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_subpartitions_of_small():
    assert subpartitions((2, 1, 1)) == [
        (),
        (1,),
        (1, 1),
        (2,),
        (2, 1),
        (2, 1, 1),
    ]


@given(partitions)
def test_subpartitions_agree_with_membership(lam):
    subs = subpartitions(lam)
    assert len(set(subs)) == len(subs)
    for rho in subs:
        assert is_subpartition(rho, lam)
        assert union(difference(lam, rho), rho) == lam


def test_enumerate_by_weight_order():
    assert enumerate_by_weight(4) == [(), (1,), (2,), (1, 1), (3,)]
    assert enumerate_by_weight(5) == [
        (),
        (1,),
        (2,),
        (1, 1),
        (3,),
        (2, 1),
        (4,),
    ]


@given(st.integers(min_value=0, max_value=9))
def test_enumerate_by_weight_complete_and_sorted(n):
    shapes = enumerate_by_weight(n)
    assert len(set(shapes)) == len(shapes)
    assert all(weight(mu) <= n for mu in shapes)
    keys = [(weight(mu), mu) for mu in shapes]
    assert keys == sorted(keys)
    # nothing with admissible weight is missing
    for s in range(n + 1):
        for mu in partitions_of(s):
            assert (weight(mu) <= n) == (mu in shapes)
