import pytest
from hypothesis import given, strategies as st
from oracles import ElementaryExpansion, monomial_coefficient

from bnhecke import characters, cosets, group_algebra
from bnhecke._backend import product_tally
from bnhecke.errors import NotASubpartition, WeightExceedsLevel
from bnhecke.group_algebra import AlgebraElement
from bnhecke.hecke import HeckeElement, single_cycle_expansion
from bnhecke.partitions import (
    _power_sum_monomials,
    as_partition,
    completion,
    difference,
    double_coset_size,
    enumerate_by_weight,
    partitions_of,
    subpartitions,
    union,
    weight,
    z_value,
)
from bnhecke.permutations import class_representative

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


# Every public entry that takes a stable type at a level, the type in
# one place, and what it does at weight n + 1 when that is not to raise
# WeightExceedsLevel.
TYPE_READERS = {
    "completion": (completion, None),
    "double_coset_size": (double_coset_size, None),
    "class_representative": (class_representative, None),
    "coset_representative": (cosets.coset_representative, None),
    "enumerate_double_coset": (cosets.enumerate_double_coset, None),
    "class_sum": (group_algebra.class_sum, AlgebraElement.zero),
    "class_structure_constant_lam": (
        lambda mu, n: group_algebra.class_structure_constant(mu, (), (), n),
        lambda n: 0,
    ),
    "class_structure_constant_mu": (
        lambda mu, n: group_algebra.class_structure_constant((), mu, (), n),
        lambda n: 0,
    ),
    "class_structure_constant_nu": (
        lambda mu, n: group_algebra.class_structure_constant((), (), mu, n),
        None,
    ),
    "HeckeElement": (lambda mu, n: HeckeElement(n, {mu: 1}), None),
    "product_u": (lambda mu, n: characters.product({mu: 1}, {}, n, "K"), None),
    "product_v": (lambda mu, n: characters.product({}, {mu: 1}, n, "C"), None),
    "structure_constant": (
        lambda mu, n: characters.structure_constant((), (), mu, n, "K"),
        None,
    ),
    "single_cycle_expansion": (lambda mu, n: single_cycle_expansion(mu, 1, n), None),
    "product_tally_lam": (lambda mu, n: product_tally(mu, (), n), None),
    "product_tally_nu": (lambda mu, n: product_tally((), mu, n), None),
}


@pytest.mark.parametrize("entry", TYPE_READERS)
def test_every_type_reader_reads(entry, fresh_memos):
    # (1, 2) has weight 5, so only its order is wrong at level 5; the
    # level is read too: a bool is not 1, nor a float truncated
    call, above = TYPE_READERS[entry]
    for bad, n, error in [
        ((0,), 5, ValueError),
        ((1, 2), 5, ValueError),
        ((True,), 5, TypeError),
        ((1.0,), 5, TypeError),
        ((5,), 5, WeightExceedsLevel),
        ((), True, TypeError),
        ((1,), 2.5, TypeError),
    ]:
        if error is WeightExceedsLevel and above is not None:
            assert call(bad, n) == above(n)
            continue
        with pytest.raises(error) as caught:
            call(bad, n)
        assert caught.type is error, (bad, n, caught.value)


def test_weight_counts_size_plus_length():
    assert weight(()) == 0
    assert weight((1,)) == 2
    assert weight((2, 2)) == 6
    assert weight((3, 1, 1)) == 8


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


@pytest.mark.parametrize("n", range(11))
def test_power_sum_monomials_match_the_per_pair_count(n):
    parts = partitions_of(n)
    wrong = {
        (lam, mu): (_power_sum_monomials(lam).get(mu, 0), count)
        for lam in parts
        for mu in parts
        for count in [monomial_coefficient(lam, mu)]
        if _power_sum_monomials(lam).get(mu, 0) != count
    }
    assert not wrong, wrong


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
        assert all(rho.count(p) <= lam.count(p) for p in rho)
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


@pytest.mark.parametrize("cls", [HeckeElement, AlgebraElement])
def test_combination_levels_are_integers(cls):
    for level in (2.0, True, "2"):
        with pytest.raises(TypeError):
            cls(level)


# The integer-combination core.  Sums, differences, negations, scalings
# and products are built by the trusted _raw path, unread; each must
# equal its own terms read back through the validating constructor, so
# a zero coefficient or a non-canonical key left by that path fails.

_coefficients = st.integers(min_value=-3, max_value=3)


@st.composite
def _hecke_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    terms = st.dictionaries(st.sampled_from(enumerate_by_weight(n)), _coefficients, max_size=4)
    return HeckeElement(n, draw(terms)), HeckeElement(n, draw(terms))


@st.composite
def _algebra_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    perms = st.permutations(range(1, n + 1)).map(tuple)
    terms = st.dictionaries(perms, _coefficients, max_size=5)
    return AlgebraElement(n, draw(terms)), AlgebraElement(n, draw(terms))


# unsorted index tuples of degree <= 10: the e-basis oracle of
# tests/oracles.py reads its terms through the same core
_e_monomials = st.lists(st.integers(min_value=1, max_value=5), max_size=2).map(tuple)
_symmetric = st.dictionaries(_e_monomials, _coefficients, max_size=5).map(ElementaryExpansion)


def _terms(x) -> dict:
    return x._terms if isinstance(x, ElementaryExpansion) else x._t


def _reread(x):
    if isinstance(x, ElementaryExpansion):
        return ElementaryExpansion(x._terms)
    return type(x)(x.level, x._t)


def _check_trusted(a, b, c, extra=()):
    def linear(sign):
        keys = {*_terms(a), *_terms(b)}
        out = {k: _terms(a).get(k, 0) + sign * _terms(b).get(k, 0) for k in keys}
        return {k: v for k, v in out.items() if v}

    assert _terms(a + b) == linear(1)
    assert _terms(a - b) == linear(-1)
    assert _terms(-a) == {k: -v for k, v in _terms(a).items()}
    # (a - b)(a + b) = a^2 - b^2 + (ab - ba): commuting terms cancel
    products = (a * b, (a - b) * (a + b))
    for result in (a + b, a - b, -a, b - b, c * a, a * c, *products, *extra):
        assert _reread(result) == result
        assert all(_terms(result).values())


@given(_hecke_pairs(), _coefficients)
def test_trusted_hecke_arithmetic_rereads(pair, c):
    a, b = pair
    _check_trusted(a, b, c, (a.scale(c),))


@given(_algebra_pairs(), _coefficients)
def test_trusted_algebra_arithmetic_rereads(pair, c):
    a, b = pair
    _check_trusted(a, b, c, (a.scale(c),))


@given(_symmetric, _symmetric, _coefficients)
def test_trusted_symmetric_arithmetic_rereads(a, b, c):
    _check_trusted(a, b, c, (a + c, c - a, a - c, a**2))
