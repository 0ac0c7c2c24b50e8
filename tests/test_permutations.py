import math

import pytest
from hypothesis import given, strategies as st

from bnhecke.errors import DegreeMismatch
from bnhecke.partitions import completion
from bnhecke.permutations import (
    Permutation,
    cayley_degree,
    class_representative,
    compose,
    enumerate_class,
    identity,
    parse_permutation,
    stable_cycle_type,
    symmetric_group,
    transposition,
)


def perms(max_degree: int = 8):
    return st.integers(min_value=0, max_value=max_degree).flatmap(
        lambda d: st.permutations(list(range(1, d + 1)))
    ).map(lambda images: Permutation(tuple(images)))


def test_constructor_validates():
    with pytest.raises(ValueError):
        Permutation((1, 1))
    with pytest.raises(ValueError):
        Permutation((2, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1))
    for images in ((2.5, 1), (2.0, 1), (2, True), ("2", "1")):
        with pytest.raises(TypeError):
            Permutation(images)


def test_trailing_fixed_points_are_invisible():
    assert Permutation((2, 1, 3, 4)) == Permutation((2, 1))
    assert hash(Permutation((2, 1, 3))) == hash(Permutation((2, 1)))
    assert Permutation((2, 1)).degree == 2
    assert identity().degree == 0


def test_composition_is_right_to_left():
    x = Permutation((2, 1, 3))
    y = Permutation((3, 2, 1))
    assert (x * y).images == (3, 1, 2)
    assert compose(x, y) == x * y
    # right-to-left means x*y applies y first
    assert (x * y)(1) == x(y(1)) == 3


def test_call_beyond_degree_is_fixed():
    w = Permutation((2, 1))
    assert w(5) == 5


def test_one_line_padding_and_mismatch():
    w = Permutation((2, 1))
    assert w.one_line(4) == (2, 1, 3, 4)
    with pytest.raises(DegreeMismatch):
        w.one_line(1)


@given(perms(), perms(), perms())
def test_group_axioms(x, y, z):
    e = identity()
    assert (x * y) * z == x * (y * z)
    assert x * e == e * x == x
    assert x * x.inverse() == e
    assert x.inverse().inverse() == x


@given(perms(), perms())
def test_inverse_antihomomorphism(x, y):
    assert (x * y).inverse() == y.inverse() * x.inverse()


def test_cycles_roundtrip():
    w = Permutation((2, 3, 1, 5, 4))
    assert w.cycles() == [(1, 2, 3), (4, 5)]
    assert Permutation.from_cycles(w.cycles()) == w
    assert w.cycle_string() == "(1 2 3)(4 5)"
    assert identity().cycle_string() == "e"


def test_from_cycles_rejects_overlap():
    with pytest.raises(ValueError):
        Permutation.from_cycles([(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        Permutation.from_cycles([(1, 2, 1)])


@given(perms())
def test_cycles_partition_the_support(w):
    covered = [i for cycle in w.cycles() for i in cycle]
    assert sorted(covered) == sorted(w.support())
    for cycle in w.cycles():
        assert cycle[0] == min(cycle)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert w(a) == b


def test_stable_cycle_type_examples():
    assert stable_cycle_type(identity()) == ()
    assert stable_cycle_type(transposition(1, 2)) == (1,)
    assert Permutation((2, 3, 1, 5, 4)).stable_cycle_type() == (2, 1)
    # ambient degree does not matter
    assert Permutation((2, 1, 3, 4, 5, 6)).stable_cycle_type() == (1,)


@given(perms(), perms())
def test_stable_type_is_a_class_invariant(x, w):
    conj = x * w * x.inverse()
    assert conj.stable_cycle_type() == w.stable_cycle_type()
    assert w.inverse().stable_cycle_type() == w.stable_cycle_type()


def test_cycle_type_completes_at_level():
    w = Permutation((2, 3, 1))
    assert w.cycle_type(3) == (3,)
    assert w.cycle_type(5) == (3, 1, 1)
    assert identity().cycle_type(4) == (1, 1, 1, 1)


@given(perms())
def test_cayley_degree_is_minimal_factorization_length(w):
    assert cayley_degree(w) == sum(w.stable_cycle_type())
    # degree minus number of cycles, fixed points included
    assert cayley_degree(w) == w.degree - len(list(_full_cycles(w)))


def _full_cycles(w):
    seen: set[int] = set()
    for start in range(1, w.degree + 1):
        if start in seen:
            continue
        j = start
        cycle = []
        while j not in seen:
            seen.add(j)
            cycle.append(j)
            j = w(j)
        yield tuple(cycle)


def test_symmetric_group_enumeration():
    elements = list(symmetric_group(4))
    assert len(elements) == 24
    assert len(set(elements)) == 24
    assert elements[0] == identity()


@pytest.mark.parametrize("mu, n", [((), 3), ((1,), 4), ((2,), 4), ((1, 1), 5)])
def test_enumerate_class_matches_orbit_size(mu, n):
    cls = enumerate_class(mu, n)
    full = completion(mu, n)
    from bnhecke.partitions import z_value

    assert len(cls) == math.factorial(n) // z_value(full)
    assert all(w.stable_cycle_type() == mu for w in cls)


def test_enumerate_class_empty_beyond_level():
    assert enumerate_class((3,), 3) == set()


def test_class_representative_anchor():
    w = class_representative((2,), 5)
    assert w.one_line(5) == (2, 3, 1, 4, 5)
    assert w.stable_cycle_type() == (2,)
    assert class_representative((), 3) == identity()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_class_representative_every_shape(n):
    from bnhecke.partitions import enumerate_by_weight

    for mu in enumerate_by_weight(n):
        w = class_representative(mu, n)
        assert w.stable_cycle_type() == mu
        assert w.degree <= n


def test_parse_permutation_forms():
    assert parse_permutation("[3,2,1,4]") == Permutation((3, 2, 1))
    assert parse_permutation("(2 3)(4 5)") == Permutation((1, 3, 2, 5, 4))
    assert parse_permutation("(2,3)(4,5)") == Permutation((1, 3, 2, 5, 4))
    assert parse_permutation("e") == identity()
    assert parse_permutation("()") == identity()
    assert parse_permutation("[]") == identity()


@pytest.mark.parametrize("bad", ["(1 2", "[1, 1]", "{1: 2}", "(1 2) junk"])
def test_parse_permutation_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_permutation(bad)


@given(perms())
def test_parse_roundtrips(w):
    import json

    assert parse_permutation(w.cycle_string()) == w
    assert parse_permutation(json.dumps(list(w.one_line(w.degree)))) == w


def test_immutability():
    w = Permutation((2, 1))
    with pytest.raises(AttributeError):
        w.images = (1, 2)


def test_regression_triple_product_type():
    from conftest import X16, XY16, Y16

    from bnhecke.cosets import stable_coset_type

    # the recorded product deviates from x*y at two points but lands
    # in the same double coset, which is what downstream checks use
    product = X16 * Y16
    assert product != XY16
    assert stable_coset_type(product) == stable_coset_type(XY16) == (5, 1)
    diff = [i for i in range(1, 17) if product(i) != XY16(i)]
    assert diff == [7, 8]
