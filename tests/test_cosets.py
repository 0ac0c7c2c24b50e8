import math

import pytest

from bnhecke import cosets, partitions
from bnhecke.cosets import (
    coset_representative,
    coset_type,
    enumerate_double_coset,
    gamma_graph,
    hyperoctahedral_elements,
    hyperoctahedral_generators,
    modified_support,
    phi,
    stable_coset_type,
    t_perm,
)
from bnhecke.errors import DegreeMismatch, ValidationFailure, WeightExceedsLevel
from bnhecke.partitions import (
    completion,
    double_coset_size,
    enumerate_by_weight,
    hyperoctahedral_order,
    weight,
)
from bnhecke.permutations import (
    Permutation,
    cayley_degree,
    identity,
    parse_permutation,
    stable_cycle_type,
)


def test_t_perm_is_the_couple_involution():
    t = t_perm(3)
    assert t.one_line(6) == (2, 1, 4, 3, 6, 5)
    assert t * t == identity()
    with pytest.raises(ValueError):
        t_perm(0)


def test_phi_definition(random_perm):
    n = 4
    t = t_perm(n)
    for _ in range(25):
        w = random_perm(2 * n)
        assert phi(w, n) == t * w.inverse() * t * w


def test_phi_fixed_locus_is_hyperoctahedral():
    n = 2
    locus = {w for w in _s(2 * n) if phi(w, n) == identity()}
    assert locus == set(hyperoctahedral_elements(n))


def _s(m):
    from bnhecke.permutations import symmetric_group

    return symmetric_group(m)


def test_phi_worked_cycles():
    x = parse_permutation("(2 3)(4 5)(6 7)(8 9)(10 1)")
    assert phi(x, 5) == parse_permutation("(1 7 3 9 5)(2 6 10 4 8)")
    y = parse_permutation("(2 3)(4 5)(6 7)(8 9)(10 11)(12 1)")
    assert phi(y, 6) == parse_permutation("(1 9 5)(11 7 3)(2 6 10)(4 8 12)")


def test_phi_rejects_oversized_degree():
    with pytest.raises(DegreeMismatch):
        phi(Permutation((2, 3, 4, 1)), 1)
    with pytest.raises(DegreeMismatch):
        phi(identity(), 0)


def _shift(n):
    """i -> i + 1 mod 2n: for n >= 2 it moves every couple."""
    return Permutation([*range(2, 2 * n + 1), 1])


def test_gamma_graph_shape(random_perm):
    for n in range(1, 6):
        for w in [identity(), _shift(n), *(random_perm(2 * n) for _ in range(20))]:
            cycles = gamma_graph(w, n)
            flat = sorted(v for c in cycles for v in c)
            assert flat == list(range(1, 2 * n + 1))
            assert all(len(c) % 2 == 0 and c[0] == min(c) for c in cycles)
            assert sum(len(c) // 2 for c in cycles) == n
            assert len(cycles) == len(coset_type(w, n))
        assert gamma_graph(identity(), n) == tuple((i, i + 1) for i in range(1, 2 * n, 2))
        if n > 1:
            assert len(modified_support(_shift(n))) == n


def test_gamma_graph_cycles_double_the_twist():
    # each coset-type part appears exactly twice among phi's cycle parts
    n = 4
    for w in [
        parse_permutation("(1 3)"),
        parse_permutation("(1 3 5)"),
        parse_permutation("(1 3)(5 7)"),
        parse_permutation("(1 4 6 2)(3 8)"),
    ]:
        full = coset_type(w, n)
        twist_type = completion(stable_cycle_type(phi(w, n)), 2 * n)
        doubled = tuple(sorted(full + full, reverse=True))
        assert twist_type == doubled


def test_worked_coset_type():
    z = parse_permutation("(2 3)(4 5)(6 7)(8 9)(10 11)(12 1)")
    assert stable_coset_type(z) == (2, 2)
    assert coset_type(z, 6) == (3, 3)
    assert coset_type(z, 8) == (3, 3, 1, 1)


def test_coset_type_examples():
    assert coset_type(identity(), 3) == (1, 1, 1)
    assert coset_type(parse_permutation("(2 3)"), 2) == (2,)
    assert stable_coset_type(identity()) == ()
    assert stable_coset_type(parse_permutation("(2 3)")) == (1,)


def test_coset_type_is_inverse_invariant(random_perm):
    n = 5
    for _ in range(30):
        w = random_perm(2 * n)
        assert coset_type(w.inverse(), n) == coset_type(w, n)


def test_coset_type_is_bi_invariant(rng, random_perm):
    n = 3
    elements = list(hyperoctahedral_elements(n))
    for _ in range(30):
        w = random_perm(2 * n)
        b, c = rng.choice(elements), rng.choice(elements)
        assert coset_type(b * w * c, n) == coset_type(w, n)


def test_stable_type_is_level_free(random_perm):
    for _ in range(20):
        w = random_perm(8)
        mu = stable_coset_type(w)
        for n in (4, 5, 7):
            assert coset_type(w, n) == completion(mu, n)


def test_modified_support_counts_weight(random_perm):
    assert sorted(modified_support(parse_permutation("(2 3)"))) == [
        (1, 2),
        (3, 4),
    ]
    for _ in range(30):
        w = random_perm(10)
        assert len(modified_support(w)) == weight(stable_coset_type(w))


def test_twisted_degree(random_perm):
    n = 5
    for _ in range(30):
        w = random_perm(2 * n)
        mu = stable_coset_type(w)
        # the twisted degree |w|' = |phi(w)|
        d = cayley_degree(phi(w, n))
        assert d == 2 * sum(mu)
        assert d % 2 == 0


def test_is_hyperoctahedral_matches_membership():
    n = 2
    members = set(hyperoctahedral_elements(n))
    for w in _s(2 * n):
        assert (not modified_support(w)) == (w in members)
        assert (stable_coset_type(w) == ()) == (w in members)


def test_hyperoctahedral_order_and_elements():
    for n in (1, 2, 3):
        elements = list(hyperoctahedral_elements(n))
        assert len(elements) == len(set(elements)) == hyperoctahedral_order(n)
        assert hyperoctahedral_order(n) == 2**n * math.factorial(n)


def test_hyperoctahedral_closure():
    n = 2
    members = set(hyperoctahedral_elements(n))
    assert all(x * y in members for x in members for y in members)
    assert all(g in members for g in hyperoctahedral_generators(n))


def test_generators_generate():
    n = 3
    gens = hyperoctahedral_generators(n)
    seen = {identity()}
    frontier = [identity()]
    while frontier:
        new = []
        for w in frontier:
            for g in gens:
                cand = g * w
                if cand not in seen:
                    seen.add(cand)
                    new.append(cand)
        frontier = new
    assert seen == set(hyperoctahedral_elements(n))


def test_modified_support_is_a_set_of_couples(random_perm):
    assert sorted(modified_support(parse_permutation("(2 3)"))) == [(1, 2), (3, 4)]
    assert modified_support(parse_permutation("(2 3)(5 8)")) == frozenset(
        {(1, 2), (3, 4), (5, 6), (7, 8)}
    )
    assert modified_support(identity()) == frozenset()
    for _ in range(30):
        couples = modified_support(random_perm(10))
        assert isinstance(couples, frozenset)
        assert all(a % 2 == 1 and b == a + 1 for a, b in couples)


@pytest.mark.parametrize(
    "mu, n, one_line",
    [
        ((1,), 2, (3, 2, 1, 4)),
        ((2,), 3, (3, 2, 5, 4, 1, 6)),
        ((), 3, (1, 2, 3, 4, 5, 6)),
    ],
)
def test_coset_representative_anchors(mu, n, one_line):
    rep = coset_representative(mu, n)
    assert rep.one_line(2 * n) == one_line
    assert coset_type(rep, n) == completion(mu, n)
    assert stable_coset_type(rep) == mu


def test_coset_representative_rejects_heavy_shapes():
    with pytest.raises(WeightExceedsLevel):
        coset_representative((3,), 3)


@pytest.mark.parametrize(
    "n, census",
    [
        (2, {(): 8, (1,): 16}),
        (3, {(): 48, (1,): 288, (2,): 384}),
        (4, {(): 384, (1,): 4608, (2,): 12288, (3,): 18432, (1, 1): 4608}),
    ],
)
def test_double_coset_size_census(n, census):
    assert {mu: double_coset_size(mu, n) for mu in enumerate_by_weight(n)} == census
    assert sum(census.values()) == math.factorial(2 * n)


def test_double_coset_size_level_five():
    sizes = [double_coset_size(mu, 5) for mu in enumerate_by_weight(5)]
    assert sizes == [3840, 76800, 307200, 230400, 921600, 614400, 1474560]
    assert sum(sizes) == math.factorial(10)


def test_double_coset_size_rejects_heavy_shapes():
    with pytest.raises(WeightExceedsLevel):
        double_coset_size((2, 1), 4)


@pytest.mark.parametrize("n", [2, 3])
def test_enumerate_double_coset_partitions_the_group(n):
    union = set()
    for mu in enumerate_by_weight(n):
        coset = enumerate_double_coset(mu, n)
        assert len(coset) == double_coset_size(mu, n)
        assert all(stable_coset_type(w) == mu for w in coset)
        assert not (union & coset)
        union |= coset
    assert union == set(_s(2 * n))


@pytest.mark.parametrize(
    "module, name, fake, call",
    [
        (cosets, "class_representative", lambda mu, n: identity(),
         lambda: coset_representative((1,), 2)),
        (cosets, "double_coset_size", lambda mu, n: 0,
         lambda: enumerate_double_coset((1,), 2)),
        (partitions, "z_value", lambda rho: 7, lambda: double_coset_size((1,), 2)),
    ],
    ids=["representative type", "orbit size", "size division"],
)
def test_result_checks_raise(monkeypatch, module, name, fake, call):
    # raises, not asserts, so python -O keeps them
    monkeypatch.setattr(module, name, fake)
    with pytest.raises(ValidationFailure):
        call()
