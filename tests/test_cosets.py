import math

import pytest

from bnhecke import cosets
from bnhecke.cosets import (
    CoupleSet,
    PairGraph,
    coset_representative,
    coset_type,
    cycle_count,
    delta_embed,
    double_coset_size,
    enumerate_double_coset,
    gamma_graph,
    hyperoctahedral_elements,
    hyperoctahedral_generators,
    hyperoctahedral_order,
    is_hyperoctahedral,
    modified_support,
    phi,
    sigma,
    stable_coset_type,
    t_perm,
    twisted_degree,
)
from bnhecke.errors import DegreeMismatch, ValidationFailure, WeightExceedsLevel
from bnhecke.partitions import completion, enumerate_by_weight, weight
from bnhecke.permutations import Permutation, identity, parse_permutation


def test_t_perm_is_the_couple_involution():
    t = t_perm(3)
    assert t.one_line(6) == (2, 1, 4, 3, 6, 5)
    assert t * t == identity()
    with pytest.raises(ValueError):
        t_perm(0)


def test_sigma_is_an_involutive_automorphism(random_perm):
    n = 4
    for _ in range(25):
        x, y = random_perm(2 * n), random_perm(2 * n)
        assert sigma(sigma(x, n), n) == x
        assert sigma(x * y, n) == sigma(x, n) * sigma(y, n)


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


def test_gamma_graph_shape(random_perm):
    n = 5
    for _ in range(20):
        w = random_perm(2 * n)
        graph = gamma_graph(w, n)
        flat = sorted(v for c in graph.cycles for v in c)
        assert flat == list(range(1, 2 * n + 1))
        assert all(len(c) % 2 == 0 for c in graph.cycles)
        assert sum(graph.half_lengths()) == n
        assert graph.cycle_count == len(graph.half_lengths())
        assert cycle_count(w, n) == graph.cycle_count


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
        twist_type = phi(w, n).cycle_type(2 * n)
        doubled = tuple(sorted(full + full, reverse=True))
        assert twist_type == doubled


def test_pair_graph_validates():
    with pytest.raises(ValueError):
        PairGraph(1, ((1, 2), (1, 2)))
    with pytest.raises(ValueError):
        PairGraph(2, ((1, 2, 3), (4,)))


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
        d = twisted_degree(w, n)
        assert d == 2 * sum(mu)
        assert d % 2 == 0


def test_is_hyperoctahedral_matches_membership():
    n = 2
    members = set(hyperoctahedral_elements(n))
    for w in _s(2 * n):
        assert is_hyperoctahedral(w, n) == (w in members)
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


def test_delta_embed_is_a_homomorphism(random_perm):
    for _ in range(20):
        x, y = random_perm(5), random_perm(5)
        assert delta_embed(x * y) == delta_embed(x) * delta_embed(y)
        assert is_hyperoctahedral(delta_embed(x), 5)


def test_couple_set_api():
    cs = CoupleSet.from_indices([2, 1])
    assert cs.indices() == {1, 2}
    assert cs.points() == {1, 2, 3, 4}
    assert (1, 2) in cs and (5, 6) not in cs
    assert len(cs) == 2
    assert cs.to_json() == [[1, 2], [3, 4]]
    with pytest.raises(ValueError):
        CoupleSet(frozenset({(2, 3)}))


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
    "name, fake, call",
    [
        ("class_representative", lambda mu, n: identity(),
         lambda: coset_representative((1,), 2)),
        ("double_coset_size", lambda mu, n: 0,
         lambda: enumerate_double_coset((1,), 2)),
        ("z_value", lambda rho: 7, lambda: double_coset_size((1,), 2)),
    ],
    ids=["representative type", "orbit size", "size division"],
)
def test_result_checks_raise(monkeypatch, name, fake, call):
    # raises, not asserts, so python -O keeps them
    monkeypatch.setattr(cosets, name, fake)
    with pytest.raises(ValidationFailure):
        call()
