"""End-to-end regressions for the (S_2n, B_n) Hecke ring pipeline.

Each test exercises one headline guarantee: the twist map on worked
examples, the double-coset census against its closed-form sizes, the
product structure in both the coset and class bases, the Jucys-Murphy
description of the center, the symmetric-function surjection onto the
Hecke ring, the single-cycle expansion, the polynomial behaviour of
structure constants in the level, and the generation certificate.  The
final test is a property sweep: every documented invariant is checked
exhaustively at small level and on seeded random samples at levels 4
and 5.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest
from oracles import (
    _integer_det,
    b_sum,
    double_coset_sum,
    enumerate_class,
    expand_in_class_basis,
    monomial_hnf,
    tally_product,
    zi_generator,
)

from bnhecke import hecke
from bnhecke._backend import MAX_TALLY_LEVEL
from bnhecke._symfunc import elementary
from bnhecke.characters import structure_constant
from bnhecke.cli import SUITES, execute, parse
from bnhecke.cosets import (
    coset_type,
    enumerate_double_coset,
    hyperoctahedral_elements,
    modified_support,
    phi,
    stable_coset_type,
)
from bnhecke.errors import WeightExceedsLevel
from bnhecke.group_algebra import AlgebraElement, class_sum, jucys_murphy
from bnhecke.hecke import (
    HeckeElement,
    _admissible_terms,
    expand_K,
    generator_H,
    hecke_product,
    hecke_structure_constant,
    matsumoto_image,
    single_cycle_expansion,
)
from bnhecke.partitions import (
    completion,
    difference,
    double_coset_size,
    enumerate_by_weight,
    hyperoctahedral_order,
    partitions_of,
    union,
    weight,
    z_value,
)
from bnhecke.permutations import (
    Permutation,
    cayley_degree,
    identity,
    parse_permutation,
    stable_cycle_type,
    symmetric_group,
)
from bnhecke.suites import run_suite
from bnhecke.universal import (
    MAX_SAMPLE_LEVEL,
    fit_report,
    fit_triple,
    universal_structure_constant,
)

from conftest import X16, XY16, Y16

SAMPLES = 1000
SEED = 0xB4C0DE5


def _random_perm(rng: random.Random, m: int) -> Permutation:
    return Permutation(tuple(rng.sample(range(1, m + 1), m)))


def _random_hyperoctahedral(rng: random.Random, n: int) -> Permutation:
    """A uniform element of B_n: permute the couples, then flip coins."""
    images = [0] * (2 * n)
    for i, j in enumerate(rng.sample(range(1, n + 1), n), start=1):
        a, b = 2 * j - 1, 2 * j
        if rng.random() < 0.5:
            a, b = b, a
        images[2 * i - 2], images[2 * i - 1] = a, b
    return Permutation(tuple(images))


def test_twist_map_matches_worked_decompositions():
    x = parse_permutation("(2 3)(4 5)(6 7)(8 9)(10 1)")
    y = parse_permutation("(2 3)(4 5)(6 7)(8 9)(10 11)(12 1)")
    assert phi(x, 5) == parse_permutation("(1 7 3 9 5)(2 6 10 4 8)")
    assert phi(y, 6) == parse_permutation("(1 9 5)(11 7 3)(2 6 10)(4 8 12)")
    start = time.perf_counter()
    for _ in range(100):
        phi(x, 5)
        phi(y, 6)
    assert time.perf_counter() - start < 0.2  # well under 1 ms per call


def test_degree_sixteen_triple_coset_types():
    # a coset type at this degree is a partition of 8, so the types
    # below are forced to carry every trailing 1
    assert coset_type(X16, 8) == (3, 2, 1, 1, 1)
    assert coset_type(Y16, 8) == (4, 1, 1, 1, 1)
    product = X16 * Y16
    assert coset_type(product, 8) == (6, 2)
    assert coset_type(XY16, 8) == (6, 2)
    start = time.perf_counter()
    for _ in range(100):
        coset_type(product, 8)
    assert time.perf_counter() - start < 0.1


def test_double_cosets_partition_the_group_with_closed_form_sizes():
    for n in (2, 3):
        order = hyperoctahedral_order(n)
        labels: dict[Permutation, tuple[int, ...]] = {}
        for mu in enumerate_by_weight(n):
            block = enumerate_double_coset(mu, n)
            rho = completion(mu, n)
            assert len(block) == order * order // (2 ** len(rho) * z_value(rho))
            assert len(block) == double_coset_size(mu, n)
            for w in block:
                assert w not in labels
                labels[w] = mu
        assert len(labels) == math.factorial(2 * n)
        for w in symmetric_group(2 * n):
            assert labels[w] == stable_coset_type(w)


def test_transposition_coset_square_across_levels():
    for n in (3, 4, 5):
        k1 = HeckeElement.basis((1,), n)
        expected = {
            (): Fraction(n * (n - 1)),
            (1,): Fraction(1),
            (2,): Fraction(3),
        }
        if n >= 4:  # wt((1,1)) = 4, so the term is truncated at n = 3
            expected[(1, 1)] = Fraction(2)
        assert hecke_product(k1, k1).coeffs == expected


def test_transposition_class_square_across_levels():
    for n in (4, 5, 6):
        c1 = class_sum((1,), n)
        assert expand_in_class_basis(c1 * c1, n) == {
            (): Fraction(n * (n - 1), 2),
            (2,): Fraction(3),
            (1, 1): Fraction(2),
        }


def test_center_generators_are_elementary_in_jucys_murphy():
    for n in range(1, 7):
        jm = [jucys_murphy(k, n) for k in range(1, n + 1)]
        for i in range(1, n + 1):
            assert zi_generator(i, n) == elementary(n - i).evaluate(
                jm, AlgebraElement.one(n)
            )


def test_odd_jucys_murphy_symmetrics_map_onto_cycle_count_generators():
    for n in (2, 3, 4):
        for i in range(1, n + 1):
            assert matsumoto_image(elementary(n - i), n) == generator_H(i, n)


def test_single_cycle_products_match_the_closed_form_at_level_five():
    n = 5
    for lam in enumerate_by_weight(4):
        for r in (1, 2, 3):
            product = hecke_product(
                HeckeElement.basis(lam, n), HeckeElement.basis((r,), n)
            )
            top = HeckeElement(
                n,
                {
                    nu: c
                    for nu, c in product.coeffs.items()
                    if sum(nu) == sum(lam) + r
                },
            )
            # equality both ways: every predicted term is present with
            # the closed-form coefficient, and nothing inadmissible
            # appears in the top layer of the product
            assert top == single_cycle_expansion(lam, r, n)


def test_structure_constants_obey_the_degree_trichotomy():
    # zero above the top degree and constant on it at n = 4 and 5, and
    # every sub-top triple fitted (or provably unfittable) over the
    # triples of weight at most 4
    levels = (4, 5)
    shapes = enumerate_by_weight(4)
    with_holdout = 0
    kinds = []  # the classifications each triple allows
    for lam, mu, nu in itertools.product(shapes, repeat=3):
        values = [hecke_structure_constant(lam, mu, nu, n) for n in levels]
        drop = sum(lam) + sum(mu) - sum(nu)
        if drop < 0:
            assert values == [0, 0], (lam, mu, nu)
            kinds.append({"zero"})
            continue
        if drop == 0:
            assert values[0] == values[1], (lam, mu, nu)
            kinds.append({"zero", "constant"})
            continue
        result = fit_triple(lam, mu, nu)
        kinds.append({result.classification})
        floor = max(weight(lam), weight(mu), weight(nu), 2)
        available = MAX_SAMPLE_LEVEL - floor + 1
        need = max(drop + 1, 2)
        # UNFITTED exactly when the sampling plan provably lacks room
        assert (result.classification == "UNFITTED") == (need > available)
        if result.classification == "UNFITTED":
            continue
        assert result.classification in ("zero", "constant", "polynomial")
        for level, value in zip(levels, values):
            assert result.polynomial(level) == value
        if need < available:
            with_holdout += 1
    assert with_holdout > 0  # some fits validated a genuinely held-out level
    # the suite reports one check per triple, in the same order, each
    # classified as the sweep allows
    payload, status = run_suite("trichotomy", list(levels), None)
    assert status == 0
    triples = list(itertools.product(shapes, repeat=3))
    assert len(payload["checks"]) == len(triples)
    for (lam, mu, nu), allowed, check in zip(triples, kinds, payload["checks"]):
        name, kind = check["name"].split(": ")
        assert name == f"fit {lam} {mu} -> {nu}"
        assert kind.split(" ")[0] in allowed
    # explicit held-out prediction: fit on 2, 3, 4 and confirm at 5
    f = universal_structure_constant((1,), (1,), (), [2, 3, 4])
    assert f.coeffs == (0, 0, 2)
    assert f(5) == 20 == hecke_structure_constant((1,), (1,), (), 5)


def test_top_coefficients_agree_across_center_and_coset_bases():
    # the single-cycle closed form against both bases, wt <= 4 at n = 5
    n = 5
    alive = 0
    for lam in enumerate_by_weight(4):
        for r in range(1, 4):
            for _, nu, b in _admissible_terms(lam, r):
                if weight(nu) > n:
                    continue
                alive += 1
                center = structure_constant(lam, (r,), nu, n, "C")
                coset = structure_constant(lam, (r,), nu, n, "K")
                assert center == coset == b, (lam, r, nu)
    assert alive  # the formulas really were held against counted values


def test_small_levels_carry_polynomial_generation_certificates():
    # up to the tally's cap, the printed certificate is checked by the
    # matching count, which shares nothing with the spherical products
    # it was built from: the seed monomials prod_i H_{n - kappa_i} give
    # the printed determinant, and every monomial of degree <= n - 1
    # spans, the HNF of their K-coordinates having the identity on top
    for n in range(2, MAX_TALLY_LEVEL + 1):
        stream = io.StringIO()
        assert execute(parse(["generators", "--n", str(n)]), stream=stream) == 0
        payload = json.loads(stream.getvalue())
        basis = enumerate_by_weight(n)
        assert list(payload) == ["n", "rank", "basis", "determinant"]
        assert payload["n"] == n and payload["rank"] == len(basis)
        assert payload["basis"] == [list(mu) for mu in basis]
        gens = [generator_H(i, n) for i in range(1, n + 1)]
        seed = []
        for kappa in basis:
            monomial = HeckeElement.one(n)
            for part in kappa:
                monomial = tally_product(monomial, gens[n - part - 1])
            seed.append([monomial.coeffs.get(mu, 0) for mu in basis])
        assert payload["determinant"] == abs(_integer_det(seed)) > 0
        identity = [[int(i == j) for j in range(len(basis))] for i in range(len(basis))]
        assert monomial_hnf(n, gens, tally_product) == identity


# --- the invariant sweep -------------------------------------------------


def _sweep_partition_arithmetic() -> None:
    for n in range(13):
        brute = [
            lam
            for s in range(n + 1)
            for lam in partitions_of(s)
            if weight(lam) <= n
        ]
        assert sorted(enumerate_by_weight(n)) == sorted(brute)
    pool = [lam for s in range(5) for lam in partitions_of(s)]
    for lam, mu in itertools.product(pool, repeat=2):
        assert union(lam, mu) == union(mu, lam)
        assert difference(union(lam, mu), mu) == lam
    for lam in pool:
        assert union(lam, ()) == lam
    for lam, mu, nu in itertools.product(pool[:8], repeat=3):
        assert union(union(lam, mu), nu) == union(lam, union(mu, nu))
    for n in range(1, 9):
        for mu in enumerate_by_weight(n):
            rho = completion(mu, n)
            assert sum(rho) == n
            assert weight(rho) == n + (n - sum(mu))


def _support(x: Permutation) -> set[int]:
    return {i for i in range(1, x.degree + 1) if x(i) != i}


def _check_degree_pair(x: Permutation, y: Permutation) -> None:
    xy = x * y
    assert cayley_degree(x * y * x.inverse()) == cayley_degree(y)
    assert cayley_degree(xy) <= cayley_degree(x) + cayley_degree(y)
    movers = _support(x) | _support(y.inverse())
    assert len(_support(xy)) <= len(movers)
    assert (len(_support(xy)) == len(movers)) == (_support(y) <= _support(xy))


def _sweep_cayley_degree_and_support(rng: random.Random) -> None:
    for x, y in itertools.product(list(symmetric_group(4)), repeat=2):
        _check_degree_pair(x, y)
    for m in (8, 10):
        for _ in range(SAMPLES):
            _check_degree_pair(_random_perm(rng, m), _random_perm(rng, m))
    for n in range(1, 8):
        for mu in enumerate_by_weight(n):
            expected = math.factorial(n) // z_value(completion(mu, n))
            assert len(enumerate_class(mu, n)) == expected


def _check_coset_element(w: Permutation, n: int) -> None:
    mu = stable_coset_type(w)
    assert coset_type(w, n) == completion(mu, n)
    couples = modified_support(w)
    assert len(couples) == weight(mu)
    twisted = phi(w, n)
    assert cayley_degree(twisted) == 2 * sum(mu)
    assert _support(twisted) == {point for couple in couples for point in couple}
    assert len(_support(twisted)) == 2 * len(couples)
    assert stable_cycle_type(twisted) == union(mu, mu)
    assert (not couples) == (mu == ()) == (twisted == identity())


def _check_twist_actions(
    w: Permutation, k: Permutation, h: Permutation, n: int
) -> None:
    assert phi(k * w, n) == phi(w, n)
    assert phi(w * h.inverse(), n) == h * phi(w, n) * h.inverse()
    assert stable_coset_type(k * w * h) == stable_coset_type(w)


def _check_twisted_subadditivity(x: Permutation, y: Permutation, n: int) -> None:
    xy = x * y
    assert cayley_degree(phi(xy, n)) <= cayley_degree(phi(x, n)) + cayley_degree(phi(y, n))
    # the couples moved by xy are bounded in number (not contained!) by
    # those moved by x and y^{-1}; equality once the type sizes add up
    movers = modified_support(x) | modified_support(y.inverse())
    assert len(modified_support(xy)) <= len(movers)
    sizes_add = sum(stable_coset_type(xy)) == sum(stable_coset_type(x)) + sum(
        stable_coset_type(y)
    )
    if sizes_add:
        assert len(modified_support(xy)) == len(movers)


def _sweep_coset_invariants(rng: random.Random) -> None:
    for n in (2, 3):
        for w in symmetric_group(2 * n):
            _check_coset_element(w, n)
            assert stable_coset_type(w.inverse()) == stable_coset_type(w)
            _check_twist_actions(
                w,
                _random_hyperoctahedral(rng, n),
                _random_hyperoctahedral(rng, n),
                n,
            )
    # the two-sided action is small enough to exhaust at level 2
    b2 = list(hyperoctahedral_elements(2))
    for w in symmetric_group(4):
        for k in b2:
            _check_twist_actions(w, k, k, 2)
    for x, y in itertools.product(list(symmetric_group(4)), repeat=2):
        _check_twisted_subadditivity(x, y, 2)
    for n in (4, 5):
        for _ in range(SAMPLES):
            w = _random_perm(rng, 2 * n)
            _check_coset_element(w, n)
            assert stable_coset_type(w.inverse()) == stable_coset_type(w)
            _check_twist_actions(
                w,
                _random_hyperoctahedral(rng, n),
                _random_hyperoctahedral(rng, n),
                n,
            )
        for _ in range(SAMPLES):
            _check_twisted_subadditivity(
                _random_perm(rng, 2 * n), _random_perm(rng, 2 * n), n
            )
    # orbit closure partitions level 4; sampled elements land in the
    # block matching their type
    labels: dict[Permutation, tuple[int, ...]] = {}
    for mu in enumerate_by_weight(4):
        block = enumerate_double_coset(mu, 4)
        assert len(block) == double_coset_size(mu, 4)
        for w in block:
            assert w not in labels
            labels[w] = mu
    assert len(labels) == math.factorial(8)
    for _ in range(SAMPLES):
        w = _random_perm(rng, 8)
        assert labels[w] == stable_coset_type(w)
    # double cosets exist exactly when the weight fits the level
    for n in (2, 3, 4, 5):
        for mu in enumerate_by_weight(n):
            assert double_coset_size(mu, n) > 0
        for mu in partitions_of(n):
            if weight(mu) > n:
                with pytest.raises(WeightExceedsLevel):
                    double_coset_size(mu, n)


def _sweep_center_invariants(rng: random.Random) -> None:
    for n in range(2, 7):
        jm = [jucys_murphy(k, n) for k in range(1, n + 1)]
        for a, b in itertools.combinations(jm, 2):
            assert a * b == b * a
    for n in range(2, 6):
        for mu in enumerate_by_weight(n):
            c = class_sum(mu, n)
            for _ in range(5):
                x = AlgebraElement(n, {_random_perm(rng, n): 1})
                assert c * x == x * c
    for n in range(2, 5):
        odds = [jucys_murphy(2 * i - 1, 2 * n) for i in range(1, n + 1)]
        b = b_sum(n)
        for k in range(n + 1):
            f = elementary(k).evaluate(odds, AlgebraElement.one(2 * n))
            assert f * b == b * f
    # class products vanish above the top degree and their top
    # coefficients do not depend on the level
    tops: dict[tuple, set[Fraction]] = {}
    for n in range(2, 8):
        shapes = [mu for mu in enumerate_by_weight(5) if weight(mu) <= n]
        for lam, mu in itertools.combinations_with_replacement(shapes, 2):
            product = class_sum(lam, n) * class_sum(mu, n)
            for nu, coeff in expand_in_class_basis(product, n).items():
                assert sum(nu) <= sum(lam) + sum(mu)
                if sum(nu) == sum(lam) + sum(mu):
                    tops.setdefault((lam, mu, nu), set()).add(coeff)
    assert tops
    for values in tops.values():
        assert len(values) == 1


def _sweep_hecke_ring_invariants() -> None:
    for n in (2, 3, 4):
        shapes = enumerate_by_weight(n)
        for lam in shapes:
            k = HeckeElement.basis(lam, n)
            assert hecke_product(HeckeElement.one(n), k) == k
            for mu in shapes:
                km = HeckeElement.basis(mu, n)
                assert hecke_product(k, km) == hecke_product(km, k)
    # fixed-representative counting against the full convolution;
    # expand_K also asserts coefficient constancy on every coset
    for n in (2, 3):
        order = hyperoctahedral_order(n)
        shapes = enumerate_by_weight(n)
        for lam, mu in itertools.product(shapes, repeat=2):
            convolution = expand_K(
                double_coset_sum(lam, n) * double_coset_sum(mu, n), n
            )
            for nu in shapes:
                assert (
                    hecke_structure_constant(lam, mu, nu, n) * order
                    == convolution.coeffs.get(nu, 0)
                )


def _sweep_universal_and_cli() -> None:
    for result in fit_report(2):
        if sum(result.nu) > sum(result.lam) + sum(result.mu):
            assert result.classification == "zero"
    # identical invocations print identical bytes
    argv = ["product", "--n", "3", "--lhs", "[1]", "--rhs", "[1]"]
    first, second = io.StringIO(), io.StringIO()
    assert execute(parse(argv), stream=first) == 0
    assert execute(parse(argv), stream=second) == 0
    assert first.getvalue() == second.getvalue()
    # every verification suite passes at a small level, and a failing
    # check surfaces as a nonzero exit
    for suite in SUITES:
        samples = ["--samples", "25"] if suite == "coset-invariants" else []
        argv = ["verify", "--suite", suite, "--n", "2", *samples]
        assert execute(parse(argv), stream=io.StringIO()) == 0
    with pytest.MonkeyPatch.context() as patch:
        # with every H_i the unit the seed is singular
        patch.setattr(hecke, "generator_H", lambda i, n: HeckeElement.one(n))
        assert execute(parse(["generators", "--n", "4"]), stream=io.StringIO()) == 1


def test_invariant_sweep_exhaustive_small_sampled_large():
    rng = random.Random(SEED)
    _sweep_partition_arithmetic()
    _sweep_cayley_degree_and_support(rng)
    _sweep_coset_invariants(rng)
    _sweep_center_invariants(rng)
    _sweep_hecke_ring_invariants()
    _sweep_universal_and_cli()
