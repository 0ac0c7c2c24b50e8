import itertools
from fractions import Fraction

import oracles
import pytest
from oracles import ORACLE_EXPRS, double_coset_sum, lift

from bnhecke import characters, hecke
from bnhecke.cosets import hyperoctahedral_order
from bnhecke.errors import (
    IndexOutOfRange,
    InsufficientDegree,
    LengthBound,
    LevelMismatch,
    NotASubpartition,
    NotBiInvariant,
    ValidationFailure,
    WeightExceedsLevel,
)
from bnhecke._symfunc import SymmetricExpression
from bnhecke.group_algebra import AlgebraElement, b_sum, eval_symmetric, jucys_murphy
from bnhecke.hecke import (
    GenerationCertificate,
    HeckeElement,
    expand_K,
    generation_certificate,
    generator_H,
    hecke_product,
    hecke_structure_constant,
    matsumoto_image,
    single_cycle_coefficient,
    single_cycle_expansion,
    trichotomy_report,
)
from bnhecke.hecke import _hermite_normal_form
from bnhecke.partitions import enumerate_by_weight, weight
from bnhecke.permutations import Permutation, transposition


class TestHeckeElement:
    def test_weight_cap(self):
        HeckeElement(3, {(2,): 1})
        with pytest.raises(WeightExceedsLevel):
            HeckeElement(3, {(1, 1): 1})
        with pytest.raises(WeightExceedsLevel):
            HeckeElement.basis((3,), 3)

    def test_zero_coefficients_vanish(self):
        u = HeckeElement(3, {(1,): 0, (2,): 1})
        assert u.coeffs == {(2,): Fraction(1)}
        assert u - u == HeckeElement.zero(3)
        assert not HeckeElement.zero(3)

    def test_linear_structure(self):
        k1 = HeckeElement.basis((1,), 4)
        k2 = HeckeElement.basis((2,), 4)
        u = k1 + k2.scale(3)
        assert u.coefficient((1,)) == 1
        assert u.coefficient((2,)) == 3
        assert u.coefficient(()) == 0
        assert 2 * u == u + u == u * 2
        assert -u + u == HeckeElement.zero(4)
        assert u.scale(-2).coefficient((2,)) == -6

    def test_coefficients_are_integers(self):
        u = HeckeElement.basis((1,), 3)
        for c in (Fraction(1, 2), Fraction(2), 0.5, 2.0):
            with pytest.raises(TypeError):
                HeckeElement(3, {(1,): c})
            with pytest.raises(TypeError):
                u.scale(c)
            with pytest.raises(TypeError):
                u * c
            with pytest.raises(TypeError):
                c * u

    def test_level_mismatch(self):
        with pytest.raises(LevelMismatch):
            HeckeElement.one(3) + HeckeElement.one(4)
        with pytest.raises(LevelMismatch):
            hecke_product(HeckeElement.one(3), HeckeElement.one(4))

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            HeckeElement(0)

    def test_immutable(self):
        u = HeckeElement.one(2)
        with pytest.raises(AttributeError):
            u.level = 3

    def test_json_is_weight_ordered(self):
        u = HeckeElement(4, {(1, 1): 2, (): -1, (2,): 1})
        assert u.to_json() == {
            "n": 4,
            "coeffs": [
                {"mu": [], "c": "-1"},
                {"mu": [2], "c": "1"},
                {"mu": [1, 1], "c": "2"},
            ],
        }


class TestLift:
    @pytest.mark.parametrize("n", [2, 3])
    def test_double_coset_sum_matches_orbit(self, n):
        from bnhecke.cosets import enumerate_double_coset

        for mu in enumerate_by_weight(n):
            el = double_coset_sum(mu, n)
            assert set(el.terms()) == enumerate_double_coset(mu, n)
            assert all(c == 1 for c in el.terms().values())

    def test_double_coset_sum_heavy(self):
        with pytest.raises(WeightExceedsLevel):
            double_coset_sum((2,), 2)

    def test_expand_inverts_lift(self):
        u = HeckeElement(2, {(): 2, (1,): -3})
        assert expand_K(lift(u), 2) == u

    def test_expand_level_check(self):
        with pytest.raises(LevelMismatch):
            expand_K(AlgebraElement.one(3), 3)

    def test_expand_rejects_partial_coset(self):
        a = AlgebraElement.from_permutation(transposition(1, 3), 4)
        with pytest.raises(NotBiInvariant):
            expand_K(a, 2)

    def test_expand_rejects_uneven_coset(self):
        skew = double_coset_sum((1,), 2) + AlgebraElement.from_permutation(
            transposition(1, 3), 4
        )
        with pytest.raises(NotBiInvariant):
            expand_K(skew, 2)


class TestProduct:
    @pytest.mark.parametrize(
        "n, identity_coeff", [(3, 6), (4, 12), (5, 20)]
    )
    def test_k1_squared(self, n, identity_coeff):
        k1 = HeckeElement.basis((1,), n)
        expected = {(): identity_coeff, (1,): 1, (2,): 3}
        if n >= 4:
            expected[(1, 1)] = 2
        assert (k1 * k1).coeffs == {
            mu: Fraction(c) for mu, c in expected.items()
        }

    def test_structure_constant_reads(self):
        assert hecke_structure_constant((1,), (1,), (), 3) == 6
        assert hecke_structure_constant((1,), (1,), (2,), 5) == 3
        assert hecke_structure_constant((1,), (1,), (1, 1), 4) == 2

    @pytest.mark.parametrize("n", [3, 4])
    def test_structure_constants_count_pairs(self, n):
        # every (x, y) in K_lam x K_mu has xy in exactly one coset, so
        # sum_nu |K_nu| |B_n| b_{lam mu}^nu = |K_lam| |K_mu|
        from bnhecke.cosets import double_coset_size

        order = hyperoctahedral_order(n)
        for lam in enumerate_by_weight(n):
            for mu in enumerate_by_weight(n):
                total = sum(
                    double_coset_size(nu, n)
                    * order
                    * hecke_structure_constant(lam, mu, nu, n)
                    for nu in enumerate_by_weight(n)
                )
                assert total == double_coset_size(
                    lam, n
                ) * double_coset_size(mu, n)

    def test_structure_constants_symmetric(self):
        n = 4
        for lam in enumerate_by_weight(n):
            for mu in enumerate_by_weight(n):
                for nu in enumerate_by_weight(n):
                    assert hecke_structure_constant(
                        lam, mu, nu, n
                    ) == hecke_structure_constant(mu, lam, nu, n)

    def test_structure_constant_weight_checks(self):
        with pytest.raises(WeightExceedsLevel):
            hecke_structure_constant((2,), (1,), (1,), 2)

    def test_identity_element(self):
        n = 3
        e = HeckeElement.one(n)
        for mu in enumerate_by_weight(n):
            k = HeckeElement.basis(mu, n)
            assert e * k == k * e == k

    @pytest.mark.parametrize("n", [2, 3])
    def test_commutative(self, n):
        shapes = enumerate_by_weight(n)
        for lam, mu in itertools.combinations(shapes, 2):
            u = HeckeElement.basis(lam, n)
            v = HeckeElement.basis(mu, n)
            assert u * v == v * u

    def test_associative_spot(self):
        n = 3
        k1 = HeckeElement.basis((1,), n)
        k2 = HeckeElement.basis((2,), n)
        assert (k1 * k1) * k2 == k1 * (k1 * k2)

    @pytest.mark.parametrize("n", [2, 3])
    def test_agrees_with_group_algebra(self, n):
        order = hyperoctahedral_order(n)
        for lam in enumerate_by_weight(n):
            for mu in enumerate_by_weight(n):
                u = HeckeElement.basis(lam, n)
                v = HeckeElement.basis(mu, n)
                convolved = lift(u) * lift(v)
                assert expand_K(convolved, n) == (u * v).scale(order)


class TestGenerators:
    def test_level_three_are_single_cosets(self):
        assert generator_H(1, 3) == HeckeElement.basis((2,), 3)
        assert generator_H(2, 3) == HeckeElement.basis((1,), 3)
        assert generator_H(3, 3) == HeckeElement.one(3)

    def test_level_four_mixes_a_layer(self):
        assert generator_H(2, 4) == HeckeElement(4, {(2,): 1, (1, 1): 1})
        assert generator_H(4, 4) == HeckeElement.one(4)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_collects_by_size(self, n):
        for i in range(1, n + 1):
            h = generator_H(i, n)
            assert all(sum(mu) == n - i for mu in h.coeffs)
            assert all(c == 1 for c in h.coeffs.values())

    def test_index_bounds(self):
        with pytest.raises(IndexOutOfRange):
            generator_H(0, 3)
        with pytest.raises(IndexOutOfRange):
            generator_H(4, 3)


class TestSingleCycle:
    def test_coefficient_anchors(self):
        # K_(1) K_(1): rho = () gives 2 K_(1,1), rho = (1) gives 3 K_(2)
        assert single_cycle_coefficient((1,), 1, ()) == 2
        assert single_cycle_coefficient((1,), 1, (1,)) == 3
        # absorbing a whole part into the new cycle
        assert single_cycle_coefficient((2,), 1, (2,)) == 4
        assert single_cycle_coefficient((1, 1), 1, (1, 1)) == 2

    def test_coefficient_guards(self):
        with pytest.raises(ValueError):
            single_cycle_coefficient((1,), 0, ())
        with pytest.raises(NotASubpartition):
            single_cycle_coefficient((1,), 2, (2,))
        with pytest.raises(LengthBound):
            single_cycle_coefficient((1, 1, 1), 1, (1, 1, 1))

    def test_expansion_r_zero_is_identity_product(self):
        assert single_cycle_expansion((2, 1), 0, 5) == HeckeElement.basis(
            (2, 1), 5
        )

    def test_expansion_weight_guards(self):
        with pytest.raises(WeightExceedsLevel):
            single_cycle_expansion((2, 1), 1, 4)
        with pytest.raises(WeightExceedsLevel):
            single_cycle_expansion((1,), 4, 4)

    @pytest.mark.parametrize(
        "lam, r",
        [((), 1), ((1,), 1), ((1,), 2), ((2,), 1), ((1, 1), 1), ((2, 1), 2)],
    )
    def test_expansion_is_the_top_of_the_product(self, lam, r):
        n = 5
        top = single_cycle_expansion(lam, r, n)
        product = hecke_product(
            HeckeElement.basis(lam, n), HeckeElement.basis((r,), n)
        )
        degree = sum(lam) + r
        assert all(sum(nu) == degree for nu in top.coeffs)
        for nu in enumerate_by_weight(n):
            if sum(nu) == degree:
                assert product.coefficient(nu) == top.coefficient(nu), nu

    def test_low_level_truncates(self):
        # at n = 4 the weight-6 shape (1,1,1) cannot appear
        full = single_cycle_expansion((1, 1), 1, 6)
        cut = single_cycle_expansion((1, 1), 1, 4)
        assert (1, 1, 1) in full.coeffs
        assert (1, 1, 1) not in cut.coeffs
        kept = {nu for nu in full.coeffs if weight(nu) <= 4}
        assert set(cut.coeffs) == kept


class TestMatsumoto:
    @pytest.mark.parametrize("n", [2, 3])
    def test_elementary_lands_on_generators(self, n):
        for i in range(1, n + 1):
            assert matsumoto_image(f"e{n - i}", n) == generator_H(i, n)

    def test_linear(self):
        n = 3
        lhs = matsumoto_image("e1 + 2*e2", n)
        rhs = (
            matsumoto_image("e1", n) + matsumoto_image("e2", n).scale(2)
        )
        assert lhs == rhs

    def test_accepts_parsed_expressions(self):
        from bnhecke.group_algebra import elementary

        assert matsumoto_image(elementary(0), 2) == generator_H(2, 2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("expr", ORACLE_EXPRS)
    def test_matchings_agree_with_group_algebra(self, expr, n):
        odds = [jucys_murphy(2 * i - 1, 2 * n) for i in range(1, n + 1)]
        want = expand_K(eval_symmetric(expr, odds) * b_sum(n), n)
        got = matsumoto_image(expr, n)
        if got != want:
            pytest.fail(f"{expr} at n={n}: {got} != {want}")

    # one level past e5, and a power whose every factor after the first
    # acts on most of the matchings
    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("expr", [*ORACLE_EXPRS, "p5", "e1^6"])
    def test_characters_agree_with_the_matching_walk(self, expr, n):
        F = SymmetricExpression.parse(expr)
        want = oracles._matsumoto_raw(F, n)
        got = matsumoto_image(F, n)
        if got != want:
            pytest.fail(f"{expr} at n={n}: {got} != {want}")

    @pytest.mark.parametrize("damage", ["uneven", "missing"])
    def test_uneven_vector_is_not_bi_invariant(self, monkeypatch, damage):
        true_vector = oracles._matsumoto_vector

        def damaged(F, n):
            v = true_vector(F, n)
            delta = max(v)  # some matching of type (1,) when F = e1
            if damage == "uneven":
                v[delta] += 1
            else:
                del v[delta]
            return v

        monkeypatch.setattr(oracles, "_matsumoto_vector", damaged)
        with pytest.raises(NotBiInvariant):
            oracles._matsumoto_raw(SymmetricExpression.parse("e1"), 3)

    def test_failed_self_test_fails_every_call(self, monkeypatch):
        # a wrong raw path must not be let through by a second call
        monkeypatch.setattr(hecke, "_MATSUMOTO_CHECKED", False)
        monkeypatch.setattr(characters, "matsumoto_coefficients", lambda F, n: {})
        for _ in range(2):
            with pytest.raises(ValidationFailure, match="self-test"):
                matsumoto_image("e1", 3)


def _det(mat):
    rows = [[Fraction(v) for v in row] for row in mat]
    det = Fraction(1)
    size = len(rows)
    for col in range(size):
        pivot = next((i for i in range(col, size) if rows[i][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for i in range(col + 1, size):
            if rows[i][col]:
                f = rows[i][col] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    return det


class TestHermiteNormalForm:
    def test_known_small_case(self):
        h, u = _hermite_normal_form([[2, 4], [3, 5]])
        assert h == [[1, 1], [0, 2]]
        assert _apply(u, [[2, 4], [3, 5]]) == h
        assert _det(u) in (1, -1)

    def test_random_matrices(self, rng):
        for _ in range(25):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 5)
            mat = [
                [rng.randrange(-9, 10) for _ in range(cols)]
                for _ in range(rows)
            ]
            h, u = _hermite_normal_form(mat)
            assert _apply(u, mat) == h
            assert _det(u) in (1, -1)
            _check_echelon(h)


def _apply(u, mat):
    return [
        [
            sum(u[i][k] * mat[k][j] for k in range(len(mat)))
            for j in range(len(mat[0]))
        ]
        for i in range(len(u))
    ]


def _check_echelon(h):
    last_pivot = -1
    seen_zero_row = False
    for row in h:
        pivot = next((j for j, v in enumerate(row) if v), None)
        if pivot is None:
            seen_zero_row = True
            continue
        assert not seen_zero_row, "nonzero row after a zero row"
        assert pivot > last_pivot, "pivots must move right"
        assert row[pivot] > 0, "pivots must be positive"
        last_pivot = pivot
    # entries above each pivot are reduced mod the pivot
    pivots = []
    for i, row in enumerate(h):
        pivot = next((j for j, v in enumerate(row) if v), None)
        if pivot is not None:
            pivots.append((i, pivot))
    for i, j in pivots:
        for k in range(i):
            assert 0 <= h[k][j] < h[i][j]


class TestCertificates:
    def test_level_two_degree_one(self):
        cert = generation_certificate(2, 1)
        assert isinstance(cert, GenerationCertificate)
        assert cert.rank == len(enumerate_by_weight(2)) == 2
        assert cert.basis == ((), (1,))

    def test_level_three_degree_one_expressions(self):
        cert = generation_certificate(3, 1)
        assert cert.rank == 3
        # H_1 = K_(2) at level 3, so the expression is one monomial
        assert cert.expressions[(2,)] == ((1, (1, 0, 0)),)

    def test_level_four_needs_degree_two(self):
        with pytest.raises(InsufficientDegree):
            generation_certificate(4, 1)
        cert = generation_certificate(4, 2)
        assert cert.rank == 5

    def test_bad_degree(self):
        with pytest.raises(ValueError):
            generation_certificate(3, 0)

    def test_json_lists_every_basis_shape(self):
        cert = generation_certificate(2, 1)
        payload = cert.to_json()
        assert [e["mu"] for e in payload["expressions"]] == [[], [1]]
        assert payload["rank"] == 2


class TestTrichotomy:
    def test_report_window(self):
        report = trichotomy_report(3, (3, 4, 5))
        values = {
            (lam, mu, nu): vals for lam, mu, nu, vals in report.subtop
        }
        assert values[(1,), (1,), ()] == (6, 12, 20)
        tops = {(lam, mu, nu): b for lam, mu, nu, b in report.top}
        assert tops[(1,), (1,), (2,)] == 3
        assert ((), (), (1,)) in report.zero
        total = len(report.zero) + len(report.top) + len(report.subtop)
        shapes = len(enumerate_by_weight(3))
        assert total == shapes**3

    def test_level_floor(self):
        with pytest.raises(ValueError):
            trichotomy_report(3, (2, 3))

    def test_json_shape(self):
        report = trichotomy_report(2, (2, 3))
        payload = report.to_json()
        assert payload["n_range"] == [2, 3]
        for entry in payload["subtop"]:
            assert set(entry["values"]) == {"2", "3"}


class TestResultChecks:
    """Checks on results are raises, not asserts, so python -O keeps them."""

    def test_closed_form_must_divide(self, monkeypatch):
        monkeypatch.setattr(hecke, "factorial", lambda k: k + 1)
        with pytest.raises(ValidationFailure):
            single_cycle_coefficient((1,), 1, ())

    def test_admissible_targets_must_differ(self, monkeypatch):
        monkeypatch.setattr(hecke, "union", lambda a, b: (9,))
        with pytest.raises(ValidationFailure):
            single_cycle_expansion((1,), 1, 5)
