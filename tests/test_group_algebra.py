import io
import math
from fractions import Fraction

import pytest
from oracles import conjugate, e_to_m_rows

from bnhecke import _symfunc, group_algebra
from bnhecke._symfunc import MAX_DEGREE
from bnhecke.cli import execute, parse
from bnhecke.errors import (
    IndexOutOfRange,
    LevelMismatch,
    NonCommutingValues,
    NotCentral,
    ValidationFailure,
    WeightExceedsLevel,
)
from bnhecke.group_algebra import (
    AlgebraElement,
    SymmetricExpression,
    b_sum,
    class_structure_constant,
    class_sum,
    complete,
    elementary,
    eval_elementary,
    eval_symmetric,
    expand_in_class_basis,
    jucys_murphy,
    monomial,
    multiply,
    power_sum,
    zi_generator,
)
from bnhecke.partitions import (
    completion,
    enumerate_by_weight,
    hyperoctahedral_order,
    z_value,
)
from bnhecke.permutations import (
    Permutation,
    identity,
    symmetric_group,
    transposition,
)


def delta(w, level):
    return AlgebraElement.from_permutation(w, level)


class TestAlgebraElement:
    def test_constructor_merges_and_drops_zeros(self):
        w = transposition(1, 2)
        a = AlgebraElement(3, {w: 2, identity(): 0})
        assert a.coefficient(w) == 2
        assert a.support_size() == 1
        assert AlgebraElement(3, {w: 1}) + AlgebraElement(3, {w: -1}) == (
            AlgebraElement.zero(3)
        )

    def test_one_is_the_identity(self):
        e = AlgebraElement.one(3)
        a = class_sum((1,), 3)
        assert e * a == a * e == a
        assert bool(AlgebraElement.zero(3)) is False
        assert bool(e) is True

    def test_delta_product_is_composition(self, random_perm):
        for _ in range(20):
            x, y = random_perm(5), random_perm(5)
            assert delta(x, 5) * delta(y, 5) == delta(x * y, 5)

    def test_bilinearity(self, random_perm):
        x, y, z = (random_perm(4) for _ in range(3))
        a = delta(x, 4) + 2 * delta(y, 4)
        assert a * delta(z, 4) == delta(x * z, 4) + 2 * delta(y * z, 4)

    def test_scalar_action(self):
        a = class_sum((1,), 3)
        assert 2 * a == a * 2 == a + a
        assert a.scale(-3) + a + a + a == AlgebraElement.zero(3)
        assert a.scale(0) == AlgebraElement.zero(3)
        assert -a + a == AlgebraElement.zero(3)

    def test_level_mismatch(self):
        with pytest.raises(LevelMismatch):
            AlgebraElement.one(3) + AlgebraElement.one(4)
        with pytest.raises(LevelMismatch):
            multiply(AlgebraElement.one(3), AlgebraElement.one(4))

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            AlgebraElement(0)

    def test_immutable(self):
        a = AlgebraElement.one(2)
        with pytest.raises(AttributeError):
            a.level = 3

    def test_terms_and_json(self):
        a = delta(transposition(1, 2), 2).scale(-2)
        assert a.terms() == {transposition(1, 2): -2}
        assert a.to_json() == [{"perm": [2, 1], "coeff": "-2"}]

    def test_coefficients_are_integers(self):
        a = class_sum((1,), 3)
        for c in (Fraction(1, 2), Fraction(2), 0.5, 2.0, True, False):
            with pytest.raises(TypeError):
                AlgebraElement(3, {identity(): c})
            with pytest.raises(TypeError):
                AlgebraElement.from_permutation(identity(), 3, c)
            with pytest.raises(TypeError):
                a.scale(c)
            with pytest.raises(TypeError):
                a * c
            with pytest.raises(TypeError):
                c * a


class TestClassSums:
    @pytest.mark.parametrize("n", [3, 4])
    def test_class_sum_support(self, n):
        for mu in enumerate_by_weight(n):
            c = class_sum(mu, n)
            size = math.factorial(n) // z_value(completion(mu, n))
            assert c.support_size() == size
            assert all(v == 1 for v in c.terms().values())

    def test_class_sum_beyond_level_is_zero(self):
        assert class_sum((3,), 3) == AlgebraElement.zero(3)

    def test_class_sums_are_central(self):
        n = 4
        c = class_sum((2,), n)
        for w in symmetric_group(n):
            d = delta(w, n)
            assert c * d == d * c

    def test_structure_constant_anchors(self):
        # transposition times transposition at n = 4
        assert class_structure_constant((1,), (1,), (), 4) == 6
        assert class_structure_constant((1,), (1,), (2,), 4) == 3
        assert class_structure_constant((1,), (1,), (1, 1), 4) == 2
        assert class_structure_constant((1,), (1,), (1,), 4) == 0

    def test_structure_constant_scaling_in_n(self):
        # the identity coefficient is the class size, n(n-1)/2
        for n in (3, 4, 5):
            assert class_structure_constant((1,), (1,), (), n) == (
                n * (n - 1) // 2
            )

    def test_structure_constant_rejects_heavy_target(self):
        with pytest.raises(WeightExceedsLevel):
            class_structure_constant((1,), (1,), (3,), 3)

    @pytest.mark.parametrize("n", [3, 4])
    def test_structure_constants_expand_the_product(self, n):
        lam, mu = (1,), (2,)
        product = class_sum(lam, n) * class_sum(mu, n)
        rebuilt = AlgebraElement.zero(n)
        for nu in enumerate_by_weight(n):
            a = class_structure_constant(lam, mu, nu, n)
            rebuilt = rebuilt + class_sum(nu, n).scale(a)
        assert rebuilt == product


class TestJucysMurphy:
    def test_first_is_zero(self):
        assert jucys_murphy(1, 4) == AlgebraElement.zero(4)

    def test_support(self):
        j3 = jucys_murphy(3, 4)
        assert j3.terms() == {
            Permutation.from_cycles([(1, 3)]): Fraction(1),
            Permutation.from_cycles([(2, 3)]): Fraction(1),
        }

    def test_pairwise_commute(self):
        n = 5
        js = [jucys_murphy(k, n) for k in range(1, n + 1)]
        for i in range(n):
            for j in range(i + 1, n):
                assert js[i] * js[j] == js[j] * js[i]

    def test_index_bounds(self):
        with pytest.raises(IndexOutOfRange):
            jucys_murphy(0, 3)
        with pytest.raises(IndexOutOfRange):
            jucys_murphy(4, 3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_elementary_in_jm_gives_cycle_filtration(self, n):
        js = [jucys_murphy(k, n) for k in range(1, n + 1)]
        for i in range(1, n + 1):
            assert eval_elementary(n - i, js) == zi_generator(i, n)

    def test_zi_bounds(self):
        with pytest.raises(IndexOutOfRange):
            zi_generator(0, 3)
        with pytest.raises(IndexOutOfRange):
            zi_generator(4, 3)

    def test_zi_extremes(self):
        assert zi_generator(4, 4) == AlgebraElement.one(4)
        # single n-cycles
        assert zi_generator(1, 4).support_size() == math.factorial(3)


class TestBSum:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_support_and_idempotency(self, n):
        b = b_sum(n)
        order = hyperoctahedral_order(n)
        assert b.level == 2 * n
        assert b.support_size() == order
        assert b * b == b.scale(order)


class TestSymmetricEvaluation:
    def test_e0_is_one(self):
        assert eval_elementary(0, [jucys_murphy(2, 3)]) == AlgebraElement.one(3)

    def test_ek_beyond_values_is_zero(self):
        assert eval_elementary(3, [jucys_murphy(2, 3)]) == AlgebraElement.zero(3)
        with pytest.raises(ValueError):
            eval_elementary(1, [])

    def test_newton_identity_at_jm_values(self):
        n = 4
        js = [jucys_murphy(k, n) for k in range(1, n + 1)]
        p2 = sum((j * j for j in js), AlgebraElement.zero(n))
        assert eval_symmetric("p2", js) == p2
        assert eval_symmetric("e1^2 - 2*e2", js) == p2

    def test_rejects_noncommuting_values(self):
        a = delta(transposition(1, 2), 3)
        b = delta(transposition(2, 3), 3)
        with pytest.raises(NonCommutingValues):
            eval_symmetric("e2", [a, b])

    def test_parse_and_convert(self):
        assert SymmetricExpression.parse("p2") == elementary(1) ** 2 - 2 * elementary(2)
        assert SymmetricExpression.parse("h2") == elementary(1) ** 2 - elementary(2)
        assert monomial((1, 1)) == elementary(2)
        assert monomial((2,)) == power_sum(2)
        assert complete(1) == power_sum(1) == elementary(1)
        assert SymmetricExpression.parse("m[2,1]") == (
            elementary(2) * elementary(1) - 3 * elementary(3)
        )

    @pytest.mark.parametrize("d", range(1, 9))
    def test_monomial_inverts_the_e_to_m_matrix(self, d):
        # row k of the matrix is e_{parts[k]'} over the m_nu
        parts, rows = e_to_m_rows(d)
        row_of = {conjugate(lam): row for lam, row in zip(parts, rows)}
        for lam in parts:
            back = [0] * len(parts)
            for mu, c in monomial(lam).terms.items():
                back = [x + c * y for x, y in zip(back, row_of[mu])]
            assert back == [int(nu == lam) for nu in parts], lam

    @pytest.mark.parametrize(
        "entry", [((2,), 2), ((1, 1), 3)], ids=["above-diagonal", "diagonal"]
    )
    def test_monomial_raises_on_a_damaged_matrix(self, entry, monkeypatch):
        # m_(1,1) = (p_1^2 - [m_(2)] p_(1,1) p_2) / [m_(1,1)] p_(1,1) with
        # entries 1 and 2; either one changed leaves a remainder
        rows = _symfunc._power_sum_monomials
        damaged = {**rows((1, 1)), entry[0]: entry[1]}
        monkeypatch.setattr(
            _symfunc,
            "_power_sum_monomials",
            lambda lam: damaged if lam == (1, 1) else rows(lam),
        )
        _symfunc._monomial.cache_clear()
        try:
            with pytest.raises(ValidationFailure, match="e-coefficient"):
                monomial((1, 1))
        finally:
            _symfunc._monomial.cache_clear()

    def test_monomial_degree_cap(self):
        assert monomial((8,)).degree() == 8
        with pytest.raises(ValueError):
            monomial((9,))
        with pytest.raises(ValueError):
            monomial((5, 4))

    def test_monomial_reads_only_integers(self):
        for lam in ((2.5,), (2.0, 1), (True,), ("2",)):
            with pytest.raises(TypeError):
                monomial(lam)

    def test_coefficients_are_integers(self):
        e1 = elementary(1)
        for c in (1.5, True, Fraction(1, 2), "2"):
            with pytest.raises(TypeError):
                SymmetricExpression({(1,): c})
            for operation in (
                lambda: e1 + c,
                lambda: c + e1,
                lambda: e1 - c,
                lambda: c - e1,
                lambda: e1 * c,
                lambda: c * e1,
                lambda: e1**c,
            ):
                with pytest.raises(TypeError):
                    operation()
        assert SymmetricExpression.one() == 1
        assert SymmetricExpression.one() != True  # noqa: E712

    def test_parse_rejects_garbage(self):
        for bad in ("e", "q3", "e2 +", "(e1", "e1 e2"):
            with pytest.raises(ValueError):
                SymmetricExpression.parse(bad)

    def test_degree_cap(self):
        top = MAX_DEGREE
        assert power_sum(top).degree() == complete(top).degree() == top
        assert (elementary(1) ** top).terms == {(1,) * top: 1}
        assert (elementary(top - 1) * elementary(1)).degree() == top
        with pytest.raises(ValueError, match="cap"):
            power_sum(top + 1)
        with pytest.raises(ValueError, match="cap"):
            complete(top + 1)
        with pytest.raises(ValueError, match="cap"):
            elementary(1) ** (top + 1)
        with pytest.raises(ValueError, match="cap"):
            SymmetricExpression.one() ** (top + 1)
        with pytest.raises(ValueError, match="cap"):
            elementary(top) * elementary(1)
        for text in ("p21", "h21", "e1^21", "p12^12", "p20*p20*p20"):
            with pytest.raises(ValueError, match="cap"):
                SymmetricExpression.parse(text)


class TestClassExpansion:
    def test_roundtrip(self):
        n = 4
        a = class_sum((1,), n).scale(5) - class_sum((2,), n)
        assert expand_in_class_basis(a, n) == {(1,): 5, (2,): -1}

    def test_product_of_class_sums_expands(self):
        n = 4
        product = class_sum((1,), n) * class_sum((1,), n)
        coeffs = expand_in_class_basis(product, n)
        assert coeffs == {
            (): Fraction(6),
            (2,): Fraction(3),
            (1, 1): Fraction(2),
        }

    def test_not_central_detection(self):
        n = 3
        with pytest.raises(NotCentral):
            expand_in_class_basis(delta(transposition(1, 2), n), n)
        skewed = class_sum((1,), n) + delta(transposition(1, 2), n)
        with pytest.raises(NotCentral):
            expand_in_class_basis(skewed, n)

    def test_level_check(self):
        with pytest.raises(LevelMismatch):
            expand_in_class_basis(AlgebraElement.one(3), 4)


def test_class_constant_must_be_a_count(monkeypatch):
    # a raise, not an assert, so python -O keeps it
    negated = class_sum((1,), 3).scale(-1)
    monkeypatch.setitem(group_algebra._CLASS_PRODUCTS, ((1,), (1,), 3), negated)
    with pytest.raises(ValidationFailure):
        class_structure_constant((1,), (1,), (1,), 3)


def test_jm_center_suite_checks_commuting_once(monkeypatch):
    # the suite checks J_a J_b = J_b J_a itself, once per pair, so
    # evaluating each e_{n-i}(J) must not repeat that check
    calls = []
    mul = AlgebraElement.__mul__
    monkeypatch.setattr(
        AlgebraElement, "__mul__", lambda a, b: calls.append(1) or mul(a, b)
    )
    argv = ["verify", "--suite", "jm-center", "--max-n", "5"]
    assert execute(parse(argv), stream=io.StringIO()) == 0
    assert len(calls) == 120
