import io
import math
import random
from fractions import Fraction

import pytest
import oracles
from oracles import (
    ORACLE_EXPRS,
    b_sum,
    conjugate,
    e_to_m_rows,
    enumerate_class,
    expand_in_class_basis,
    zi_generator,
)

from bnhecke import group_algebra
from bnhecke._symfunc import BOUND_BITS, SymmetricExpression, elementary
from bnhecke.characters import matsumoto_coefficients
from bnhecke.cli import execute, parse
from bnhecke.errors import (
    DegreeMismatch,
    IndexOutOfRange,
    LevelMismatch,
    NotCentral,
    ValidationFailure,
    WeightExceedsLevel,
)
from bnhecke.group_algebra import (
    AlgebraElement,
    class_structure_constant,
    class_sum,
    jucys_murphy,
)
from bnhecke.partitions import (
    completion,
    enumerate_by_weight,
    hyperoctahedral_order,
    z_value,
)
from bnhecke.permutations import (
    Permutation,
    class_representative,
    identity,
    symmetric_group,
)


def delta(w, level):
    return AlgebraElement(level, {w: 1})


class TestAlgebraElement:
    def test_constructor_merges_and_drops_zeros(self):
        w = Permutation.from_cycles([(1, 2)])
        a = AlgebraElement(3, {w: 2, identity(): 0})
        assert a.coefficient(w) == 2
        assert len(a) == 1
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
            AlgebraElement.one(3) * AlgebraElement.one(4)

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            AlgebraElement(0)

    def test_immutable(self):
        a = AlgebraElement.one(2)
        with pytest.raises(AttributeError):
            a.level = 3

    def test_coefficients_are_integers(self):
        a = class_sum((1,), 3)
        for c in (Fraction(1, 2), Fraction(2), 0.5, 2.0, True, False):
            with pytest.raises(TypeError):
                AlgebraElement(3, {identity(): c})
            with pytest.raises(TypeError):
                a.scale(c)
            with pytest.raises(TypeError):
                a * c
            with pytest.raises(TypeError):
                c * a

    def test_keys_are_read_even_with_coefficient_zero(self):
        beyond = Permutation.from_cycles([(1, 3)])
        with pytest.raises(DegreeMismatch):
            AlgebraElement(2, {beyond: 0})
        assert not AlgebraElement(3, {beyond: 0})


class TestClassSums:
    @pytest.mark.parametrize("n", [3, 4])
    def test_class_sum_support(self, n):
        for mu in enumerate_by_weight(n):
            c = class_sum(mu, n)
            size = math.factorial(n) // z_value(completion(mu, n))
            assert len(c) == size
            assert c == AlgebraElement(n, dict.fromkeys(enumerate_class(mu, n), 1))

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
        assert j3 == AlgebraElement(
            4, {Permutation.from_cycles([(1, 3)]): 1, Permutation.from_cycles([(2, 3)]): 1}
        )

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

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_elementary_in_jm_gives_cycle_filtration(self, n):
        # Z_i = e_{n-i}(J) in Z[S_n], and the class basis image of
        # bnhecke.characters, read off the contents, is F(J) read at the
        # class representatives
        js = [jucys_murphy(k, n) for k in range(1, n + 1)]
        one = AlgebraElement.one(n)
        for i in range(1, n + 1):
            assert elementary(n - i).evaluate(js, one) == zi_generator(i, n)
        for expr in ORACLE_EXPRS:
            F = SymmetricExpression.parse(expr)
            at = F.evaluate(js, one)
            want = {
                mu: c
                for mu in enumerate_by_weight(n)
                if (c := at.coefficient(class_representative(mu, n)))
            }
            assert matsumoto_coefficients(F, n, "C") == want, expr

    def test_zi_bounds(self):
        with pytest.raises(IndexOutOfRange):
            zi_generator(0, 3)
        with pytest.raises(IndexOutOfRange):
            zi_generator(4, 3)

    def test_zi_extremes(self):
        assert zi_generator(4, 4) == AlgebraElement.one(4)
        # single n-cycles
        assert len(zi_generator(1, 4)) == math.factorial(3)


class TestBSum:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_support_and_idempotency(self, n):
        b = b_sum(n)
        order = hyperoctahedral_order(n)
        assert b.level == 2 * n
        assert len(b) == order
        assert b * b == b.scale(order)


class TestSymmetricEvaluation:
    def test_e0_is_one(self):
        one = AlgebraElement.one(3)
        assert elementary(0).evaluate([jucys_murphy(2, 3)], one) == one

    def test_ek_beyond_values_is_zero(self):
        one = AlgebraElement.one(3)
        assert elementary(3).evaluate([jucys_murphy(2, 3)], one) == (
            AlgebraElement.zero(3)
        )
        with pytest.raises(LevelMismatch):
            elementary(1).evaluate([jucys_murphy(2, 3), jucys_murphy(2, 4)], one)

    def test_newton_identity_at_jm_values(self):
        n = 4
        js = [jucys_murphy(k, n) for k in range(1, n + 1)]
        p2 = sum((j * j for j in js), AlgebraElement.zero(n))
        one = AlgebraElement.one(n)
        assert SymmetricExpression.parse("p2").evaluate(js, one) == p2
        assert SymmetricExpression.parse("e1^2 - 2*e2").evaluate(js, one) == p2

    def test_parse_and_convert(self):
        # the parsed values equal the e-basis expansions of tests/oracles.py
        e1, e2, e3 = (oracles.elementary(k) for k in (1, 2, 3))
        assert oracles.power_sum(2) == e1**2 - 2 * e2
        assert oracles.complete(2) == e1**2 - e2
        assert oracles.monomial((1, 1)) == e2
        assert oracles.monomial((2,)) == oracles.power_sum(2)
        assert oracles.complete(1) == oracles.power_sum(1) == e1
        assert oracles.monomial((2, 1)) == e2 * e1 - 3 * e3
        for text, want in [
            ("p2", e1**2 - 2 * e2), ("h2", e1**2 - e2), ("m[1,1]", e2),
            ("m[2]", oracles.power_sum(2)), ("m[2,1]", e2 * e1 - 3 * e3),
        ]:
            F = SymmetricExpression.parse(text)
            assert oracles.expand(F) == want, text
            for values in ([], [3], [1, -2], [0, 2, 5], [-1, 4, 4, 7]):
                assert F.evaluate(values, 1) == want.evaluate(values, 1), (text, values)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_monomial_inverts_the_e_to_m_matrix(self, d):
        # row k of the matrix is e_{parts[k]'} over the m_nu
        parts, rows = e_to_m_rows(d)
        row_of = {conjugate(lam): row for lam, row in zip(parts, rows)}
        for lam in parts:
            back = [0] * len(parts)
            for mu, c in oracles.monomial(lam).terms.items():
                back = [x + c * y for x, y in zip(back, row_of[mu])]
            assert back == [int(nu == lam) for nu in parts], lam

    @pytest.mark.parametrize(
        "entry", [((2,), 2), ((1, 1), 3)], ids=["above-diagonal", "diagonal"]
    )
    def test_monomial_raises_on_a_damaged_matrix(self, entry, monkeypatch):
        # m_(1,1) = (p_1^2 - [m_(2)] p_(1,1) p_2) / [m_(1,1)] p_(1,1) with
        # entries 1 and 2; either one changed leaves a remainder in the
        # e-basis oracle's back substitution
        rows = oracles._power_sum_monomials
        damaged = {**rows((1, 1)), entry[0]: entry[1]}
        monkeypatch.setattr(
            oracles,
            "_power_sum_monomials",
            lambda lam: damaged if lam == (1, 1) else rows(lam),
        )
        oracles._monomial.cache_clear()
        try:
            with pytest.raises(ValidationFailure, match="e-coefficient"):
                oracles.monomial((1, 1))
        finally:
            oracles._monomial.cache_clear()

    def test_monomial_degree_cap(self):
        # no degree cap: m_(9) and m_(5,4) are values like any other, and
        # only a part past the bound is refused, before any arithmetic
        assert SymmetricExpression.parse("m[9]").evaluate([1, 2], 1) == 1 + 2**9
        assert SymmetricExpression.parse("m[5,4]").evaluate([1, 2], 1) == 2**4 + 2**5
        assert SymmetricExpression.parse("m[5,4]").evaluate([3], 1) == 0
        assert SymmetricExpression.parse(f"m[{BOUND_BITS}]").evaluate([1, -1], 1) == 2
        with pytest.raises(ValueError, match="part 14001 exceeds the bound 14000"):
            SymmetricExpression.parse(f"m[{BOUND_BITS + 1},1]")

    def test_leaves_share_one_dp(self):
        # the e_k and h_k leaves of one expression read one DP per op,
        # grown to the largest index as the leaves ask, in any order;
        # the e-basis expansion of tests/oracles.py is the oracle
        rng = random.Random(3)
        one = AlgebraElement.one(3)
        js = [jucys_murphy(k, 3) for k in (1, 2, 3)]
        for _ in range(40):
            leaves = [f"{rng.choice('eh')}{rng.randint(0, 9)}" for _ in range(rng.randint(1, 5))]
            values = [rng.randint(-5, 5) for _ in range(rng.randint(0, 5))]
            F = SymmetricExpression.parse(" - ".join(leaves) + " * h2")
            want = oracles.expand(F)
            assert F.evaluate(values, 1) == want.evaluate(values, 1), (leaves, values)
            if len(leaves) <= 2:
                assert F.evaluate(js, one) == want.evaluate(js, one), leaves

    def test_monomial_reads_only_integers(self):
        for lam in ((2.5,), (2.0, 1), (True,), ("2",)):
            with pytest.raises(TypeError):
                oracles.monomial(lam)
        for text in ("m[2.5]", "m[true]", 'm["2"]'):
            with pytest.raises(ValueError, match="cannot tokenize"):
                SymmetricExpression.parse(text)

    def test_monomial_reads_a_partition(self):
        # parts out of order are refused, not re-sorted into m_(2,1)
        with pytest.raises(ValueError, match="non-increasing"):
            SymmetricExpression.parse("m[1,2]")
        with pytest.raises(ValueError, match="positive"):
            SymmetricExpression.parse("m[2,0]")

    def test_expressions_are_immutable(self):
        F = SymmetricExpression.parse("p2")
        with pytest.raises(AttributeError):
            F.tree = ("p", 3)
        with pytest.raises(AttributeError):
            elementary(2).text = "e3"
        assert str(F) == "p2" and F.evaluate([1, 2], 1) == 5

    def test_cached_terms_are_read_only(self):
        # the oracle's power_sum hands one cached object to every caller
        with pytest.raises(TypeError):
            oracles.power_sum(2)._terms[(1,)] = 5
        with pytest.raises(AttributeError):
            oracles.power_sum(2)._terms = {(1,): 5}
        assert str(oracles.power_sum(2)) == "e1*e1 + -2*e2"

    def test_coefficients_are_integers(self):
        e1 = oracles.elementary(1)
        for c in (1.5, True, Fraction(1, 2), "2"):
            with pytest.raises(TypeError):
                oracles.ElementaryExpansion({(1,): c})
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
        assert oracles.ElementaryExpansion.one() == 1
        assert oracles.ElementaryExpansion.one() != True  # noqa: E712

    def test_elementary_indices_are_integers(self):
        for index in (1.5, True, "2"):
            with pytest.raises(TypeError):
                oracles.ElementaryExpansion({(index,): 1})
            with pytest.raises(TypeError):
                elementary(index)
        # every key is read, also under a zero coefficient
        with pytest.raises(ValueError, match="must be positive"):
            oracles.ElementaryExpansion({(0,): 0})
        e1, e2 = oracles.elementary(1), oracles.elementary(2)
        assert oracles.ElementaryExpansion({(1, 2): 1}) == e2 * e1
        with pytest.raises(ValueError, match="k >= 0"):
            elementary(-1)

    def test_parse_rejects_garbage(self):
        for bad in ("e", "q3", "e2 +", "(e1", "e1 e2", "p0", "e1^-1", "e1^x"):
            with pytest.raises(ValueError):
                SymmetricExpression.parse(bad)

    def test_degree_cap(self):
        # no degree cap: every index and exponent up to BOUND_BITS parses,
        # and one past it is refused before any arithmetic
        top = BOUND_BITS
        assert SymmetricExpression.parse("p21 - h21 + e21 + e1^21 + p12^12")
        assert SymmetricExpression.parse("p12^12").evaluate([1, 2], 1) == (1 + 2**12) ** 12
        assert SymmetricExpression.parse("e21").evaluate(range(20), 1) == 0
        assert SymmetricExpression.parse(f"e{top} + h{top} - e1^{top}").evaluate([], 1) == 0
        assert SymmetricExpression.parse(f"p{top}").evaluate([1, -1], 1) == 2
        assert elementary(top).evaluate([1] * 3, 1) == 0
        for text, what in [
            (f"p{top + 1}", "index"), (f"h{top + 1}", "index"), (f"e{top + 1}", "index"),
            ("e1 + e14001", "index"), ("e1^999999", "exponent"), ("h1000000", "index"),
            (f"e1^2^{top + 1}", "exponent"),
        ]:
            with pytest.raises(ValueError, match=f"^{what} .* exceeds the bound {top}$"):
                SymmetricExpression.parse(text)
        with pytest.raises(ValueError, match="exceeds the bound"):
            elementary(top + 1)

    def test_coefficient_cap(self):
        # every integer an evaluation computes stays within BOUND_BITS bits;
        # a literal is read under the same bound
        at_bound = 2**BOUND_BITS - 1
        assert SymmetricExpression.parse(str(at_bound)).evaluate([], 1) == at_bound
        assert SymmetricExpression.parse("2^20^20^20").evaluate([], 1) == 2**8000
        # within the former e-basis caps: a coefficient near 2^13000 on a
        # degree-20 e-monomial, at the alphabet of the largest 2-contents
        # of level 12
        top = [2 * j for j in range(12)]
        big = SymmetricExpression.parse(f"{2**12999} * e1^20 - e2^10*e1^0")
        assert big.evaluate(top, 1).bit_length() <= BOUND_BITS
        for text in (str(2 * at_bound + 1), str(2**BOUND_BITS)):
            with pytest.raises(ValueError, match="exceeds the bound of 14000 bits"):
                SymmetricExpression.parse(text)
        for text in ("2^20^20^20^20", "2^20^20^20 * 2^20^20^20", "p1^14000", "(e1 + 1)^14000"):
            with pytest.raises(ValueError, match="exceeds the bound of 14000 bits"):
                SymmetricExpression.parse(text).evaluate([2, 3], 1)
        # sums, DP entries and powers of a value are held alike
        for text, values in [
            (f"{at_bound} + {at_bound}", []),
            (f"{2**13999} * p1", [2]),
            ("h14000", [2, 3]),
            ("m[7000]", [4]),
        ]:
            with pytest.raises(ValueError, match="exceeds the bound of 14000 bits"):
                SymmetricExpression.parse(text).evaluate(values, 1)


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
            expand_in_class_basis(delta(Permutation.from_cycles([(1, 2)]), n), n)
        skewed = class_sum((1,), n) + delta(Permutation.from_cycles([(1, 2)]), n)
        with pytest.raises(NotCentral):
            expand_in_class_basis(skewed, n)

    def test_level_check(self):
        with pytest.raises(LevelMismatch):
            expand_in_class_basis(AlgebraElement.one(3), 4)


def test_class_constant_must_be_a_count(monkeypatch):
    # a raise, not an assert, so python -O keeps it
    negated = class_sum((1,), 3).scale(-1)
    monkeypatch.setattr(group_algebra, "_class_product", lambda lam, mu, n: negated)
    with pytest.raises(ValidationFailure):
        class_structure_constant((1,), (1,), (1,), 3)


def test_jm_center_suite_checks_commuting_once(monkeypatch):
    # the suite checks J_a J_b = J_b J_a itself, once per pair, and
    # reads each e_{n-i}(J) off the characters: 2 products a pair
    calls = []
    mul = AlgebraElement.__mul__
    monkeypatch.setattr(
        AlgebraElement, "__mul__", lambda a, b: calls.append(1) or mul(a, b)
    )
    argv = ["verify", "--suite", "jm-center", "--max-n", "5"]
    assert execute(parse(argv), stream=io.StringIO()) == 0
    assert len(calls) == 40
