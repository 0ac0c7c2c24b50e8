import pytest

from bnhecke import universal
from bnhecke.errors import NonIntegerCoefficient, ValidationFailure
from bnhecke.hecke import HeckeElement
from bnhecke.partitions import enumerate_by_weight
from bnhecke.universal import (
    MAX_SAMPLE_LEVEL,
    FitResult,
    IntegerValuedPolynomial,
    UniversalElement,
    fit_report,
    fit_triple,
    graded_iso_check,
    ivp_fit,
    t_generator,
    universal_product,
    universal_structure_constant,
)

IVP = IntegerValuedPolynomial


class TestIntegerValuedPolynomial:
    def test_basic_forms(self):
        assert IVP.zero().degree == -1
        assert not IVP.zero()
        assert IVP.constant(7).degree == 0
        assert IVP.constant(7)(123) == 7
        assert IVP((0, 0, 2)).degree == 2

    def test_inexact_binomial_raises(self, monkeypatch):
        # a raise, not an assert, so python -O keeps it
        monkeypatch.setattr(universal, "factorial", lambda k: 7)
        with pytest.raises(ValidationFailure):
            IVP((0, 1))(5)

    def test_trailing_zeros_stripped(self):
        assert IVP((1, 2, 0, 0)) == IVP((1, 2))
        assert IVP((0,)) == IVP.zero()

    def test_evaluation(self):
        choose2 = IVP((0, 0, 1))
        assert [choose2(n) for n in range(6)] == [0, 0, 1, 3, 6, 10]
        # falling factorial extends to negative arguments
        assert choose2(-1) == 1
        assert choose2(-2) == 3

    def test_linear_structure(self):
        f = IVP((1, 2))
        g = IVP((0, 0, 1))
        assert (f + g)(4) == f(4) + g(4)
        assert (f - g)(4) == f(4) - g(4)
        assert (-f)(3) == -f(3)
        assert f + 1 == IVP((2, 2))
        assert 1 + f == IVP((2, 2))

    def test_product_refits(self):
        n_poly = IVP((0, 1))
        assert n_poly * n_poly == IVP((0, 1, 2))  # n^2 = n + 2 C(n,2)
        assert (n_poly * IVP.zero()) == IVP.zero()
        assert 3 * n_poly == IVP((0, 3))
        sq = IVP((0, 0, 1)) * IVP((0, 0, 1))
        assert all(sq(n) == (n * (n - 1) // 2) ** 2 for n in range(-3, 8))

    def test_comparison_with_int(self):
        assert IVP.constant(4) == 4
        assert IVP((0, 1)) != 4
        assert hash(IVP((1,))) == hash(IVP.constant(1))

    def test_immutable_and_json(self):
        f = IVP((1, 2))
        with pytest.raises(AttributeError):
            f.coeffs = ()
        assert f.to_json() == {"binomial_coeffs": [1, 2]}


class TestFitting:
    def test_quadratic_fit(self):
        f = ivp_fit([(2, 1), (3, 3), (4, 6)])
        assert f == IVP((0, 0, 1))
        assert f(5) == 10

    def test_linear_fit(self):
        assert ivp_fit([(2, 4), (5, 10)]) == IVP((0, 2))

    def test_constant_fit(self):
        assert ivp_fit([(2, 3), (4, 3)]) == IVP.constant(3)

    def test_overdetermined_consistent(self):
        f = ivp_fit([(n, 2 * n * n) for n in (1, 2, 3, 5, 7)])
        assert f.degree == 2
        assert f(10) == 200

    def test_input_validation(self):
        with pytest.raises(ValueError):
            ivp_fit([(2, 1)])
        with pytest.raises(ValueError):
            ivp_fit([(2, 1), (2, 2)])

    def test_non_integer_valued_rejected(self):
        # f(0) = 0, f(2) = 1 forces the half-integer n/2
        with pytest.raises(NonIntegerCoefficient):
            ivp_fit([(0, 0), (2, 1)])


class TestUniversalStructureConstant:
    def test_identity_coefficient_is_quadratic(self):
        f = universal_structure_constant((1,), (1,), (), [2, 3, 4])
        assert f == IVP((0, 0, 2))
        assert f(5) == 20

    def test_top_coefficients_are_constant(self):
        assert universal_structure_constant(
            (1,), (1,), (2,), [3, 4]
        ) == IVP.constant(3)
        assert universal_structure_constant(
            (1,), (1,), (1, 1), [4, 5]
        ) == IVP.constant(2)

    def test_zero_above_top_degree(self):
        f = universal_structure_constant((1,), (1,), (2, 1), [5])
        assert f == IVP.zero()

    def test_class_basis(self):
        f = universal_structure_constant((1,), (1,), (), [2, 3, 4], basis="C")
        assert f == IVP((0, 0, 1))  # class size n(n-1)/2

    def test_explicit_holdout(self):
        f = universal_structure_constant(
            (1,), (1,), (), [2, 3, 4], holdout=5
        )
        assert f(5) == 20

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            universal_structure_constant((1,), (1,), (2,), [2, 3])

    def test_sample_count(self):
        with pytest.raises(ValueError):
            universal_structure_constant((1,), (1,), (), [2, 3])

    def test_basis_name_checked(self):
        with pytest.raises(ValueError):
            universal_structure_constant((1,), (1,), (), [2, 3, 4], basis="Q")


class TestGradedIso:
    def test_small_window_agrees(self):
        report = graded_iso_check(2, 4)
        assert report.ok
        assert report.mismatches == ()
        assert any(e.nu == (2,) and e.formula_hecke == 3 for e in report.entries)

    def test_heavy_targets_skip_brute_force(self):
        report = graded_iso_check(3, 3)
        assert report.ok
        heavy = [e for e in report.entries if e.brute_hecke is None]
        assert heavy and all(e.brute_center is None for e in heavy)

    def test_level_floor(self):
        with pytest.raises(ValueError):
            graded_iso_check(3, 2)

    def test_json(self):
        payload = graded_iso_check(2, 4).to_json()
        assert payload["ok"] is True
        assert all("formula_center" in e for e in payload["entries"])


class TestUniversalElement:
    def test_cutoff_enforced(self):
        with pytest.raises(ValueError):
            UniversalElement("K", 2, {(2,): 1})

    def test_basis_tag_checked(self):
        with pytest.raises(ValueError):
            UniversalElement("Z", 2)

    def test_constant_coercion_and_coefficient(self):
        u = UniversalElement("K", 3, {(1,): 2, (2,): IVP((0, 1))})
        assert u.coefficient((1,)) == IVP.constant(2)
        assert u.coefficient((2,)) == IVP((0, 1))
        assert u.coefficient(()) == IVP.zero()

    def test_specialize_drops_dead_symbols(self):
        u = UniversalElement("K", 4, {(1,): 1, (1, 1): 5})
        assert u.specialize(3) == {(1,): 1}
        assert u.specialize(4) == {(1,): 1, (1, 1): 5}

    def test_to_hecke(self):
        u = UniversalElement("K", 3, {(1,): 3})
        assert u.to_hecke(4) == HeckeElement(4, {(1,): 3})
        with pytest.raises(ValueError):
            UniversalElement("C", 3, {(1,): 3}).to_hecke(4)

    def test_addition_truncates(self):
        u = UniversalElement("K", 4, {(1, 1): 1, (1,): 1})
        v = UniversalElement("K", 3, {(1,): 1})
        total = u + v
        assert total.weight_cutoff == 3
        assert total.coefficient((1,)) == IVP.constant(2)
        assert total.coefficient((1, 1)) == IVP.zero()

    def test_mixed_basis_rejected(self):
        u = UniversalElement("K", 2, {(1,): 1})
        v = UniversalElement("C", 2, {(1,): 1})
        with pytest.raises(ValueError):
            u + v
        with pytest.raises(ValueError):
            universal_product(u, v)

    def test_immutable_and_json(self):
        u = UniversalElement("K", 3, {(2,): 1, (1,): IVP((0, 1))})
        with pytest.raises(AttributeError):
            u.basis = "C"
        assert u.to_json() == {
            "basis": "K",
            "weight_cutoff": 3,
            "coeffs": [
                {"mu": [1], "polynomial": {"binomial_coeffs": [0, 1]}},
                {"mu": [2], "polynomial": {"binomial_coeffs": [1]}},
            ],
        }


class TestTGenerator:
    def test_length_one(self):
        t1 = t_generator(1, 3)
        assert t1.basis == "K"
        assert t1.weight_cutoff == 4
        assert set(t1.coeffs) == {(1,), (2,), (3,)}
        assert all(c == 1 for c in t1.coeffs.values())

    def test_length_two(self):
        t2 = t_generator(2, 3)
        assert t2.weight_cutoff == 5
        assert set(t2.coeffs) == {(1, 1), (2, 1)}

    def test_class_basis_tag(self):
        assert t_generator(1, 2, basis="C").basis == "C"

    def test_index_checked(self):
        with pytest.raises(ValueError):
            t_generator(0, 3)


class TestUniversalProduct:
    def test_t1_squared_narrow_window(self):
        t1 = t_generator(1, 1)
        sq = universal_product(t1, t1)
        assert sq.weight_cutoff == 2
        assert sq.coefficient(()) == IVP((0, 0, 2))
        assert sq.coefficient((1,)) == IVP.constant(1)

    def test_class_side_mirror(self):
        s1 = t_generator(1, 1, basis="C")
        sq = universal_product(s1, s1)
        assert sq.coefficient(()) == IVP((0, 0, 1))
        assert sq.coefficient((1,)) == IVP.zero()

    def test_identity(self):
        one = UniversalElement("K", 2, {(): 1})
        t1 = t_generator(1, 1)
        assert universal_product(one, t1).coefficient((1,)) == 1

    def test_unfitted_window_is_refused(self):
        t1 = t_generator(1, 2)
        with pytest.raises(ValidationFailure, match="UNFITTED"):
            universal_product(t1, t1)


class TestFitReports:
    def test_classifications(self):
        assert fit_triple((1,), (1,), ()).classification == "polynomial"
        assert fit_triple((1,), (1,), (2,)).classification == "constant"
        assert fit_triple((), (1,), ()).classification == "zero"
        assert fit_triple((), (), (1,)).classification == "zero"
        assert fit_triple((2,), (2,), ()).classification == "UNFITTED"

    def test_symmetry_shares_the_fit(self):
        a = fit_triple((1,), (2,), (1,))
        b = fit_triple((2,), (1,), (1,))
        assert a.polynomial == b.polynomial

    def test_json_variants(self):
        constant = fit_triple((1,), (1,), (2,)).to_json()
        assert constant["classification"] == "constant"
        assert constant["constant"] == 3
        poly = fit_triple((1,), (1,), ()).to_json()
        assert poly["polynomial"] == {"binomial_coeffs": [0, 0, 2]}
        unfitted = fit_triple((2,), (2,), ()).to_json()
        assert "polynomial" not in unfitted

    def test_report_covers_the_window(self):
        results = fit_report(2)
        assert len(results) == len(enumerate_by_weight(2)) ** 3
        assert all(isinstance(r, FitResult) for r in results)
        classes = {r.classification for r in results}
        assert classes == {"zero", "constant", "polynomial"}

    def test_sample_ceiling_exported(self):
        assert MAX_SAMPLE_LEVEL == 5
