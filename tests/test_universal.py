from fractions import Fraction

import pytest

from bnhecke import _backend, group_algebra, universal
from bnhecke.errors import NonIntegerCoefficient, ValidationFailure
from bnhecke.hecke import HeckeElement
from bnhecke.partitions import enumerate_by_weight
from bnhecke.universal import (
    MAX_SAMPLE_LEVEL,
    FitResult,
    IntegerValuedPolynomial,
    fit_report,
    fit_triple,
    graded_iso_check,
    ivp_fit,
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

    def test_coefficients_are_integers(self):
        # int() read (1.7, 2) as 1 + 2*C(n,1)
        for coeffs in ((1.7, 2), (1.0,), (True,), ("3",)):
            with pytest.raises(TypeError):
                IVP(coeffs)

    def test_non_integer_valued_rejected(self):
        # f(0) = 0, f(2) = 1 forces the half-integer n/2
        with pytest.raises(NonIntegerCoefficient):
            ivp_fit([(0, 0), (2, 1)])

    def test_fraction_values_are_not_rounded(self):
        # int() would truncate 1/2 and 3/2 to 0 and 1, and fit n - 2
        with pytest.raises(NonIntegerCoefficient):
            ivp_fit([(2, Fraction(1, 2)), (3, Fraction(3, 2))])
        assert ivp_fit([(2, Fraction(4, 2)), (3, Fraction(6, 2))]) == IVP((0, 1))


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

    @pytest.mark.parametrize("basis", ["K", "C"])
    def test_fits_without_a_holdout_hold_one_level_up(self, basis, monkeypatch):
        # a fit whose samples reach MAX_SAMPLE_LEVEL had no level left to
        # check it against; recount each such fit of fit_report(4) at
        # the next level, above the cap of the character path, through
        # the independent count of its basis: the matching tally (K,
        # with the oracle's own cap lifted) or the S_n class sweep (C)
        fitted = universal.universal_structure_constant
        unchecked = {}

        def spy(lam, mu, nu, sample_ns, **kwargs):
            f = fitted(lam, mu, nu, sample_ns, **kwargs)
            # the samples run up from the floor, so none is left above them
            if MAX_SAMPLE_LEVEL in sample_ns:
                unchecked[lam, mu, nu] = f
            return f

        monkeypatch.setattr(universal, "_FIT_CACHE", {})
        monkeypatch.setattr(universal, "universal_structure_constant", spy)
        fit_report(4, basis)
        assert unchecked
        n = MAX_SAMPLE_LEVEL + 1
        monkeypatch.setattr(_backend, "MAX_TALLY_LEVEL", n)

        def count(lam, mu, nu):
            if basis == "K":
                return _backend.product_tally(lam, nu, n).get(mu, 0)
            return group_algebra.class_structure_constant(lam, mu, nu, n)

        wrong = {
            triple: (f(n), count(*triple))
            for triple, f in unchecked.items()
            if f(n) != count(*triple)
        }
        assert not wrong, wrong

    def test_missed_holdout_raises(self, monkeypatch):
        # n^2 has degree 2, above the bound 1 for ((1,), (1,), (1,)): the
        # fit on n = 2, 3 misses the holdout at 4, and more samples
        # would only hide that
        monkeypatch.setattr(universal, "_FIT_CACHE", {})
        monkeypatch.setattr(
            universal, "structure_constant", lambda lam, mu, nu, n, basis: n * n
        )
        with pytest.raises(ValidationFailure, match="at n=4"):
            fit_triple((1,), (1,), (1,))
