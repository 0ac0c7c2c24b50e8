from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bnhecke import _backend, group_algebra, universal
from bnhecke.errors import ValidationFailure
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
from oracles import divided_difference_fit

IVP = IntegerValuedPolynomial

# non-integers that operator.index would refuse, and a bool it would not
NOT_INTEGERS = {
    "fraction": Fraction(3),
    "float": 3.0,
    "half": 2.5,
    "bool": True,
    "str": "3",
}


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
        assert ivp_fit([(2, 4), (3, 6), (4, 8)]) == IVP((0, 2))

    def test_constant_fit(self):
        assert ivp_fit([(2, 3), (3, 3)]) == IVP.constant(3)

    def test_overdetermined_consistent(self):
        f = ivp_fit([(n, 2 * n * n) for n in (3, 1, 2, 5, 4)])
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

    @pytest.mark.parametrize(
        "levels",
        [[0, 2], [2, 3, 5], [2, 2, 3, 4], [-1, 0, 1]],
        ids=["gap", "gap-at-the-end", "repeat", "negative"],
    )
    def test_non_consecutive_levels_rejected(self, levels):
        with pytest.raises(ValueError, match="consecutive"):
            ivp_fit([(n, n) for n in levels])

    @pytest.mark.parametrize("bad", NOT_INTEGERS.values(), ids=NOT_INTEGERS.keys())
    def test_non_integer_inputs_raise(self, bad):
        # int() would truncate 2.5 to 2, and .numerator read Fraction(3)
        with pytest.raises(TypeError):
            ivp_fit([(2, bad), (3, 1)])
        with pytest.raises(TypeError):
            ivp_fit([(bad, 1), (4, 1)])
        with pytest.raises(TypeError):
            universal_structure_constant((1,), (1,), (), [bad, 4, 5])

    @given(
        st.integers(0, 8),
        st.lists(st.integers(-(10**6), 10**6), min_size=2, max_size=8),
    )
    def test_arbitrary_data_matches_divided_differences(self, first, values):
        points = [(first + k, v) for k, v in enumerate(values)]
        fitted = ivp_fit(points[::-1])
        assert list(fitted.coeffs) == divided_difference_fit(points)

    @given(
        st.integers(0, 8),
        st.lists(st.integers(-50, 50), max_size=6),
        st.integers(0, 3),
    )
    def test_polynomials_match_divided_differences(self, first, coeffs, extra):
        f = IVP(coeffs)
        size = max(f.degree + 1, 2) + extra
        points = [(n, f(n)) for n in range(first, first + size)]
        assert ivp_fit(points) == f
        assert list(f.coeffs) == divided_difference_fit(points)


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

    def test_zero_above_top_degree(self, monkeypatch):
        f = universal_structure_constant((1,), (1,), (2, 1), [5])
        assert f == IVP.zero()
        # above the top degree every sample is checked against 0, not
        # only the holdout at 6
        monkeypatch.setattr(
            universal, "structure_constant", lambda lam, mu, nu, n, basis: int(n == 5)
        )
        with pytest.raises(ValidationFailure, match="predicts 0 at n=5"):
            universal_structure_constant((1,), (1,), (2, 1), [5])

    def test_class_basis(self):
        f = universal_structure_constant((1,), (1,), (), [2, 3, 4], basis="C")
        assert f == IVP((0, 0, 1))  # class size n(n-1)/2

    def test_explicit_holdout(self, monkeypatch):
        # samples 2, 3, 4 hold out 5, the first level above them: a count
        # that is wrong only there must be caught
        counted = universal.structure_constant
        monkeypatch.setattr(
            universal,
            "structure_constant",
            lambda lam, mu, nu, n, basis: counted(lam, mu, nu, n, basis)
            + (n == 5),
        )
        with pytest.raises(ValidationFailure, match="at n=5"):
            universal_structure_constant((1,), (1,), (), [2, 3, 4])

    def test_non_consecutive_samples_rejected(self):
        with pytest.raises(ValueError, match="consecutive"):
            universal_structure_constant((1,), (1,), (), [2, 3, 5])

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
        assert any(e.nu == (2,) and e.formula == 3 for e in report.entries)

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
        assert all("formula" in e for e in payload["entries"])


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
        # a fit whose samples reach MAX_SAMPLE_LEVEL is held out at the
        # next level on the character path itself; recount each such
        # fit of fit_report(4) there through the independent count of
        # its basis: the matching tally (K, with the oracle's own cap
        # lifted) or the S_n class sweep (C)
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

    @pytest.mark.parametrize("basis", ["K", "C"])
    def test_every_fit_is_read_at_a_holdout(self, basis, monkeypatch):
        # every fitted triple of fit_report(4), the 36 whose samples
        # reach MAX_SAMPLE_LEVEL among them, is counted at a level it
        # was not fitted on
        fitted = universal.universal_structure_constant
        count = universal.structure_constant
        samples, reads = {}, {}

        def fit_spy(lam, mu, nu, sample_ns, **kwargs):
            samples[lam, mu, nu] = set(sample_ns)
            return fitted(lam, mu, nu, sample_ns, **kwargs)

        def count_spy(lam, mu, nu, n, basis):
            reads.setdefault((lam, mu, nu), set()).add(n)
            return count(lam, mu, nu, n, basis)

        monkeypatch.setattr(universal, "_FIT_CACHE", {})
        monkeypatch.setattr(universal, "universal_structure_constant", fit_spy)
        monkeypatch.setattr(universal, "structure_constant", count_spy)
        fits = [r for r in fit_report(4, basis) if r.classification != "UNFITTED"]
        unchecked, at_the_cap = [], 0
        for r in fits:
            # one fit serves both orders of lam and mu
            key = (r.lam, r.mu, r.nu)
            if key not in samples:
                key = (r.mu, r.lam, r.nu)
            at_the_cap += MAX_SAMPLE_LEVEL in samples[key]
            if not reads[key] - samples[key]:
                unchecked.append(key)
        assert (len(fits), at_the_cap) == (65, 36)
        assert not unchecked, unchecked

    def test_a_wrong_value_above_the_samples_raises(self, monkeypatch):
        # ((2,), (1,), (1,)) has degree 2 and floor 3: it samples
        # n = 3, 4, 5 and is held out at 6
        count = universal.structure_constant

        def wrong_at_6(lam, mu, nu, n, basis):
            return count(lam, mu, nu, n, basis) + (n == 6)

        monkeypatch.setattr(universal, "_FIT_CACHE", {})
        monkeypatch.setattr(universal, "structure_constant", wrong_at_6)
        with pytest.raises(ValidationFailure, match="at n=6"):
            fit_triple((2,), (1,), (1,))

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
