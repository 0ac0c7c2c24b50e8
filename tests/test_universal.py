from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bnhecke import _backend, characters, group_algebra, universal
from bnhecke.characters import structure_constant
from bnhecke.errors import ValidationFailure
from bnhecke.hecke import HeckeElement, _admissible_terms
from bnhecke.partitions import enumerate_by_weight, weight
from bnhecke.suites import run_suite
from bnhecke.universal import (
    MAX_SAMPLE_LEVEL,
    FitResult,
    IntegerValuedPolynomial,
    fit_report,
    fit_triple,
    ivp_fit,
    universal_structure_constant,
)
from oracles import divided_difference_fit

IVP = IntegerValuedPolynomial


def _count_rows(monkeypatch, count):
    """Make the fits read b_{lam mu}^nu(n) from count(lam, mu, nu, n,
    basis) in place of the character rows."""
    monkeypatch.setattr(universal, "_row", lambda lam, mu, n, basis: {
        nu: count(lam, mu, nu, n, basis) for nu in enumerate_by_weight(n)
    })


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
        assert IVP((7,)).degree == 0
        assert IVP((7,))(123) == 7
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

    def test_evaluation_reads_only_integers(self):
        # n is read as the integer it must be: 2.0 gave 3.0, True gave 1
        # and 2.5 raised ValidationFailure
        for poly, n in ((IVP((0, 1, 1)), 2.0), (IVP((1,)), True), (IVP((0, 1)), 2.5)):
            with pytest.raises(TypeError):
                poly(n)

    def test_comparison_with_int(self):
        assert IVP((4,)) == 4
        assert IVP((0, 1)) != 4
        assert hash(IVP((1, 0))) == hash(IVP((1,)))

    def test_a_bool_compares_unequal(self):
        # as SymmetricExpression.one() == True is False: a bool is not
        # read as the constant 0 or 1, and comparing does not raise
        assert (IVP((1,)) == True) is False  # noqa: E712
        assert IVP.zero() != False  # noqa: E712

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
        assert ivp_fit([(2, 3), (3, 3)]) == IVP((3,))

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
        ) == IVP((3,))
        assert universal_structure_constant(
            (1,), (1,), (1, 1), [4, 5]
        ) == IVP((2,))

    def test_zero_above_top_degree(self, monkeypatch):
        f = universal_structure_constant((1,), (1,), (2, 1), [5])
        assert f == IVP.zero()
        # above the top degree every sample is checked against 0, not
        # only the holdout at 6
        _count_rows(monkeypatch, lambda lam, mu, nu, n, basis: int(n == 5))
        with pytest.raises(ValidationFailure, match="predicts 0 at n=5"):
            universal_structure_constant((1,), (1,), (2, 1), [5])

    def test_class_basis(self):
        f = universal_structure_constant((1,), (1,), (), [2, 3, 4], basis="C")
        assert f == IVP((0, 0, 1))  # class size n(n-1)/2

    def test_explicit_holdout(self, monkeypatch):
        # samples 2, 3, 4 hold out 5, the first level above them: a count
        # that is wrong only there must be caught
        _count_rows(
            monkeypatch,
            lambda lam, mu, nu, n, basis: structure_constant(lam, mu, nu, n, basis)
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
    """The graded-iso suite holds the single-cycle closed form against
    the top coefficients of C_lam C_(r) and K_lam K_(r)."""

    def test_small_window_agrees(self):
        # wt <= 2 at n = 4, read directly in both bases
        terms = [
            (lam, nu, b) for lam in enumerate_by_weight(2) for _, nu, b in _admissible_terms(lam, 1)
        ]
        for lam, nu, b in terms:
            assert structure_constant(lam, (1,), nu, 4, "C") == b
            assert structure_constant(lam, (1,), nu, 4, "K") == b
        assert ((1,), (2,), 3) in terms

    def test_heavy_targets_skip_brute_force(self):
        # at n = 3 some closed-form targets are too heavy to exist: the
        # suite counts them but reads no structure constant for them,
        # which would raise WeightExceedsLevel
        targets = [
            nu for lam in enumerate_by_weight(3) for r in (1, 2) for _, nu, _ in _admissible_terms(lam, r)
        ]
        assert any(weight(nu) > 3 for nu in targets)
        assert run_suite("graded-iso", [3], None) == (
            {
                "suite": "graded-iso",
                "levels": [3],
                "backend": "pure",
                "ok": True,
                "checks": [
                    {
                        "name": f"graded top coefficients agree (wt<=3, n=3, {len(targets)} triples)",
                        "ok": True,
                    }
                ],
            },
            0,
        )

    @pytest.mark.usefixtures("fresh_memos")
    def test_json(self, monkeypatch):
        # one C-basis constant off by 1: the detail is the mismatched
        # entry, printed as a dict
        row = characters._row

        def off_by_one(lam, mu, n, basis):
            out = row(lam, mu, n, basis)
            if basis == "C" and (lam, mu) == ((1,), (1,)):
                out = {**out, (2,): out[(2,)] + 1}
            return out

        monkeypatch.setattr(characters, "_row", off_by_one)
        payload, status = run_suite("graded-iso", [4], None)
        assert status == 1
        assert payload["checks"] == [
            {
                "name": "graded top coefficients agree (wt<=4, n=4, 30 triples)",
                "ok": False,
                "detail": "{'lam': [1], 'r': 1, 'rho': [1], 'nu': [2], 'formula': 3, "
                "'brute_center': 4, 'brute_hecke': 3, 'ok': False}",
            }
        ]


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
    @pytest.mark.usefixtures("fresh_memos")
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
    @pytest.mark.usefixtures("fresh_memos")
    def test_every_fit_is_read_at_a_holdout(self, basis, monkeypatch):
        # every fitted triple of fit_report(4), the 36 whose samples
        # reach MAX_SAMPLE_LEVEL among them, is counted at a level it
        # was not fitted on
        fitted = universal.universal_structure_constant
        row = universal._row
        samples, reads = {}, {}

        def fit_spy(lam, mu, nu, sample_ns, **kwargs):
            samples[lam, mu, nu] = set(sample_ns)
            return fitted(lam, mu, nu, sample_ns, **kwargs)

        class ReadRow(dict):
            # a row that logs the level of each coefficient read from it
            def __init__(self, lam, mu, n, basis):
                super().__init__(row(lam, mu, n, basis))
                self.lam, self.mu, self.n = lam, mu, n

            def get(self, nu, default=None):
                reads.setdefault((self.lam, self.mu, nu), set()).add(self.n)
                return super().get(nu, default)

        monkeypatch.setattr(universal, "universal_structure_constant", fit_spy)
        monkeypatch.setattr(universal, "_row", ReadRow)
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

    @pytest.mark.usefixtures("fresh_memos")
    def test_a_wrong_value_above_the_samples_raises(self, monkeypatch):
        # ((2,), (1,), (1,)) has degree 2 and floor 3: it samples
        # n = 3, 4, 5 and is held out at 6
        def wrong_at_6(lam, mu, nu, n, basis):
            return structure_constant(lam, mu, nu, n, basis) + (n == 6)

        _count_rows(monkeypatch, wrong_at_6)
        with pytest.raises(ValidationFailure, match="at n=6"):
            fit_triple((2,), (1,), (1,))

    @pytest.mark.usefixtures("fresh_memos")
    def test_a_fit_above_the_degree_bound_raises(self, monkeypatch):
        # 3 + n on the top-degree triple ((1,), (1,), (2,)): two samples
        # fit it exactly and the holdout agrees, but its degree 1 is
        # above the bound 0 that the sample count relies on
        def linear(lam, mu, nu, n, basis):
            if (lam, mu, nu) == ((1,), (1,), (2,)):
                return 3 + n
            return structure_constant(lam, mu, nu, n, basis)

        _count_rows(monkeypatch, linear)
        with pytest.raises(ValidationFailure, match="has degree 1, above the bound 0"):
            fit_triple((1,), (1,), (2,))

    @pytest.mark.usefixtures("fresh_memos")
    def test_missed_holdout_raises(self, monkeypatch):
        # n^2 has degree 2, above the bound 1 for ((1,), (1,), (1,)): the
        # fit on n = 2, 3 misses the holdout at 4, and more samples
        # would only hide that
        _count_rows(monkeypatch, lambda lam, mu, nu, n, basis: n * n)
        with pytest.raises(ValidationFailure, match="at n=4"):
            fit_triple((1,), (1,), (1,))
