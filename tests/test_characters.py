"""The character path against the counts it replaced.

Every structure constant at n <= 6, in both bases, is checked against
an independent count: the matching tally of bnhecke._backend for the
K basis and the S_n class sweep of bnhecke.group_algebra for the C
basis.  The character path serves every level up to
MAX_SPHERICAL_LEVEL; the tally's cap is lifted to 6 inside the test
only, and the CLI serves n <= 5.  The Jack polynomials
of the integer recurrence are checked against Gram-Schmidt in exact
rationals (tests/oracles.py) at n <= 8.
"""

import pytest
from oracles import ORACLE_EXPRS, jack_power_sums_by_gram_schmidt

from bnhecke import _backend, characters, group_algebra
from bnhecke._symfunc import SymmetricExpression, elementary
from bnhecke.characters import (
    MAX_SPHERICAL_LEVEL,
    matsumoto_coefficients,
    structure_constant,
    structure_constants,
)
from bnhecke.cli import MAX_MATSUMOTO_LEVEL
from bnhecke.errors import UsageError, ValidationFailure, WeightExceedsLevel
from bnhecke.partitions import _power_sum_monomials, enumerate_by_weight

ORACLE_LEVEL = 6


@pytest.fixture
def fresh(monkeypatch):
    """Empty memos, so a damaged build is not served from the cache."""
    monkeypatch.setattr(characters, "_SPHERICAL", {})
    monkeypatch.setattr(characters, "_TABLES", {})


@pytest.fixture
def lifted(monkeypatch, fresh):
    monkeypatch.setattr(_backend, "MAX_TALLY_LEVEL", ORACLE_LEVEL)
    # the oracles' level-6 memos go when the test ends
    for module, memo in (
        (_backend, "_TALLIES"),
        (_backend, "_MATCHINGS"),
        (group_algebra, "_CLASS_TABLES"),
        (group_algebra, "_CLASS_PRODUCTS"),
    ):
        monkeypatch.setattr(module, memo, {})


@pytest.mark.parametrize("n", range(1, ORACLE_LEVEL + 1))
def test_K_basis_matches_the_matching_tally(n, lifted):
    table = structure_constants(n, "K")
    shapes = enumerate_by_weight(n)
    wrong = {
        (lam, mu, nu): (table[lam, mu].get(nu, 0), tally.get(mu, 0))
        for lam in shapes
        for nu in shapes
        for tally in [_backend.product_tally(lam, nu, n)]
        for mu in shapes
        if table[lam, mu].get(nu, 0) != tally.get(mu, 0)
    }
    assert not wrong, wrong


@pytest.mark.parametrize("n", range(1, ORACLE_LEVEL + 1))
def test_C_basis_matches_the_class_sweep(n, lifted):
    table = structure_constants(n, "C")
    shapes = enumerate_by_weight(n)
    wrong = {
        (lam, mu, nu): (table[lam, mu].get(nu, 0), count)
        for lam in shapes
        for mu in shapes
        for nu in shapes
        for count in [group_algebra.class_structure_constant(lam, mu, nu, n)]
        if table[lam, mu].get(nu, 0) != count
    }
    assert not wrong, wrong


@pytest.mark.parametrize("n", [2, 3, 5])
def test_transposition_square(n):
    # K_(1) K_(1) = n(n-1) K_() + K_(1) + 3 K_(2) + 2 K_(1,1), and
    # C_(1) C_(1) = binom(n, 2) C_() + 3 C_(2) + 2 C_(1,1)
    k_want = {(): n * (n - 1), (1,): 1, (2,): 3, (1, 1): 2}
    c_want = {(): n * (n - 1) // 2, (2,): 3, (1, 1): 2}
    for basis, want in (("K", k_want), ("C", c_want)):
        got = structure_constants(n, basis)[(1,), (1,)]
        assert got == {nu: b for nu, b in want.items() if sum(nu) + len(nu) <= n}


def test_level_cap_and_weights(fresh):
    # one cap on the character path: the tables go as far as the
    # spherical functions, past the CLI's n <= 5
    for n in (6, 7, 8):
        assert structure_constants(n, "K")[(1,), (1,)][()] == n * (n - 1)
        assert structure_constants(n, "C")[(1,), (1,)][()] == n * (n - 1) // 2
    for n in (0, MAX_SPHERICAL_LEVEL + 1):
        with pytest.raises(UsageError, match="1 <= n <= 12"):
            structure_constant((), (), (), n, "C")
    with pytest.raises(WeightExceedsLevel):
        structure_constant((2,), (), (), 2, "K")
    with pytest.raises(ValueError):
        structure_constant((1, 2), (), (), 4, "K")
    with pytest.raises(ValueError, match="basis must be 'K' or 'C'"):
        structure_constants(3, "Q")


def test_one_table_per_level_and_alpha(fresh):
    first = structure_constants(3, "K")
    assert structure_constants(3, "K") is first
    assert structure_constants(3, "C") is not first
    assert set(characters._TABLES) == {(3, 2), (3, 1)}


GRAM_SCHMIDT_LEVEL = 8


@pytest.mark.parametrize("alpha", [1, 2])
@pytest.mark.parametrize("n", range(1, GRAM_SCHMIDT_LEVEL + 1))
def test_recurrence_matches_gram_schmidt(n, alpha):
    assert characters._jack_power_sums(n, alpha) == jack_power_sums_by_gram_schmidt(n, alpha)


def test_matsumoto_matches_gram_schmidt(monkeypatch, fresh):
    n = GRAM_SCHMIDT_LEVEL
    exprs = [SymmetricExpression.parse(e) for e in ORACLE_EXPRS]
    want = [matsumoto_coefficients(F, n) for F in exprs]
    monkeypatch.setattr(characters, "_SPHERICAL", {})
    monkeypatch.setattr(
        characters,
        "_jack_power_sums",
        lambda n, alpha: [
            [int(x) for x in row] for row in jack_power_sums_by_gram_schmidt(n, alpha)
        ],
    )
    got = [matsumoto_coefficients(F, n) for F in exprs]
    wrong = {e: (g, w) for e, g, w in zip(ORACLE_EXPRS, got, want) if g != w}
    assert not wrong, wrong


def _damaged(monkeypatch, edit):
    build = characters._jack_monomials

    def damaged(n, alpha):
        jacks = build(n, alpha)
        edit(jacks)
        return jacks

    monkeypatch.setattr(characters, "_jack_monomials", damaged)


def test_non_integral_theta_raises(monkeypatch, fresh):
    # [m_(1,1,1)] J_(3) off by one: theta_(3)((1,1,1)) is that over 3!
    def bump(jacks):
        jacks[0][-1] += 1

    _damaged(monkeypatch, bump)
    with pytest.raises(ValidationFailure, match="not integral"):
        structure_constants(3, "K")


def test_recurrence_divides_exactly(monkeypatch, fresh):
    # [m_rho] J_rho off by one: the next coefficient down is not an integer
    hooks = characters._hook_product
    monkeypatch.setattr(
        characters, "_hook_product", lambda rho, alpha: hooks(rho, alpha) + 1
    )
    with pytest.raises(ValidationFailure, match="does not divide exactly"):
        structure_constants(2, "K")


def test_wrong_dimension_raises(monkeypatch, fresh):
    monkeypatch.setattr(characters, "_dimension", lambda rho: 7)
    with pytest.raises(ValidationFailure, match="hook-length dimension"):
        structure_constants(2, "C")


def test_sign_flip_breaks_the_constants(monkeypatch, fresh):
    # -J_rho keeps theta integral and <J, J> unchanged, but the cube
    # theta^3 changes sign, so some b goes fractional or negative
    def negate(jacks):
        jacks[0][:] = [-x for x in jacks[0]]

    _damaged(monkeypatch, negate)
    with pytest.raises(ValidationFailure, match="non-negative integer"):
        structure_constants(3, "K")


def test_one_spherical_step_serves_both(fresh):
    table = structure_constants(3, "K")
    assert set(characters._SPHERICAL) == {(3, 2)}
    # e_1 lands on H_2, the K_mu(3) with |mu| = 1
    assert matsumoto_coefficients(elementary(1), 3) == {(1,): 1}
    assert set(characters._SPHERICAL) == {(3, 2)}
    assert structure_constants(3, "K") is table


def test_matsumoto_level_cap():
    assert MAX_MATSUMOTO_LEVEL == MAX_SPHERICAL_LEVEL == 12
    with pytest.raises(UsageError, match="1 <= n <= 12"):
        matsumoto_coefficients(elementary(1), 13)


def test_one_matrix_build_serves_both_alphas():
    # [m_mu] p_lam does not depend on alpha: the second alpha only reads
    # the rows the first one built
    _power_sum_monomials.cache_clear()
    characters._jack_power_sums(8, 2)
    built = _power_sum_monomials.cache_info()
    characters._jack_power_sums(8, 1)
    again = _power_sum_monomials.cache_info()
    assert built.misses > 0
    assert again.misses == built.misses
    assert again.hits > built.hits
