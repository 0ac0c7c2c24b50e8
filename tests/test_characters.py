"""The character path against the counts it replaced.

Every structure constant at n <= 6, in both bases, is checked against
an independent count: the matching tally of bnhecke._backend for the
K basis and the S_n class sweep of bnhecke.group_algebra for the C
basis.  The character path serves every level up to
MAX_SPHERICAL_LEVEL, and so do the CLI verbs and suites that read only
it; the tally's cap is lifted to 6 inside the test only.  The Jack
polynomials of the integer recurrence are checked against Gram-Schmidt
in exact rationals (tests/oracles.py) at n <= 8.
"""

from math import comb, prod

import pytest
from oracles import ORACLE_EXPRS, expand, jack_power_sums_by_gram_schmidt

from bnhecke import _backend, characters, group_algebra
from bnhecke._symfunc import SymmetricExpression, elementary
from bnhecke.characters import matsumoto_coefficients, product, structure_constant
from bnhecke.errors import UsageError, ValidationFailure, WeightExceedsLevel
from bnhecke.partitions import (
    MAX_SPHERICAL_LEVEL,
    _power_sum_monomials,
    clear_caches,
    enumerate_by_weight,
    partitions_of,
)

ORACLE_LEVEL = 6


@pytest.fixture
def lifted(monkeypatch, fresh_memos):
    # fresh_memos drops the oracles' level-6 memos when the test ends
    monkeypatch.setattr(_backend, "MAX_TALLY_LEVEL", ORACLE_LEVEL)


@pytest.mark.parametrize("n", range(1, ORACLE_LEVEL + 1))
def test_K_basis_matches_the_matching_tally(n, lifted):
    shapes = enumerate_by_weight(n)
    wrong = {
        (lam, mu, nu): (b, tally.get(mu, 0))
        for lam in shapes
        for nu in shapes
        for tally in [_backend.product_tally(lam, nu, n)]
        for mu in shapes
        for b in [structure_constant(lam, mu, nu, n, "K")]
        if b != tally.get(mu, 0)
    }
    assert not wrong, wrong


@pytest.mark.parametrize("n", range(1, ORACLE_LEVEL + 1))
def test_C_basis_matches_the_class_sweep(n, lifted):
    shapes = enumerate_by_weight(n)
    wrong = {
        (lam, mu, nu): (a, count)
        for lam in shapes
        for mu in shapes
        for nu in shapes
        for count in [group_algebra.class_structure_constant(lam, mu, nu, n)]
        for a in [structure_constant(lam, mu, nu, n, "C")]
        if a != count
    }
    assert not wrong, wrong


@pytest.mark.parametrize("n", [2, 3, 5])
def test_transposition_square(n):
    # K_(1) K_(1) = n(n-1) K_() + K_(1) + 3 K_(2) + 2 K_(1,1), and
    # C_(1) C_(1) = binom(n, 2) C_() + 3 C_(2) + 2 C_(1,1)
    k_want = {(): n * (n - 1), (1,): 1, (2,): 3, (1, 1): 2}
    c_want = {(): n * (n - 1) // 2, (2,): 3, (1, 1): 2}
    for basis, want in (("K", k_want), ("C", c_want)):
        got = product({(1,): 1}, {(1,): 1}, n, basis)
        assert got == {nu: b for nu, b in want.items() if sum(nu) + len(nu) <= n}


def test_level_cap_and_weights(fresh_memos):
    # one cap on the character path: the products go as far as the
    # spherical functions, past the levels the tally counts
    for n in (6, 7, 8):
        assert structure_constant((1,), (1,), (), n, "K") == n * (n - 1)
        assert structure_constant((1,), (1,), (), n, "C") == n * (n - 1) // 2
    for n in (0, MAX_SPHERICAL_LEVEL + 1):
        with pytest.raises(UsageError, match="1 <= n <= 12"):
            structure_constant((), (), (), n, "C")
    with pytest.raises(WeightExceedsLevel):
        structure_constant((2,), (), (), 2, "K")
    with pytest.raises(ValueError):
        structure_constant((1, 2), (), (), 4, "K")
    with pytest.raises(ValueError, match="basis must be 'K' or 'C'"):
        product({(): 1}, {(): 1}, 3, "Q")


def test_one_row_per_pair_level_and_basis(fresh_memos):
    # both orders of a pair read one row; each level and basis has its own
    assert structure_constant((2,), (1,), (2,), 3, "K") == 3
    assert structure_constant((1,), (2,), (1,), 3, "K") == 4
    assert characters._row.cache_info()[:2] == (1, 1)
    structure_constant((1,), (2,), (1,), 4, "K")
    structure_constant((1,), (2,), (1,), 3, "C")
    assert characters._row.cache_info().currsize == 3


@pytest.mark.parametrize(
    "u, error",
    [
        ({(5,): 1}, WeightExceedsLevel),  # weight 6 at level 3
        ({(1,): 1.5}, TypeError),
        ({(1,): True}, TypeError),
        ({(1, 2): 1}, ValueError),
    ],
    ids=["heavy", "float", "bool", "unordered"],
)
def test_product_reads_its_factors(u, error):
    # both factors are read at the boundary, like every other public entry
    with pytest.raises(error):
        product(u, {(): 1}, 3, "K")
    with pytest.raises(error):
        product({(): 1}, u, 3, "C")


def _expand(u, v, n, basis):
    # the bilinear expansion of u v over the rows of the basis elements
    out = {}
    for lam, a in u.items():
        for mu, b in v.items():
            for nu in enumerate_by_weight(n):
                out[nu] = out.get(nu, 0) + a * b * structure_constant(lam, mu, nu, n, basis)
    return {nu: c for nu, c in out.items() if c}


@pytest.mark.parametrize("basis", ["K", "C"])
@pytest.mark.parametrize("n", range(1, ORACLE_LEVEL + 1))
def test_mixed_sign_products_expand_bilinearly(n, basis, rng):
    shapes = enumerate_by_weight(n)

    def draw():
        picked = rng.sample(shapes, rng.randint(1, len(shapes)))
        return {lam: rng.choice([-3, -2, -1, 1, 2, 3]) for lam in picked}

    for _ in range(10):
        u, v = draw(), draw()
        assert product(u, v, n, basis) == _expand(u, v, n, basis), (u, v)


@pytest.mark.parametrize(
    "u, v, match",
    [
        # mixed signs: every quotient stays an integer and no c must be
        # >= 0, so only sum c h = (sum u h)(sum v h) can see it
        ({(2,): 1, (1,): -1}, {(1,): 2}, "covers"),
        # K_(1) K_(1): (2,) is in neither factor, so only c >= 0 sees it
        ({(1,): 1}, {(1,): 1}, "is -3, not a non-negative integer"),
    ],
    ids=["augmentation", "sign"],
)
def test_a_negated_h_trips_a_check(u, v, match, monkeypatch, fresh_memos):
    spherical = characters._spherical
    sph = spherical(3, "K")
    h = list(sph.h)
    h[sph.index[(2,)]] *= -1
    monkeypatch.setattr(
        characters, "_spherical", lambda n, basis: spherical(n, basis)._replace(h=h)
    )
    with pytest.raises(ValidationFailure, match=match):
        product(u, v, 3, "K")


GRAM_SCHMIDT_LEVEL = 8


@pytest.mark.parametrize("alpha", [1, 2])
@pytest.mark.parametrize("n", range(1, GRAM_SCHMIDT_LEVEL + 1))
def test_recurrence_matches_gram_schmidt(n, alpha):
    assert characters._jack_power_sums(n, alpha) == jack_power_sums_by_gram_schmidt(n, alpha)


def test_matsumoto_matches_gram_schmidt(monkeypatch, fresh_memos):
    n = GRAM_SCHMIDT_LEVEL
    exprs = [SymmetricExpression.parse(e) for e in ORACLE_EXPRS]
    want = [matsumoto_coefficients(F, n, "K") for F in exprs]
    clear_caches()
    monkeypatch.setattr(
        characters,
        "_jack_power_sums",
        lambda n, alpha: [
            [int(x) for x in row] for row in jack_power_sums_by_gram_schmidt(n, alpha)
        ],
    )
    got = [matsumoto_coefficients(F, n, "K") for F in exprs]
    wrong = {e: (g, w) for e, g, w in zip(ORACLE_EXPRS, got, want) if g != w}
    assert not wrong, wrong


EXPANSION_LEVEL = 8
# every expression within the former e-basis caps (degree <= 20, m_lam
# of degree <= 8)
_EXPANDED_EXPRS = [
    *ORACLE_EXPRS,
    *(f"{g}{k}" for g in "eph" for k in range(1, 21)),
    *(
        f"m[{','.join(map(str, lam))}]"
        for d in range(EXPANSION_LEVEL + 1)
        for lam in partitions_of(d)
    ),
]


def _expansion_misses(basis):
    """(images compared, misses) over every n <= EXPANSION_LEVEL: a miss
    is an (expression, n) at which the image read off F's values differs
    from the image of expand(F), the e-basis expansion of tests/oracles.py,
    which sums its e-monomials over the product DP of the e_k."""
    checked, misses = 0, []
    for text in _EXPANDED_EXPRS:
        F = SymmetricExpression.parse(text)
        E = expand(F)
        for n in range(1, EXPANSION_LEVEL + 1):
            checked += 1
            if matsumoto_coefficients(F, n, basis) != matsumoto_coefficients(E, n, basis):
                misses.append((text, n))
    return checked, misses


@pytest.mark.parametrize("basis", ["K", "C"])
def test_values_match_the_e_basis_expansion(basis):
    # the check that catches a damaged DP is the first miss: h_k with its
    # DP run downwards computes e_k, and h2 misses from n = 2 on; an m_lam
    # DP that places equal parts as distinct counts each ordering of them
    # twice, and m[1,1] misses from n = 3 on (every alphabet holds a 0)
    assert _expansion_misses(basis) == (8 * len(_EXPANDED_EXPRS), [])


@pytest.mark.parametrize("basis", ["K", "C"])
def test_images_past_the_former_caps(basis):
    # past the former degree caps: against the e-basis expansion where it
    # is cheap, and at n = 12, where it is not, as a ring map: the image
    # of F^2 is the product of the image of F with itself
    for text in ("m[5,4]", "m[9]", "m[3,3,3]", "e1^25"):
        F = SymmetricExpression.parse(text)
        for n in range(1, EXPANSION_LEVEL + 1):
            assert matsumoto_coefficients(F, n, basis) == matsumoto_coefficients(
                expand(F), n, basis
            ), (text, n)
    n = MAX_SPHERICAL_LEVEL
    for half in ("p12^6", "m[5,4]"):
        image = matsumoto_coefficients(SymmetricExpression.parse(half), n, basis)
        square = matsumoto_coefficients(SymmetricExpression.parse(f"({half})^2"), n, basis)
        assert product(image, image, n, basis) == square, half


def _damaged(monkeypatch, edit):
    build = characters._jack_monomials

    def damaged(n, alpha):
        jacks = build(n, alpha)
        edit(jacks)
        return jacks

    monkeypatch.setattr(characters, "_jack_monomials", damaged)


def test_non_integral_theta_raises(monkeypatch, fresh_memos):
    # [m_(1,1,1)] J_(3) off by one: theta_(3)((1,1,1)) is that over 3!
    def bump(jacks):
        jacks[0][-1] += 1

    _damaged(monkeypatch, bump)
    with pytest.raises(ValidationFailure, match="not integral"):
        product({(): 1}, {(): 1}, 3, "K")


def test_recurrence_divides_exactly(monkeypatch, fresh_memos):
    # [m_rho] J_rho off by one: the next coefficient down is not an integer
    hooks = characters._hook_product
    monkeypatch.setattr(
        characters, "_hook_product", lambda rho, alpha: hooks(rho, alpha) + 1
    )
    with pytest.raises(ValidationFailure, match="does not divide exactly"):
        product({(): 1}, {(): 1}, 2, "K")


def test_wrong_dimension_raises(monkeypatch, fresh_memos):
    monkeypatch.setattr(characters, "_dimension", lambda rho: 7)
    with pytest.raises(ValidationFailure, match="hook-length dimension"):
        product({(): 1}, {(): 1}, 2, "C")


def test_sign_flip_breaks_the_constants(monkeypatch, fresh_memos):
    # -J_rho keeps theta integral and <J, J> unchanged, but the cube
    # theta^3 changes sign, so some b goes fractional or negative
    def negate(jacks):
        jacks[0][:] = [-x for x in jacks[0]]

    _damaged(monkeypatch, negate)
    shapes = enumerate_by_weight(3)
    with pytest.raises(ValidationFailure, match="non-negative integer"):
        for lam in shapes:
            for mu in shapes:
                product({lam: 1}, {mu: 1}, 3, "K")


def test_one_spherical_step_serves_both(fresh_memos):
    row = product({(1,): 1}, {(1,): 1}, 3, "K")
    assert characters._spherical.cache_info().misses == 1
    # e_1 lands on H_2, the K_mu(3) with |mu| = 1
    assert matsumoto_coefficients(elementary(1), 3, "K") == {(1,): 1}
    assert characters._spherical.cache_info()[:2] == (1, 1)
    assert product({(1,): 1}, {(1,): 1}, 3, "K") == row
    assert characters._spherical.cache_info()[:2] == (2, 1)


def test_matsumoto_level_cap():
    assert MAX_SPHERICAL_LEVEL == 12
    with pytest.raises(UsageError, match="1 <= n <= 12"):
        matsumoto_coefficients(elementary(1), 13, "K")


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


def _catalan_misses(basis):
    """The image of h_k, k < MAX_SPHERICAL_LEVEL, at every level up to
    the cap held to its top degree: no term has |mu| > k, and
    [X_mu] h_k = prod_i Cat(mu_i) when |mu| = k (Matsumoto 2011 for K,
    Matsumoto-Novak 2013 for C).  (comparisons, misses)."""
    checked, misses = 0, []
    for n in range(1, MAX_SPHERICAL_LEVEL + 1):
        for k in range(1, MAX_SPHERICAL_LEVEL):
            image = matsumoto_coefficients(SymmetricExpression.parse(f"h{k}"), n, basis)
            misses += [(n, k, mu) for mu in image if sum(mu) > k]
            for mu in enumerate_by_weight(n):
                if sum(mu) == k:
                    checked += 1
                    if image.get(mu, 0) != prod(comb(2 * m, m) // (m + 1) for m in mu):
                        misses.append((n, k, mu))
    return checked, misses


@pytest.mark.parametrize("basis", ["K", "C"])
def test_top_degree_of_h_is_catalan(basis):
    assert _catalan_misses(basis) == (259, [])


def _cycle_count_misses(basis):
    """The image of e_k at n = 2..MAX_SPHERICAL_LEVEL, k = 0..n, against
    the sum of the X_mu with |mu| = k: H_{n-k} for K (Matsumoto 2011),
    Z_{n-k} for C.  (comparisons, misses)."""
    checked, misses = 0, []
    for n in range(2, MAX_SPHERICAL_LEVEL + 1):
        for k in range(n + 1):
            checked += 1
            want = {mu: 1 for mu in enumerate_by_weight(n) if sum(mu) == k}
            if matsumoto_coefficients(elementary(k), n, basis) != want:
                misses.append((n, k))
    return checked, misses


@pytest.mark.parametrize("basis", ["K", "C"])
def test_catalan_check_sees_negated_contents(basis, monkeypatch):
    # negated contents stay integral and pass every check of the path;
    # a uniform shift of them would move only the lower degrees.  The
    # e_k identity of the matsumoto and jm-center suites sees them too
    assert _cycle_count_misses(basis) == (88, [])
    contents = characters._contents
    monkeypatch.setattr(
        characters, "_contents", lambda rho, basis: [-a for a in contents(rho, basis)]
    )
    checked, misses = _catalan_misses(basis)
    assert checked == 259 and len(misses) == 127
    checked, misses = _cycle_count_misses(basis)
    assert checked == 88 and len(misses) == 36
