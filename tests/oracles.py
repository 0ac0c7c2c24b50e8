"""Independent builders that the tests hold the package's fast paths against.

jack_power_sums_by_gram_schmidt builds [p_lam] J_rho the slow way, in
exact rationals: the monomials m_mu in power sums (inverting the
triangular [m_lam] p_mu), P_rho by Gram-Schmidt of the m_mu from (1^n)
upwards under <p_lam, p_mu> = delta z_lam alpha^l(lam), and J_rho =
prod over the cells s of (alpha a(s) + l(s) + 1) times P_rho.  It
shares nothing with the Laplace-Beltrami recurrence of
bnhecke.characters but the matrix [m_lam] p_mu and the hook product.

double_coset_sum and lift write K_mu(n), and Z-combinations of them,
as honest elements of Z[S_2n], so a Hecke product can be checked
against the full group-algebra convolution.

_matsumoto_raw computes the Matsumoto image
F(J_1, J_3, ..., J_{2n-1}) * (sum of B_n) by walking the perfect
matchings of [2n]: the element is right-B_n-invariant, so the vector
v = F(J) eps in Z[matchings] determines it, J_k acts on a matching by
sum_{i<k} relabelling with (i k), and the coefficient of K_mu is v at
any matching of type mu.  It is the oracle for
bnhecke.characters.matsumoto_coefficients at n = 5 and 6.
"""

from fractions import Fraction

from bnhecke._backend import _typed_matchings
from bnhecke._symfunc import SymmetricExpression
from bnhecke.characters import _hook_product, _monomial_coefficient, _norms
from bnhecke.cosets import (
    double_coset_size,
    hyperoctahedral_order,
    image_matching,
    matching_type,
)
from bnhecke.errors import NotBiInvariant
from bnhecke.group_algebra import AlgebraElement, b_sum
from bnhecke.hecke import HeckeElement
from bnhecke.partitions import (
    Partition,
    _expand_by_type,
    as_partition,
    check_weight,
    partitions_of,
)

# Matsumoto expressions: e_k with k > n at small levels, p_k, h_k, an
# m_lambda, products, negative coefficients, a constant and an
# expression equal to 0
ORACLE_EXPRS = ["e1", "e3", "e5", "p2", "p3", "h2", "m[2,1]", "e2*e1",
                "e2 - 3*e1*e1", "4", "e1 - e1"]


def jack_power_sums_by_gram_schmidt(n: int, alpha: int) -> list[list[Fraction]]:
    """[p_lam] J_rho for rho and lam in partitions_of(n) order."""
    parts = partitions_of(n)  # (n) first: a linear extension of dominance
    size = len(parts)
    norm = _norms(parts, alpha)
    # p_mu = sum over lam >= mu of [m_lam] p_mu m_lam, so m_mu follows
    # from the m_lam before it
    monomials: list[list[Fraction]] = []
    for i, mu in enumerate(parts):
        m = [Fraction(int(j == i)) for j in range(size)]
        for j in range(i):
            c = _monomial_coefficient(mu, parts[j])
            if c:
                m = [x - c * y for x, y in zip(m, monomials[j])]
        diagonal = _monomial_coefficient(mu, mu)
        monomials.append([x / diagonal for x in m])

    def dot(f, g):
        return sum(x * y * w for x, y, w in zip(f, g, norm))

    jacks: list[list[Fraction]] = []
    done: list[tuple[list[Fraction], Fraction]] = []
    for i in range(size - 1, -1, -1):
        p = monomials[i]
        for q, qq in done:
            c = dot(monomials[i], q) / qq
            if c:
                p = [x - c * y for x, y in zip(p, q)]
        done.append((p, dot(p, p)))
        scale = _hook_product(parts[i], alpha)
        jacks.append([scale * x for x in p])
    return jacks[::-1]


def double_coset_sum(mu: Partition, n: int) -> AlgebraElement:
    """K_mu(n) as an honest element of the level-2n group algebra.

    The sum of x B_n over the matchings delta = x(eps) of type mu,
    tested against the orbit closure.
    """
    mu = as_partition(mu)
    check_weight(mu, n)
    sections: dict[tuple[int, ...], int] = {}
    for delta, lam in _typed_matchings(n):
        if lam == mu:
            # x sends couple j onto the j-th pair of delta, so x(eps) = delta
            x = tuple(p + 1 for a, b in enumerate(delta) if a < b for p in (a, b))
            sections[x] = 1
    return AlgebraElement._raw(2 * n, sections) * b_sum(n)


def lift(u: HeckeElement) -> AlgebraElement:
    """The group-algebra element sum of c_mu K_mu(n)."""
    acc = AlgebraElement.zero(2 * u.level)
    for mu, c in u.coeffs.items():
        acc = acc + double_coset_sum(mu, u.level).scale(c)
    return acc


def _add_jm_image(p: int, u: dict, out: dict) -> None:
    """Add J_{p+1} u to out, u a vector of matchings of 0-based points.

    J_{p+1} = sum over q < p of (q p), and w acts on a matching by
    relabelling its points.  (q p) fixes a matching in which q and p
    are partners; otherwise q takes p's partner and p takes q's.
    """
    get = out.get
    for delta, c in u.items():
        b = delta[p]
        for q in range(p):
            if q == b:
                image = delta
            else:
                a = delta[q]
                mate = list(delta)
                mate[q], mate[b], mate[p], mate[a] = b, q, a, p
                image = tuple(mate)
            out[image] = get(image, 0) + c


def _elementary_images(u: dict, top: int, n: int) -> list[dict]:
    """[e_0 u, ..., e_top u], e_k = e_k(J_1, J_3, ..., J_{2n-1}).

    The product DP over (1 + t J) of group_algebra._elementary_row,
    run on vectors: adding the variable J turns e_j into e_j + J e_{j-1}.
    """
    row = [u] + [{} for _ in range(top)]
    for i in range(1, n):  # J_{2i+1} moves the 0-based point 2i; J_1 = 0
        for j in range(min(top, i), 0, -1):
            _add_jm_image(2 * i, row[j - 1], row[j])
    return row


def _matsumoto_vector(F: SymmetricExpression, n: int) -> dict[tuple[int, ...], int]:
    """v = F(J_1, J_3, ..., J_{2n-1}) eps in Z[perfect matchings of [2n]].

    Each e-monomial acts factor by factor, right to left, on eps; the
    J's commute, so any order gives the same vector.  e_k = 0 for k > n.
    """
    eps = image_matching(range(1, 2 * n + 1))
    v: dict[tuple[int, ...], int] = {}
    for mono, c in F.terms.items():
        u = {eps: 1}
        for k in reversed(mono):
            u = _elementary_images(u, k, n)[k] if k <= n else {}
        for delta, x in u.items():
            v[delta] = v.get(delta, 0) + c * x
    return {delta: x for delta, x in v.items() if x}


def _matsumoto_raw(F: SymmetricExpression, n: int) -> HeckeElement:
    """F(J_1, J_3, ..., J_{2n-1}) * (sum of B_n) read off v = F(J) eps.

    The coefficient of x is v(x(eps)), so the coefficient of K_mu is v
    at any matching of type mu.  v must be constant on, and cover, the
    |K_mu(n)| / |B_n| matchings of each type present, else NotBiInvariant.
    """
    eps = image_matching(range(1, 2 * n + 1))
    order = hyperoctahedral_order(n)
    coeffs = _expand_by_type(
        _matsumoto_vector(F, n), lambda delta: matching_type(eps, delta),
        lambda mu: double_coset_size(mu, n) // order, NotBiInvariant, "matching type",
    )
    return HeckeElement(n, coeffs)
