"""Independent builders that the tests hold the package's fast paths against.

jack_power_sums_by_gram_schmidt builds [p_lam] J_rho the slow way, in
exact rationals: the monomials m_mu in power sums (inverting the
triangular [m_lam] p_mu), P_rho by Gram-Schmidt of the m_mu from (1^n)
upwards under <p_lam, p_mu> = delta z_lam alpha^l(lam), and J_rho =
prod over the cells s of (alpha a(s) + l(s) + 1) times P_rho.  It
shares nothing with the Laplace-Beltrami recurrence of
bnhecke.characters but the matrix [m_lam] p_mu and the hook product.
"""

from fractions import Fraction

from bnhecke.characters import _hook_product, _monomial_coefficient, _norms
from bnhecke.partitions import partitions_of

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
