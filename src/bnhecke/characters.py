"""Structure constants of both bases from Jack polynomials.

(S_2n, B_n) and (S_n x S_n, diag S_n) are Gelfand pairs, and the
spherical functions of both come from the Jack polynomials J_rho, rho
a partition of n: alpha = 2 gives the zonal polynomials and the
double-coset basis K, alpha = 1 the Schur functions and the class
basis C of Z[S_n] (Macdonald, Symmetric Functions and Hall Polynomials,
VI.10 and VII.2; Goulden-Jackson 1996).  A stable type lam stands for
its completion at level n, a partition of n.  With

    theta_rho(lam) = [p_lam] J_rho                       (an integer),
    h_lam = alpha^n n! / (z_lam alpha^l(lam))            (matchings of [2n]
            of type lam for K, the size of the class lam for C),
    W_rho = alpha^n n! / <J_rho, J_rho>,

the structure constant is

    b_{lam mu}^nu(n) = sum_rho W_rho theta_rho(lam) theta_rho(mu) theta_rho(nu) / h_nu.

W_rho N is an integer, N = (2n-1)!! for K and n! for C: the dimension
of the character 2rho of S_2n, or (dim rho)^2.  So the sum is taken in
integers and divided by N h_nu once.

The odd Jucys-Murphy elements act on the zonal spherical function
omega^rho_lam = theta_rho(lam) / h_lam by the 2-contents
A_rho = {2(j-1) - (i-1) : (i, j) in rho} (Zinn-Justin 2010;
Matsumoto 2011), so the Matsumoto image is

    F(J_1, J_3, ..., J_{2n-1}) * (sum of B_n) = sum_kappa c_kappa K_kappa(n),
    c_kappa = sum_rho W_rho F(A_rho) omega^rho_kappa,

taken in integers the same way.

J_rho is built in integers, in two triangular steps.  Its monomial
coefficients come from the Laplace-Beltrami recurrence, which walks
down dominance from [m_rho] J_rho = prod over the cells s of
(alpha a(s) + l(s) + 1) (Stanley 1989; Demmel-Koev 2006; see
_jack_monomials).  Its power-sum coefficients theta follow by back
substitution from (1^n) upwards through the integer matrix
[m_mu] p_lam of partitions._power_sum_monomials, built once per lam by
the Pieri rule for p_k m_nu and shared by both alphas.  Every division
is exact or raises ValidationFailure.  The spherical functions (theta, h
and W_rho N) are built for 1 <= n <= MAX_SPHERICAL_LEVEL, the one level
cap of this path, and kept per (n, alpha), checked as they are built:
theta is integral and W_rho N is the hook-length dimension.  The table
of every b is kept per (n, alpha) on top of them, checked as it is
built: every b is a non-negative integer and sum_nu b h_nu =
h_lam h_mu; so is every Matsumoto c_kappa an integer.  The counts
this replaces, the matching tally (bnhecke._backend) and the S_n
class sweep (bnhecke.group_algebra), are the tests' oracles for it.
So are, in tests/oracles.py, the walk over perfect matchings for the
Matsumoto image, Gram-Schmidt of the monomials for the Jack
polynomials and a DP per pair for [m_mu] p_lam.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate
from math import factorial, prod
from operator import mul

from .errors import UsageError, ValidationFailure
from .partitions import (
    Partition,
    _power_sum_monomials,
    as_partition,
    check_weight,
    partitions_of,
    z_value,
)

__all__ = [
    "MAX_SPHERICAL_LEVEL",
    "matsumoto_coefficients",
    "structure_constant",
    "structure_constants",
]

# the highest level whose spherical functions, and so whose tables of
# structure constants and Matsumoto images, are built: the integer
# recurrence takes 0.12 s at n = 12 and 0.5 s at n = 14 (one alpha,
# 2-CPU machine)
MAX_SPHERICAL_LEVEL = 12

# basis -> (alpha, N(n))
_BASES = {
    "K": (2, lambda n: prod(range(1, 2 * n, 2))),
    "C": (1, factorial),
}

Table = dict[tuple[Partition, Partition], dict[Partition, int]]


def _basis(basis: str):
    """(alpha, N) of a basis; ValueError for a basis other than "K" or "C"."""
    if basis not in _BASES:
        raise ValueError(f"basis must be 'K' or 'C', got {basis!r}")
    return _BASES[basis]


class Spherical(namedtuple("Spherical", "parts types theta h dims big_n")):
    """The spherical functions of one basis at level n, by index into
    partitions_of(n): parts[i] and its stable type types[i],
    theta[rho][lam] = theta_rho(lam), h[lam], dims[rho] = W_rho N, and N."""

    __slots__ = ()


_SPHERICAL: dict[tuple[int, int], Spherical] = {}
_TABLES: dict[tuple[int, int], Table] = {}


def _cells(rho: Partition) -> list[tuple[int, int]]:
    """(arm, leg) of every cell of the diagram of rho."""
    cols = [sum(1 for p in rho if p > j) for j in range(rho[0] if rho else 0)]
    return [(row - j - 1, cols[j] - i - 1) for i, row in enumerate(rho) for j in range(row)]


def _hook_product(rho: Partition, alpha: int) -> int:
    """prod over the cells s of rho of (alpha a(s) + l(s) + 1): [m_rho] J_rho."""
    return prod(alpha * a + l + 1 for a, l in _cells(rho))


def _dimension(rho: Partition) -> int:
    """The degree of the irreducible character rho of S_|rho| (hook lengths)."""
    return factorial(sum(rho)) // _hook_product(rho, 1)


def _dominates(lam: Partition, mu: Partition) -> bool:
    """lam >= mu in dominance order, for two partitions of one n."""
    return all(a >= b for a, b in zip(accumulate(lam), accumulate(mu)))


def _norms(parts: list[Partition], alpha: int) -> list[int]:
    """<p_lam, p_lam> = z_lam alpha^l(lam) for each lam of parts."""
    return [z_value(lam) * alpha ** len(lam) for lam in parts]


def _raisings(parts: list[Partition]) -> list[list[tuple[int, int]]]:
    """For each mu of parts, the nu that move t = 1..mu_j from row j of
    mu to a row i < j, as (index of nu, sum of mu_i - mu_j + 2t)."""
    index = {p: k for k, p in enumerate(parts)}
    out = []
    for mu in parts:
        up: dict[int, int] = {}
        for j in range(1, len(mu)):
            for i in range(j):
                for t in range(1, mu[j] + 1):
                    nu = [*mu[:i], mu[i] + t, *mu[i + 1 : j], mu[j] - t, *mu[j + 1 :]]
                    k = index[tuple(sorted((p for p in nu if p), reverse=True))]
                    up[k] = up.get(k, 0) + mu[i] - mu[j] + 2 * t
        out.append(sorted(up.items()))
    return out


def _jack_monomials(n: int, alpha: int) -> list[list[int]]:
    """[m_mu] J_rho for rho and mu in partitions_of(n) order.

    J_rho is an eigenfunction of the Laplace-Beltrami operator, which
    on monomials only raises in dominance (Stanley 1989, section 3), so
    below c_{rho rho} = prod_s (alpha a(s) + l(s) + 1)

        c_{rho mu} = 2 sum (mu_i - mu_j + 2t) c_{rho nu} / (e_rho - e_mu),
        e_mu = sum_i mu_i (alpha (mu_i - 1) - 2 (i - 1)),

    over the nu of _raisings, for the mu < rho; every other c is 0.
    Every c is an integer (J_rho has integral monomial coefficients),
    so a division that leaves a remainder raises ValidationFailure.
    """
    parts = partitions_of(n)  # (n) first: a linear extension of dominance
    up = _raisings(parts)
    eigen = [sum(p * (alpha * (p - 1) - 2 * i) for i, p in enumerate(mu)) for mu in parts]
    jacks = []
    for r, rho in enumerate(parts):
        c = [0] * len(parts)
        c[r] = _hook_product(rho, alpha)
        for m in range(r + 1, len(parts)):
            if _dominates(rho, parts[m]):
                total = 2 * sum(w * c[k] for k, w in up[m])
                c[m], rem = divmod(total, eigen[r] - eigen[m])
                if rem:
                    raise ValidationFailure(
                        f"[m_{parts[m]}] J_{rho} at alpha = {alpha} is "
                        f"{total}/{eigen[r] - eigen[m]}: the recurrence does not "
                        f"divide exactly"
                    )
        jacks.append(c)
    return jacks


def _jack_power_sums(n: int, alpha: int) -> list[list[int]]:
    """theta: [p_lam] J_rho for rho and lam in partitions_of(n) order.

    [m_mu] J_rho = sum over lam <= mu of [p_lam] J_rho [m_mu] p_lam, so
    back substitution from (1^n) upwards gives theta; a theta that is
    not an integer raises ValidationFailure.
    """
    parts = partitions_of(n)
    size = len(parts)
    index = {p: k for k, p in enumerate(parts)}
    # column m of [m_mu] p_lam below the diagonal, as (lam index, entry)
    below: list[list[tuple[int, int]]] = [[] for _ in parts]
    for k, lam in enumerate(parts):
        for mu, c in _power_sum_monomials(lam).items():
            if mu != lam:
                below[index[mu]].append((k, c))
    diagonal = [_power_sum_monomials(mu)[mu] for mu in parts]
    thetas = []
    for rho, c in zip(parts, _jack_monomials(n, alpha)):
        theta = [0] * size
        for m in range(size - 1, -1, -1):
            rest = c[m] - sum(theta[k] * x for k, x in below[m])
            theta[m], rem = divmod(rest, diagonal[m])
            if rem:
                raise ValidationFailure(
                    f"theta_{rho} at n = {n}, alpha = {alpha} is not integral: "
                    f"[p_{parts[m]}] J_{rho} = {rest}/{diagonal[m]}"
                )
        thetas.append(theta)
    return thetas


def _spherical(n: int, basis: str) -> Spherical:
    """The checked spherical functions of one basis at level n."""
    alpha, size = _basis(basis)
    if not 1 <= n <= MAX_SPHERICAL_LEVEL:
        raise UsageError(
            f"spherical functions are built for 1 <= n <= {MAX_SPHERICAL_LEVEL}, "
            f"not n = {n}"
        )
    if (n, alpha) in _SPHERICAL:
        return _SPHERICAL[n, alpha]
    parts = partitions_of(n)
    theta = _jack_power_sums(n, alpha)
    norm = _norms(parts, alpha)
    total = alpha**n * factorial(n)
    dims = []
    for rho, row in zip(parts, theta):
        # W_rho N = total N / <J_rho, J_rho>
        inner = sum(x * x * w for x, w in zip(row, norm))
        want = _dimension(tuple(2 * p for p in rho)) if alpha == 2 else _dimension(rho) ** 2
        if want * inner != total * size(n):
            raise ValidationFailure(
                f"W_{rho} N at n = {n}, alpha = {alpha} is {total * size(n)}/{inner}, "
                f"not the hook-length dimension {want}"
            )
        dims.append(want)
    _SPHERICAL[n, alpha] = Spherical(
        parts=parts,
        types=[tuple(p - 1 for p in lam if p > 1) for lam in parts],
        theta=theta,
        h=[total // w for w in norm],
        dims=dims,
        big_n=size(n),
    )
    return _SPHERICAL[n, alpha]


def _invert(sph: Spherical, values: list[int], fail) -> list[int]:
    """sum_rho (W_rho N) v_rho theta_rho(kappa) / (N h_kappa) for every
    kappa, v_rho and kappa by index into partitions_of(n).  A quotient
    that is not an integer raises fail(k, "total/(N h_kappa)")."""
    weighted = [d * v for d, v in zip(sph.dims, values)]
    out = []
    for k, column in enumerate(zip(*sph.theta)):
        total = sum(map(mul, weighted, column))
        c, rem = divmod(total, sph.big_n * sph.h[k])
        if rem:
            raise fail(k, f"{total}/{sph.big_n * sph.h[k]}")
        out.append(c)
    return out


def _build(n: int, basis: str) -> Table:
    """The checked table of every b at level n (see the module docstring)."""
    alpha = _BASES[basis][0]
    sph = _spherical(n, basis)
    stable, h = sph.types, sph.h
    table: Table = {}
    for i, lam in enumerate(stable):
        for j in range(i, len(stable)):
            mu = stable[j]

            def fail(k, quotient):
                return ValidationFailure(
                    f"b_{{{lam},{mu}}}^{stable[k]}({n}) at alpha = {alpha} is "
                    f"{quotient}, not a non-negative integer"
                )

            bs = _invert(sph, [t[i] * t[j] for t in sph.theta], fail)
            for k, b in enumerate(bs):
                if b < 0:
                    raise fail(k, b)
            covered = sum(b * x for b, x in zip(bs, h))
            if covered != h[i] * h[j]:
                raise ValidationFailure(
                    f"the product of {lam} and {mu} at n = {n}, alpha = {alpha} "
                    f"covers {covered} elements, not {h[i]} * {h[j]}"
                )
            table[lam, mu] = table[mu, lam] = {nu: b for nu, b in zip(stable, bs) if b}
    return table


def structure_constants(n: int, basis: str) -> Table:
    """Every b_{lam mu}^nu(n) of one basis ("K" or "C"), by stable types:
    (lam, mu) -> {nu: b}, with only the non-zero b present.

    n runs from 1 to MAX_SPHERICAL_LEVEL, else UsageError.  The table
    is built once per level and basis; the caller must not change it.
    """
    alpha = _basis(basis)[0]
    if (n, alpha) not in _TABLES:
        _TABLES[n, alpha] = _build(n, basis)
    return _TABLES[n, alpha]


def structure_constant(
    lam: Partition, mu: Partition, nu: Partition, n: int, basis: str
) -> int:
    """b_{lam mu}^nu(n) in the K basis, or a_{lam mu}^nu(n) in the C
    basis: the coefficient of nu in the product of lam and mu."""
    lam, mu, nu = as_partition(lam), as_partition(mu), as_partition(nu)
    for p in (lam, mu, nu):
        check_weight(p, n)
    return structure_constants(n, basis)[lam, mu].get(nu, 0)


def _two_contents(rho: Partition) -> list[int]:
    """A_rho: 2(j - 1) - (i - 1) for every cell (i, j) of the diagram of rho."""
    return [2 * j - i for i, row in enumerate(rho) for j in range(row)]


def matsumoto_coefficients(F: SymmetricExpression, n: int) -> dict[Partition, int]:
    """F(J_1, J_3, ..., J_{2n-1}) * (sum of B_n) = sum of c_kappa K_kappa(n),
    as {kappa: c_kappa} by stable types, with only the non-zero c present.

    J_{2k-1} acts on omega^rho by the 2-contents A_rho (see the module
    docstring), so c_kappa = sum_rho (W_rho N) F(A_rho) theta_rho(kappa)
    / (N h_kappa), with F(A_rho) from SymmetricExpression.evaluate.  A
    c_kappa that is not an integer raises ValidationFailure.
    """
    sph = _spherical(n, "K")

    def fail(k, quotient):
        return ValidationFailure(
            f"the coefficient of K_{sph.types[k]}({n}) in the Matsumoto image of "
            f"{F} is {quotient}, not an integer"
        )

    values = [F.evaluate(_two_contents(rho), 1) for rho in sph.parts]
    return {kappa: c for kappa, c in zip(sph.types, _invert(sph, values, fail)) if c}
