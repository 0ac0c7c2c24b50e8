"""The Hecke ring of the pair (S_2n, B_n) in the double-coset basis.

The double-coset sums K_mu(n), over stable coset types with
wt(mu) <= n, form a Z-basis of the algebra of bi-B_n-invariant
elements of Z[S_2n].  HeckeElement takes its sums, negation, scaling
and equality from the integer-combination core of bnhecke.partitions,
as AlgebraElement does.  The product here is the group-algebra product
divided by |B_n|, the normalization under which K_emptyset is the
identity and

    K_(1) K_(1) = t(t-1) K_{} + K_(1) + 3 K_(2) + 2 K_(1,1)    (t = n).

Products never go through the full convolution, nor through the
cosets: (S_2n, B_n) is a Gelfand pair, so its zonal spherical functions
diagonalize the ring, and bnhecke.characters takes every product
pointwise on their spectra.  hecke_product is one such product and
hecke_structure_constant reads one row, K_lam K_mu.  The counts this
replaces stay as the tests' oracles: the matching tally of
bnhecke._backend (b is the number of perfect matchings delta of [2n]
with type(eps, delta) = lam and type(delta, z eps) = mu, z the
canonical point of K_nu(n)) and the permutation oracle
bnhecke._kernels_py.

The generators H_i sum the K_mu(n) whose completed type has i parts,
i.e. |mu| = n - i.  Two theorems about them are wired in as checks:
the single-cycle expansion giving the top coefficients of
K_lam K_(r) in closed form, and the Matsumoto correspondence sending
e_{n-i}(J_1, J_3, ..., J_{2n-1}) * (sum of B_n) to H_i.  A Hermite
normal form certificate over Z witnesses that monomials in the H_i
span the whole lattice of K-coordinates.

The Matsumoto image F(J_1, J_3, ..., J_{2n-1}) * (sum of B_n) is read
off the same zonal spherical functions: J_{2k-1} acts on omega^rho by
the 2-contents of rho (bnhecke.characters.matsumoto_coefficients, "K").

So the products, structure constants, the generator certificate and
the Matsumoto image load neither the cosets nor the group algebra.
Each layer is imported when first called: bnhecke.characters by the
products, structure constants and matsumoto_image, the symmetric
expressions by matsumoto_image, and bnhecke.cosets by expand_K.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from math import factorial
from types import MappingProxyType

from .errors import (
    IndexOutOfRange,
    InsufficientDegree,
    LengthBound,
    LevelMismatch,
    NotASubpartition,
    NotBiInvariant,
    ValidationFailure,
)
from .partitions import (
    Partition,
    _Combination,
    _expand_by_type,
    as_partition,
    as_type,
    difference,
    double_coset_size,
    enumerate_by_weight,
    subpartitions,
    union,
    weight,
)

__all__ = [
    "HeckeElement",
    "expand_K",
    "hecke_product",
    "hecke_structure_constant",
    "generator_H",
    "single_cycle_coefficient",
    "single_cycle_expansion",
    "matsumoto_image",
    "GenerationCertificate",
    "generation_certificate",
]


class HeckeElement(_Combination):
    """A Z combination of the basis elements K_mu(n), mu of weight <= n.

    Coefficients are read through partitions._integer: a non-integer
    one, rational, float or bool, raises TypeError.  The linear
    arithmetic is partitions._Combination's.
    """

    __slots__ = ()

    def _key(self, mu) -> Partition:
        return as_type(mu, self.level)

    @property
    def coeffs(self) -> MappingProxyType[Partition, int]:
        """{mu: coefficient of K_mu(n)}, zeros left out; read only."""
        return MappingProxyType(self._t)

    @classmethod
    def basis(cls, mu: Partition, level: int) -> "HeckeElement":
        return cls(level, {tuple(mu): 1})

    @classmethod
    def one(cls, level: int) -> "HeckeElement":
        return cls(level, {(): 1})

    def __mul__(self, other):
        if isinstance(other, HeckeElement):
            return hecke_product(self, other)
        return self.scale(other)

    def _ordered(self) -> list[Partition]:
        return sorted(self._t, key=lambda mu: (weight(mu), mu))

    def __repr__(self) -> str:
        body = ", ".join(f"{mu}: {self._t[mu]}" for mu in self._ordered())
        return f"HeckeElement(n={self.level}, {{{body}}})"

    def to_json(self) -> dict:
        return {
            "n": self.level,
            "coeffs": [
                {"mu": list(mu), "c": str(self._t[mu])} for mu in self._ordered()
            ],
        }


def expand_K(a: AlgebraElement, n: int) -> HeckeElement:
    """Write a bi-B_n-invariant element in the K_mu(n) basis.

    Checks both constancy of the coefficient on every double coset
    present and completeness of each coset, so a partial or uneven
    coset raises NotBiInvariant.
    """
    from .cosets import image_matching, matching_type

    if a.level != 2 * n:
        raise LevelMismatch(f"element lives at level {a.level}, not {2 * n}")
    eps = image_matching(range(1, 2 * n + 1))
    coeffs = _expand_by_type(
        a._t, lambda key: matching_type(eps, image_matching(key)),
        lambda mu: double_coset_size(mu, n), NotBiInvariant, "double coset",
    )
    return HeckeElement(n, coeffs)


def hecke_structure_constant(
    lam: Partition, mu: Partition, nu: Partition, n: int
) -> int:
    """b_{lam mu}^{nu}(n): coefficient of K_nu(n) in K_lam(n) K_mu(n).

    Read off the row K_lam K_mu of the zonal spherical product
    (bnhecke.characters).  It equals the number of perfect matchings
    delta of [2n] whose union with the couples eps has stable type lam
    and whose union with z(eps) has stable type mu, z the canonical
    point of K_nu(n): the number of x in K_lam(n) with x^{-1} z of type
    mu, divided by |B_n|.
    """
    from .characters import structure_constant

    return structure_constant(lam, mu, nu, n, "K")


def hecke_product(u: HeckeElement, v: HeckeElement) -> HeckeElement:
    """Product in the Hecke ring: convolution divided by |B_n|.

    One spectral product on the zonal spherical functions
    (characters.product); a zero factor gives zero at any level without
    building them.
    """
    from .characters import product

    u._check_level(v)
    n = u.level
    return HeckeElement._raw(n, product(u._t, v._t, n, "K") if u and v else {})


def generator_H(i: int, n: int) -> HeckeElement:
    """H_i: the sum of all w in S_2n whose pair graph has i cycles.

    The graph of w has n - |mu| cycles for stable coset type mu, so
    H_i collects the K_mu(n) with |mu| = n - i.
    """
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"cycle count {i} out of range for level {n}")
    return HeckeElement(
        n,
        {
            mu: 1
            for mu in enumerate_by_weight(n)
            if sum(mu) == n - i
        },
    )


def single_cycle_coefficient(lam: Partition, r: int, rho: Partition) -> int:
    """Top coefficient of K_{(r+|rho|) u (lam-rho)} in K_lam K_(r).

    The closed form (m_{r+|rho|}(lam) + 1)(r + |rho| + 1) r! divided
    by prod_i m_i(rho)! with the convention m_0(rho) = r + 1 - l(rho);
    requires rho inside lam and l(rho) <= r + 1.
    """
    lam, rho = as_partition(lam), as_partition(rho)
    if r < 1:
        raise ValueError(
            "the single-cycle expansion needs r >= 1; K_() is the identity"
        )
    diff = difference(lam, rho)  # raises NotASubpartition
    if len(rho) > r + 1:
        raise LengthBound(
            f"l{rho} = {len(rho)} exceeds r + 1 = {r + 1}"
        )
    top = r + sum(rho)
    numerator = (lam.count(top) + 1) * (top + 1) * factorial(r)
    denominator = factorial(r + 1 - len(rho))
    for part in set(rho):
        denominator *= factorial(rho.count(part))
    b, rem = divmod(numerator, denominator)
    if rem:
        raise ValidationFailure(
            f"closed form for K_{lam} K_({r}) at rho = {rho} is "
            f"{numerator}/{denominator}, not an integer"
        )
    return b


def _admissible_terms(
    lam: Partition, r: int
) -> list[tuple[Partition, Partition, int]]:
    """(rho, nu, coefficient) for every admissible subpartition rho."""
    out = []
    seen: dict[Partition, Partition] = {}
    for rho in subpartitions(lam):
        if len(rho) > r + 1:
            continue
        nu = union((r + sum(rho),), difference(lam, rho))
        if nu in seen:
            raise ValidationFailure(
                f"subpartitions {seen[nu]} and {rho} of {lam} give the same "
                f"target {nu} in K_{lam} K_({r})"
            )
        seen[nu] = rho
        out.append((rho, nu, single_cycle_coefficient(lam, r, rho)))
    return out


def single_cycle_expansion(lam: Partition, r: int, n: int) -> HeckeElement:
    """The top-degree part of K_lam(n) K_(r)(n) by the closed form.

    Every ν here has |ν| = |lam| + r; the actual product also carries
    lower-degree terms, which this expansion deliberately omits.
    """
    lam = as_type(lam, n)
    if r == 0:
        return HeckeElement.basis(lam, n)
    as_type((r,), n)
    coeffs = {
        nu: b
        for _, nu, b in _admissible_terms(lam, r)
        if weight(nu) <= n
    }
    return HeckeElement(n, coeffs)


@cache
def _matsumoto_self_test() -> None:
    """ValidationFailure unless e_{2-i} maps to H_i at n = 2; cache keeps
    no exception, so a failed self-test fails every later call too."""
    from ._symfunc import elementary
    from .characters import matsumoto_coefficients

    for i in (1, 2):
        got = HeckeElement(2, matsumoto_coefficients(elementary(2 - i), 2, "K"))
        want = generator_H(i, 2)
        if got != want:
            raise ValidationFailure(
                f"normalization self-test failed at n=2: "
                f"e_{2 - i} maps to {got}, expected H_{i} = {want}"
            )


def matsumoto_image(F: SymmetricExpression, n: int) -> HeckeElement:
    """F(J_1, J_3, ..., J_{2n-1}) * (sum of B_n), in the K basis.

    F is a parsed expression (SymmetricExpression.parse), not a string.

    Read off the zonal spherical functions, on which the odd
    Jucys-Murphy elements act by the 2-contents
    (characters.matsumoto_coefficients, "K"); nothing enters Z[S_2n] or
    walks the matchings.  Under this unnormalized-sum convention
    e_{n-i} lands on H_i; the first call proves that at n = 2 before
    returning anything, so a normalization regression cannot slip
    through silently, and a failed self-test fails every later call
    too.
    """
    from ._symfunc import SymmetricExpression
    from .characters import matsumoto_coefficients

    if not isinstance(F, SymmetricExpression):
        raise TypeError(f"F must be a SymmetricExpression, got {type(F).__name__}")
    _matsumoto_self_test()
    return HeckeElement(n, matsumoto_coefficients(F, n, "K"))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _hermite_normal_form(
    mat: list[list[int]],
) -> tuple[list[list[int]], list[list[int]]]:
    """Row HNF with its unimodular transform: U * mat = H.

    The rows of [mat | I] undergo each operation once; pivots come from
    the columns of mat only, and the identity block ends up as U.
    """
    n_rows = len(mat)
    n_cols = len(mat[0]) if mat else 0
    rows = [
        [*row, *(int(i == j) for j in range(n_rows))]
        for i, row in enumerate(mat)
    ]
    rank = 0
    for col in range(n_cols):
        pivot = next(
            (i for i in range(rank, n_rows) if rows[i][col]), None
        )
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, n_rows):
            if not rows[i][col]:
                continue
            g, s, t = _xgcd(rows[rank][col], rows[i][col])
            a_div, b_div = rows[rank][col] // g, rows[i][col] // g
            rows[rank], rows[i] = (
                [s * x + t * y for x, y in zip(rows[rank], rows[i])],
                [-b_div * x + a_div * y for x, y in zip(rows[rank], rows[i])],
            )
        if rows[rank][col] < 0:
            rows[rank] = [-x for x in rows[rank]]
        for i in range(rank):
            q = rows[i][col] // rows[rank][col]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return [r[:n_cols] for r in rows], [r[n_cols:] for r in rows]


class GenerationCertificate(
    namedtuple(
        "GenerationCertificate",
        "n degree rank basis monomials expressions",
    )
):
    """Witness that monomials in H_1..H_n span the K-coordinate lattice.

    degree is the lowest total degree whose monomials span, basis lists
    the K_mu(n), monomials the exponent vectors of the H_i up to that
    degree, and expressions maps each mu of the basis to its polynomial
    in the H_i: a tuple of (integer coefficient, exponent vector) pairs.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "degree": self.degree,
            "rank": self.rank,
            "basis": [list(mu) for mu in self.basis],
            "expressions": [
                {
                    "mu": list(mu),
                    "polynomial": [
                        {"coeff": c, "exponents": list(e)}
                        for c, e in self.expressions[mu]
                    ],
                }
                for mu in self.basis
            ],
        }


def _monomial_exponents(n: int, degree: int) -> list[tuple[int, ...]]:
    """The exponent vectors of H_1..H_n summing to degree, lexicographically."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], left: int) -> None:
        if len(prefix) == n:
            if not left:
                out.append(prefix)
            return
        # H_n = K_() is the unit, so its exponent stays 0
        for a in range(left + 1 if len(prefix) < n - 1 else 1):
            rec(prefix + (a,), left - a)

    rec((), degree)
    return out


def generation_certificate(n: int) -> GenerationCertificate:
    """Certify that H_1..H_n generate the Hecke ring at level n.

    Evaluates the monomials in H_1..H_{n-1} (H_n is the unit) degree by
    degree, each from one of the degree below, and after each degree d
    row-reduces the K-coordinates of those of degree <= d to Hermite
    normal form.  The lattice is everything iff the top block is the
    identity; the first such d gives the certificate, and if none up to
    n - 1 does, InsufficientDegree.  Each K_mu(n) is returned as an
    explicit integer polynomial in the H_i, re-evaluated through
    hecke_product as a final guard.
    """
    basis = tuple(enumerate_by_weight(n))
    identity = [[int(i == j) for j in range(len(basis))] for i in range(len(basis))]
    gens = [generator_H(i, n) for i in range(1, n + 1)]

    values: dict[tuple[int, ...], HeckeElement] = {}

    def value(exp: tuple[int, ...]) -> HeckeElement:
        if exp not in values:
            first = next((i for i, a in enumerate(exp) if a), None)
            if first is None:
                values[exp] = HeckeElement.one(n)
            else:
                prev = exp[:first] + (exp[first] - 1,) + exp[first + 1 :]
                values[exp] = hecke_product(gens[first], value(prev))
        return values[exp]

    exponents: list[tuple[int, ...]] = []
    for degree in range(max(n, 1)):
        exponents += _monomial_exponents(n, degree)
        matrix = [[value(exp).coeffs.get(mu, 0) for mu in basis] for exp in exponents]
        hnf, transform = _hermite_normal_form(matrix)
        if hnf[: len(basis)] == identity:
            break
    else:
        diag = [hnf[i][i] if i < len(hnf) else 0 for i in range(len(basis))]
        raise InsufficientDegree(
            f"monomials in H_1..H_{n} of degree <= {degree} reach HNF "
            f"diagonal {diag}, not the identity"
        )
    expressions: dict[Partition, tuple[tuple[int, tuple[int, ...]], ...]] = {}
    for i, mu in enumerate(basis):
        poly = tuple((c, exponents[j]) for j, c in enumerate(transform[i]) if c)
        rebuilt = HeckeElement.zero(n)
        for c, exp in poly:
            rebuilt = rebuilt + value(exp).scale(c)
        if rebuilt != HeckeElement.basis(mu, n):
            raise ValidationFailure(f"certificate re-evaluation failed for K_{mu}")
        expressions[mu] = poly
    return GenerationCertificate(
        n=n, degree=degree, rank=len(basis), basis=basis,
        monomials=tuple(exponents), expressions=expressions,
    )
