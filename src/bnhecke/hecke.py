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
pointwise on their spectra.  hecke_product is one such product; the
structure constants are read off the memoized rows K_lam K_mu of
bnhecke.characters, which the CLI reads directly.  The counts this
replaces stay as the tests' oracles: the matching tally of
bnhecke._backend (b is the number of perfect matchings delta of [2n]
with type(eps, delta) = lam and type(delta, z eps) = mu, z the
canonical point of K_nu(n)) and the permutation oracle
bnhecke._kernels_py.

The generators H_i sum the K_mu(n) whose completed type has i parts,
i.e. |mu| = n - i (partitions.cycle_sum).  The Matsumoto
correspondence sends e_{n-i}(J_1, J_3, ..., J_{2n-1}) * (sum of B_n)
to H_i; matsumoto_image proves it at n = 2 before its first image, and
the matsumoto suite of bnhecke.suites checks it at every level against
cycle_sum, without this module.  The single-cycle expansion gives the
top coefficients of K_lam K_(r) in closed form.  A subring closure
over Z, kept modulo the determinant of the monomials
prod_i H_{n - kappa_i}, witnesses that the H_i generate the whole
lattice of K-coordinates.

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
from math import factorial, prod
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
    cycle_sum,
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


def hecke_structure_constant(lam: Partition, mu: Partition, nu: Partition, n: int) -> int:
    """b_{lam mu}^{nu}(n), the coefficient of K_nu(n) in K_lam(n) K_mu(n):
    a K-only alias of characters.structure_constant, which the CLI reads,
    kept for perfbench and the tests until it moves out of the package
    with the other oracles.  The module docstring gives b as a count of
    perfect matchings."""
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
    """H_i: the sum of all w in S_2n whose pair graph has i cycles
    (partitions.cycle_sum in the K basis)."""
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"cycle count {i} out of range for level {n}")
    return HeckeElement(n, cycle_sum(i, n))


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
        got = matsumoto_coefficients(elementary(2 - i), 2, "K")
        want = cycle_sum(i, 2)
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


class GenerationCertificate(namedtuple("GenerationCertificate", "n rank basis determinant")):
    """Witness that H_1..H_n generate the Hecke ring at level n.

    basis lists the K_mu(n), rank is their number, and determinant is
    d = |det| of the seed monomials prod_i H_{n - kappa_i} in
    K-coordinates, the modulus of the closure.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        return {**self._asdict(), "basis": [list(mu) for mu in self.basis]}


def _determinant(matrix: list[list[int]]) -> int:
    """det of a square integer matrix by Bareiss elimination; each division is exact."""
    rows = [list(row) for row in matrix]
    sign, last = 1, 1
    for k in range(len(rows)):
        pivot = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        a = rows[k][k]
        for i in range(k + 1, len(rows)):
            b = rows[i][k]
            rows[i] = [(a * x - b * y) // last for x, y in zip(rows[i], rows[k])]
        last = a
    return sign * last


def _insert(echelon: list[list[int]], v: list[int], d: int) -> bool:
    """Reduce v into the echelon basis of span + d Z^p; True if a pivot shrank.

    Row c has its pivot, a divisor of d, in column c and its other entries
    reduced modulo d.  Started from d I, the rows keep d Z^p in their span,
    so their pivots multiply to the index of span + d Z^p.
    """
    shrank = False
    v = [x % d for x in v]
    for c, row in enumerate(echelon):
        a, b = row[c], v[c]
        if b % a:
            g, s, t = _xgcd(a, b)
            a, b = a // g, b // g
            echelon[c] = [(s * x + t * y) % d for x, y in zip(row, v)]
            v = [(a * y - b * x) % d for x, y in zip(row, v)]
            shrank = True
        elif b:
            q = b // a
            v = [(y - q * x) % d for x, y in zip(row, v)]
    return shrank


def generation_certificate(n: int) -> GenerationCertificate:
    """Certify that H_1..H_n generate the Hecke ring at level n.

    Z[H_1, ..., H_n] is the smallest Z-module that holds the unit and is
    closed under multiplication by H_1..H_{n-1} (H_n is the unit).  The
    seed is the monomials prod_i H_{n - kappa_i}, one per stable type
    kappa: the Matsumoto images of the e_kappa.  d = |det| of their
    K-coordinates puts d Z^p inside their span (the adjugate), so the
    closure keeps an echelon basis modulo d.  Each pass multiplies every
    row by H_1..H_{n-1} and reduces the products in, until a pass shrinks
    no pivot.  The H_i generate iff every pivot ends at 1; a singular
    seed or a larger index raises InsufficientDegree.
    """
    basis = tuple(enumerate_by_weight(n))
    gens = [generator_H(i, n) for i in range(1, n)]

    def coordinates(u: HeckeElement) -> list[int]:
        return [u.coeffs.get(mu, 0) for mu in basis]

    def index() -> int:
        return prod(row[c] for c, row in enumerate(echelon))

    seed = []
    for kappa in basis:
        monomial = HeckeElement.one(n)
        for part in kappa:
            monomial = hecke_product(gens[n - part - 1], monomial)
        seed.append(coordinates(monomial))
    d = abs(_determinant(seed))
    if not d:
        raise InsufficientDegree(f"the seed monomials at level {n} are singular")
    echelon = [[d * (i == j) for j in range(len(basis))] for i in range(len(basis))]
    for v in seed:
        _insert(echelon, v, d)
    if index() != d:
        raise ValidationFailure(f"the seed pivots at level {n} multiply to {index()}, not {d}")
    shrank = True
    while shrank and index() > 1:
        shrank = False
        for c in range(len(basis)):
            row = HeckeElement._raw(n, {mu: x for mu, x in zip(basis, echelon[c]) if x})
            for h in gens:
                shrank |= _insert(echelon, coordinates(hecke_product(h, row)), d)
    if index() > 1:
        raise InsufficientDegree(
            f"H_1..H_{n} generate a subring of index {index()} at level {n}: "
            f"closure diagonal {[row[c] for c, row in enumerate(echelon)]} modulo {d}"
        )
    return GenerationCertificate(n=n, rank=len(basis), basis=basis, determinant=d)
