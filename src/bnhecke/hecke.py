"""The Hecke ring of the pair (S_2n, B_n) in the double-coset basis.

The double-coset sums K_mu(n), over stable coset types with
wt(mu) <= n, form a Z-basis of the algebra of bi-B_n-invariant
elements of Z[S_2n].  The product here is the group-algebra product
divided by |B_n|, the normalization under which K_emptyset is the
identity and

    K_(1) K_(1) = t(t-1) K_{} + K_(1) + 3 K_(2) + 2 K_(1,1)    (t = n).

Structure constants never go through the full convolution, nor through
the cosets: (S_2n, B_n) is a Gelfand pair, and bnhecke.characters
builds every b_{lam mu}^{nu}(n) of a level at once from its zonal
spherical functions.  hecke_structure_constant and hecke_product read
that table.  The counts it replaces stay as the tests' oracles: the
matching tally of bnhecke._backend (b is the number of perfect
matchings delta of [2n] with type(eps, delta) = lam and
type(delta, z eps) = mu, z the canonical point of K_nu(n)) and the
permutation oracle bnhecke._kernels_py.

The generators H_i sum the K_mu(n) whose completed type has i parts,
i.e. |mu| = n - i.  Two theorems about them are wired in as checks:
the single-cycle expansion giving the top coefficients of
K_lam K_(r) in closed form, and the Matsumoto correspondence sending
e_{n-i}(J_1, J_3, ..., J_{2n-1}) * (sum of B_n) to H_i.  A Hermite
normal form certificate over Z witnesses that monomials in the H_i
span the whole lattice of K-coordinates.

The Matsumoto image F(J_1, J_3, ..., J_{2n-1}) * (sum of B_n) is read
off the same zonal spherical functions: J_{2k-1} acts on omega^rho by
the 2-contents of rho (bnhecke.characters.matsumoto_coefficients).

So the products, structure constants, the generator certificate and
the Matsumoto image load neither the cosets nor the group algebra.
Each layer is imported when first called: bnhecke.characters by the
products, structure constants and matsumoto_image, the symmetric
expressions by matsumoto_image, and bnhecke.cosets by expand_K.
"""

from __future__ import annotations

from collections import namedtuple
from math import factorial
from operator import index

from .errors import (
    IndexOutOfRange,
    InsufficientDegree,
    LengthBound,
    LevelMismatch,
    NotASubpartition,
    NotBiInvariant,
    ValidationFailure,
    WeightExceedsLevel,
)
from .partitions import (
    Partition,
    _expand_by_type,
    as_partition,
    check_weight,
    difference,
    enumerate_by_weight,
    multiplicity,
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
    "TrichotomyReport",
    "trichotomy_report",
]


class HeckeElement:
    """A Z combination of the basis elements K_mu(n).

    Coefficients are read through operator.index: a non-integer one,
    rational or float, raises TypeError.
    """

    __slots__ = ("level", "coeffs")

    level: int
    coeffs: dict[Partition, int]

    def __init__(self, level: int, coeffs: dict | None = None):
        if level < 1:
            raise ValueError(f"level must be positive, got {level}")
        object.__setattr__(self, "level", level)
        data: dict[Partition, int] = {}
        for mu, c in (coeffs or {}).items():
            mu = as_partition(mu)
            check_weight(mu, level)
            c = index(c)
            if c:
                data[mu] = data.get(mu, 0) + c
        object.__setattr__(
            self, "coeffs", {k: v for k, v in data.items() if v}
        )

    @classmethod
    def basis(cls, mu: Partition, level: int) -> "HeckeElement":
        return cls(level, {tuple(mu): 1})

    @classmethod
    def zero(cls, level: int) -> "HeckeElement":
        return cls(level)

    @classmethod
    def one(cls, level: int) -> "HeckeElement":
        return cls(level, {(): 1})

    def coefficient(self, mu: Partition) -> int:
        return self.coeffs.get(tuple(mu), 0)

    def _check_level(self, other: "HeckeElement") -> None:
        if self.level != other.level:
            raise LevelMismatch(
                f"cannot combine levels {self.level} and {other.level}"
            )

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if not isinstance(other, HeckeElement):
            return NotImplemented
        self._check_level(other)
        out = dict(self.coeffs)
        for mu, c in other.coeffs.items():
            out[mu] = out.get(mu, 0) + c
        return HeckeElement(self.level, out)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self + (-other)

    def __neg__(self) -> "HeckeElement":
        return HeckeElement(
            self.level, {mu: -c for mu, c in self.coeffs.items()}
        )

    def scale(self, c: int) -> "HeckeElement":
        c = index(c)
        return HeckeElement(
            self.level, {mu: v * c for mu, v in self.coeffs.items()}
        )

    def __mul__(self, other):
        if isinstance(other, HeckeElement):
            return hecke_product(self, other)
        return self.scale(other)

    __rmul__ = scale

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HeckeElement)
            and self.level == other.level
            and self.coeffs == other.coeffs
        )

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        body = ", ".join(
            f"{mu}: {c}" for mu, c in sorted(
                self.coeffs.items(), key=lambda kv: (weight(kv[0]), kv[0])
            )
        )
        return f"HeckeElement(n={self.level}, {{{body}}})"

    def __setattr__(self, name, value):
        raise AttributeError("HeckeElement is immutable")

    def to_json(self) -> dict:
        return {
            "n": self.level,
            "coeffs": [
                {"mu": list(mu), "c": str(self.coeffs[mu])}
                for mu in sorted(
                    self.coeffs, key=lambda m: (weight(m), m)
                )
            ],
        }


def expand_K(a: AlgebraElement, n: int) -> HeckeElement:
    """Write a bi-B_n-invariant element in the K_mu(n) basis.

    Checks both constancy of the coefficient on every double coset
    present and completeness of each coset, so a partial or uneven
    coset raises NotBiInvariant.
    """
    from .cosets import double_coset_size, image_matching, matching_type

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

    Read off the level's table of zonal structure constants
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

    The structure constants are in those units already, so each
    coefficient is a sum of table entries times the coefficients of u
    and v.
    """
    from .characters import structure_constants

    u._check_level(v)
    n = u.level
    table = structure_constants(n, "K") if u.coeffs else {}
    out: dict[Partition, int] = {}
    for lam, cu in u.coeffs.items():
        for mu, cv in v.coeffs.items():
            c = cu * cv
            for nu, b in table[lam, mu].items():
                out[nu] = out.get(nu, 0) + c * b
    return HeckeElement(n, out)


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
    numerator = (multiplicity(lam, top) + 1) * (top + 1) * factorial(r)
    denominator = factorial(r + 1 - len(rho))
    for part in set(rho):
        denominator *= factorial(multiplicity(rho, part))
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
    lam = as_partition(lam)
    check_weight(lam, n)
    if r == 0:
        return HeckeElement.basis(lam, n)
    if weight((r,)) > n:
        raise WeightExceedsLevel(f"wt(({r},)) = {r + 1} exceeds level {n}")
    coeffs = {
        nu: b
        for _, nu, b in _admissible_terms(lam, r)
        if weight(nu) <= n
    }
    return HeckeElement(n, coeffs)


_MATSUMOTO_CHECKED = False


def matsumoto_image(
    F: SymmetricExpression | str, n: int
) -> HeckeElement:
    """F(J_1, J_3, ..., J_{2n-1}) * (sum of B_n), in the K basis.

    Read off the zonal spherical functions, on which the odd
    Jucys-Murphy elements act by the 2-contents
    (characters.matsumoto_coefficients); nothing enters Z[S_2n] or
    walks the matchings.  Under this unnormalized-sum convention
    e_{n-i} lands on H_i; the first call proves that at n = 2 before
    returning anything, so a normalization regression cannot slip
    through silently, and a failed self-test fails every later call
    too.
    """
    global _MATSUMOTO_CHECKED
    from ._symfunc import SymmetricExpression, elementary
    from .characters import matsumoto_coefficients

    if isinstance(F, str):
        F = SymmetricExpression.parse(F)
    if not _MATSUMOTO_CHECKED:
        for i in (1, 2):
            got = HeckeElement(2, matsumoto_coefficients(elementary(2 - i), 2))
            want = generator_H(i, 2)
            if got != want:
                raise ValidationFailure(
                    f"normalization self-test failed at n=2: "
                    f"e_{2 - i} maps to {got}, expected H_{i} = {want}"
                )
        _MATSUMOTO_CHECKED = True
    return HeckeElement(n, matsumoto_coefficients(F, n))


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
    """Row HNF with its unimodular transform: U * mat = H."""
    rows = [list(r) for r in mat]
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    transform = [
        [int(i == j) for j in range(n_rows)] for i in range(n_rows)
    ]
    rank = 0
    for col in range(n_cols):
        pivot = next(
            (i for i in range(rank, n_rows) if rows[i][col]), None
        )
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        transform[rank], transform[pivot] = transform[pivot], transform[rank]
        for i in range(rank + 1, n_rows):
            if not rows[i][col]:
                continue
            g, s, t = _xgcd(rows[rank][col], rows[i][col])
            a_div, b_div = rows[rank][col] // g, rows[i][col] // g
            rows[rank], rows[i] = (
                [s * x + t * y for x, y in zip(rows[rank], rows[i])],
                [-b_div * x + a_div * y for x, y in zip(rows[rank], rows[i])],
            )
            transform[rank], transform[i] = (
                [s * x + t * y for x, y in zip(transform[rank], transform[i])],
                [
                    -b_div * x + a_div * y
                    for x, y in zip(transform[rank], transform[i])
                ],
            )
        if rows[rank][col] < 0:
            rows[rank] = [-x for x in rows[rank]]
            transform[rank] = [-x for x in transform[rank]]
        for i in range(rank):
            q = rows[i][col] // rows[rank][col]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[rank])]
                transform[i] = [
                    x - q * y for x, y in zip(transform[i], transform[rank])
                ]
        rank += 1
    return rows, transform


class GenerationCertificate(
    namedtuple(
        "GenerationCertificate",
        "n max_degree rank basis monomials expressions",
    )
):
    """Witness that monomials in H_1..H_n span the K-coordinate lattice.

    basis lists the K_mu(n), monomials the exponent vectors of the H_i,
    and expressions maps each mu of the basis to its polynomial in the
    H_i: a tuple of (integer coefficient, exponent vector) pairs.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "max_degree": self.max_degree,
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


def _monomial_exponents(n: int, max_degree: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], left: int) -> None:
        if len(prefix) == n:
            out.append(prefix)
            return
        for a in range(left + 1):
            rec(prefix + (a,), left - a)

    rec((), max_degree)
    return sorted(out, key=lambda e: (sum(e), e))


def generation_certificate(n: int, max_degree: int) -> GenerationCertificate:
    """Certify that H_1..H_n generate the Hecke ring at level n.

    Evaluates every monomial in the H_i of total degree <= max_degree,
    stacks the K-coordinates into an integer matrix, and row-reduces
    to Hermite normal form; the lattice is everything iff the top
    block is the identity.  On success each K_mu(n) is returned as an
    explicit integer polynomial in the H_i, re-evaluated through
    hecke_product as a final guard.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    basis = tuple(enumerate_by_weight(n))
    column = {mu: j for j, mu in enumerate(basis)}
    exponents = _monomial_exponents(n, max_degree)
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

    matrix = []
    for exp in exponents:
        el = value(exp)
        row = [0] * len(basis)
        for mu, c in el.coeffs.items():
            row[column[mu]] = c
        matrix.append(row)

    hnf, transform = _hermite_normal_form(matrix)
    diag = [hnf[i][i] if i < len(hnf) else 0 for i in range(len(basis))]
    if any(d != 1 for d in diag) or any(
        hnf[i][j] != int(i == j)
        for i in range(len(basis))
        for j in range(len(basis))
    ):
        raise InsufficientDegree(
            f"monomials of degree <= {max_degree} reach HNF diagonal "
            f"{diag}; raise max_degree"
        )
    expressions: dict[Partition, tuple[tuple[int, tuple[int, ...]], ...]] = {}
    for i, mu in enumerate(basis):
        poly = tuple(
            (c, exponents[j])
            for j, c in enumerate(transform[i])
            if c
        )
        rebuilt = HeckeElement.zero(n)
        for c, exp in poly:
            rebuilt = rebuilt + value(exp).scale(c)
        if rebuilt != HeckeElement.basis(mu, n):
            raise ValidationFailure(
                f"certificate re-evaluation failed for K_{mu}"
            )
        expressions[mu] = poly
    return GenerationCertificate(
        n=n,
        max_degree=max_degree,
        rank=len(basis),
        basis=basis,
        monomials=tuple(exponents),
        expressions=expressions,
    )


class TrichotomyReport(
    namedtuple("TrichotomyReport", "max_weight n_range zero top subtop")
):
    """Classification of b_{lam mu}^{nu}(n) over a weight window.

    zero holds the triples (lam, mu, nu) above the top degree, top the
    (lam, mu, nu, b) on it, and subtop the (lam, mu, nu, values) below
    it, one value per level of n_range.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "max_weight": self.max_weight,
            "n_range": list(self.n_range),
            "zero": [
                {"lam": list(l), "mu": list(m), "nu": list(v)}
                for l, m, v in self.zero
            ],
            "top": [
                {"lam": list(l), "mu": list(m), "nu": list(v), "b": b}
                for l, m, v, b in self.top
            ],
            "subtop": [
                {
                    "lam": list(l),
                    "mu": list(m),
                    "nu": list(v),
                    "values": {
                        str(n): b for n, b in zip(self.n_range, vals)
                    },
                }
                for l, m, v, vals in self.subtop
            ],
        }


def trichotomy_report(max_weight: int, n_range) -> TrichotomyReport:
    """Check the degree trichotomy over all triples of bounded weight.

    Zero when |nu| > |lam| + |mu| and constancy across n_range when
    |nu| = |lam| + |mu| are asserted outright; sub-top triples have
    their sampled values recorded for polynomial fitting elsewhere.
    """
    ns = tuple(n_range)
    if any(n < max_weight for n in ns):
        raise ValueError(
            f"every level in {ns} must be at least max_weight = {max_weight}"
        )
    shapes = enumerate_by_weight(max_weight)
    zero, top, subtop = [], [], []
    for lam in shapes:
        for mu in shapes:
            for nu in shapes:
                values = tuple(
                    hecke_structure_constant(lam, mu, nu, n) for n in ns
                )
                if sum(nu) > sum(lam) + sum(mu):
                    if any(values):
                        raise ValidationFailure(
                            f"b_{{{lam},{mu}}}^{nu} should vanish above the "
                            f"top degree but takes values {values}"
                        )
                    zero.append((lam, mu, nu))
                elif sum(nu) == sum(lam) + sum(mu):
                    if len(set(values)) != 1:
                        raise ValidationFailure(
                            f"top coefficient b_{{{lam},{mu}}}^{nu} varies "
                            f"with n: {values}"
                        )
                    top.append((lam, mu, nu, values[0]))
                else:
                    subtop.append((lam, mu, nu, values))
    return TrichotomyReport(
        max_weight=max_weight,
        n_range=ns,
        zero=tuple(zero),
        top=tuple(top),
        subtop=tuple(subtop),
    )
