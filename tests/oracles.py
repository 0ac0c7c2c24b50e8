"""Independent builders that the tests hold the package's fast paths against.

monomial_coefficient counts [m_lam] p_mu for one pair by a DP over the
parts of mu, and e_to_m_rows expands e_{lam'} over the m_nu by
multiplying exponent vectors over all orderings of d points.  They are
the oracles for the Pieri-rule matrix of bnhecke.partitions and for
the e-basis monomials m_lam built from it.

ElementaryExpansion is an integer polynomial in e_1, e_2, ...: p_k by
Newton's identity, h_k by h_k = sum_i (-1)^(i-1) e_i h_{k-i}, m_lam by
back substitution through [m_mu] p_lam, and expand(F) writes a parsed
bnhecke._symfunc expression in it.  Its evaluate runs the product DP
for the e_k once and sums the e-monomials, so it is the oracle for the
values bnhecke._symfunc computes at each alphabet.

jack_power_sums_by_gram_schmidt builds [p_lam] J_rho the slow way, in
exact rationals: the monomials m_mu in power sums (inverting the
triangular [m_lam] p_mu of monomial_coefficient), P_rho by
Gram-Schmidt of the m_mu from (1^n) upwards under <p_lam, p_mu> =
delta z_lam alpha^l(lam), and J_rho = prod over the cells s of
(alpha a(s) + l(s) + 1) times P_rho.  It shares nothing with the
Laplace-Beltrami recurrence of bnhecke.characters but the hook
product.

divided_difference_fit interpolates (n, value) pairs at any distinct
levels by Newton divided differences in exact rationals, and reads the
binomial coefficients off the interpolant's values at 0..d.  It is the
oracle for the integer difference table of bnhecke.universal.ivp_fit.

enumerate_class sweeps all of S_n for the permutations of one stable
cycle type, zi_generator for those with i cycles, b_sum writes the sum
of B_n in Z[S_2n], and expand_in_class_basis reads a central element
of Z[S_n] in the class sums C_mu(n).  They are the reference builders
for Z[S_2n], the class census and the class basis of
bnhecke.group_algebra; zi_generator is also the Z[S_n] side of the
jm-center identity Z_i = e_{n-i}(J_1, ..., J_n).

double_coset_sum and lift write K_mu(n), and Z-combinations of them,
as honest elements of Z[S_2n], so a Hecke product can be checked
against the full group-algebra convolution.  tally_product multiplies
two elements of the Hecke ring by the matching tally of
bnhecke._backend, bilinearly in their coefficients; the seed of the
generation certificate is rebuilt through it.

monomial_hnf row-reduces the K-coordinates of every monomial of degree
<= n - 1 in H_1..H_{n-1} (H_n is the unit) to Hermite normal form by
bnhecke.hecke._hermite_normal_form, the certificate's route before
the subring closure, and monomial_hnf_index reads the index of their
span off its diagonal: the oracle for the closure's verdict.
_integer_det is the determinant by elimination in Fractions, the
oracle for the certificate's Bareiss determinant.

_matsumoto_raw computes the Matsumoto image
F(J_1, J_3, ..., J_{2n-1}) * (sum of B_n) by walking the perfect
matchings of [2n]: the element is right-B_n-invariant, so the vector
v = F(J) eps in Z[matchings] determines it, J_k acts on a matching by
sum_{i<k} relabelling with (i k), and the coefficient of K_mu is v at
any matching of type mu.  It is the oracle for
bnhecke.characters.matsumoto_coefficients at n = 5 and 6.
"""

import itertools
from fractions import Fraction
from functools import cache
from math import factorial, prod
from types import MappingProxyType

from bnhecke._backend import _typed_matchings, product_tally
from bnhecke._symfunc import SymmetricExpression
from bnhecke.characters import _hook_product, _norms
from bnhecke.cosets import hyperoctahedral_elements, image_matching, matching_type
from bnhecke.errors import (
    IndexOutOfRange,
    LevelMismatch,
    NotBiInvariant,
    NotCentral,
    ValidationFailure,
)
from bnhecke.group_algebra import AlgebraElement
from bnhecke.hecke import HeckeElement, _hermite_normal_form, hecke_product
from bnhecke.partitions import (
    Partition,
    _add_terms,
    _expand_by_type,
    _integer,
    _power_sum_monomials,
    _read_terms,
    as_partition,
    as_type,
    completion,
    double_coset_size,
    enumerate_by_weight,
    hyperoctahedral_order,
    partitions_of,
    weight,
    z_value,
)
from bnhecke.permutations import Permutation, stable_type_of_one_line

# Matsumoto expressions: e_k with k > n at small levels, p_k, h_k, an
# m_lambda, products, negative coefficients, a constant and an
# expression equal to 0
ORACLE_EXPRS = ["e1", "e3", "e5", "p2", "p3", "h2", "m[2,1]", "e2*e1",
                "e2 - 3*e1*e1", "4", "e1 - e1"]


Monomial = tuple[int, ...]


class ElementaryExpansion:
    """An immutable integer polynomial in the elementary generators e_1,
    e_2, ...: a map from descending index tuples to integers, the tuple
    (2, 1, 1) meaning e2*e1*e1.  Coefficients and indices are read by
    partitions._integer; sums, negations and products are built unread
    (_raw).  The terms are held read-only, so the cached p_k, h_k and
    m_lam every caller shares cannot be changed."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Monomial, int] | None = None):
        object.__setattr__(
            self, "_terms", MappingProxyType(_read_terms(terms, _monomial_key))
        )

    @classmethod
    def _raw(cls, terms: dict[Monomial, int]) -> "ElementaryExpansion":
        el = object.__new__(cls)
        object.__setattr__(el, "_terms", MappingProxyType(terms))
        return el

    @classmethod
    def one(cls) -> "ElementaryExpansion":
        return cls({(): 1})

    @property
    def terms(self) -> dict[Monomial, int]:
        return dict(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int) and not isinstance(other, bool):
            other = ElementaryExpansion({(): other})
        return isinstance(other, ElementaryExpansion) and self._terms == other._terms

    def __setattr__(self, name, value):
        raise AttributeError("ElementaryExpansion is immutable")

    def __add__(self, other) -> "ElementaryExpansion":
        return ElementaryExpansion._raw(_add_terms(self._terms, _coerce(other)._terms))

    __radd__ = __add__

    def __neg__(self) -> "ElementaryExpansion":
        return ElementaryExpansion._raw({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "ElementaryExpansion":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "ElementaryExpansion":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "ElementaryExpansion":
        other = _coerce(other)
        out: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                key = tuple(sorted(m1 + m2, reverse=True))
                out[key] = out.get(key, 0) + c1 * c2
        return ElementaryExpansion._raw({m: c for m, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ElementaryExpansion":
        k = _integer(k)
        if k < 0:
            raise ValueError("negative powers are not symmetric polynomials")
        out = ElementaryExpansion.one()
        for _ in range(k):
            out = out * self
        return out

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for mono in sorted(self._terms, key=lambda m: (sum(m), m)):
            c = self._terms[mono]
            name = "*".join(f"e{k}" for k in mono) or "1"
            bits.append(f"{c}*{name}" if (c != 1 or not mono) else name)
        return " + ".join(bits)

    def evaluate(self, values, one):
        """The expansion at pairwise commuting values: e_0, ..., e_top
        from the product DP over prod_i (1 + t v_i), top the largest
        index present, and each e-monomial a product of them."""
        zero = 0 * one
        top = max((mono[0] for mono in self._terms if mono), default=0)
        row = [one] + [zero] * top
        for i, v in enumerate(values):
            for j in range(min(i + 1, top), 0, -1):
                row[j] = row[j] + row[j - 1] * v
        acc = zero
        for mono, c in self._terms.items():
            acc = acc + c * prod(map(row.__getitem__, mono), start=one)
        return acc


def _monomial_key(mono) -> Monomial:
    """An e-monomial read at the boundary: integer indices, all positive,
    sorted descending."""
    key = tuple(sorted(map(_integer, mono), reverse=True))
    if key and key[-1] < 1:
        raise ValueError(f"elementary index must be positive: {mono}")
    return key


def _coerce(v) -> ElementaryExpansion:
    if isinstance(v, ElementaryExpansion):
        return v
    return ElementaryExpansion({(): v})


def elementary(k: int) -> ElementaryExpansion:
    """e_k; e_0 = 1."""
    return ElementaryExpansion({(k,): 1} if k else {(): 1})


@cache
def power_sum(k: int) -> ElementaryExpansion:
    """p_k in the e-basis, via Newton's identity
    p_k = e_1 p_{k-1} - e_2 p_{k-2} + ... + (-1)^{k-1} k e_k."""
    acc = (-1) ** (k - 1) * k * elementary(k)
    for i in range(1, k):
        acc = acc + (-1) ** (i - 1) * elementary(i) * power_sum(k - i)
    return acc


@cache
def complete(k: int) -> ElementaryExpansion:
    """h_k in the e-basis."""
    acc = ElementaryExpansion.one() if k == 0 else ElementaryExpansion()
    for i in range(1, k + 1):
        acc = acc + (-1) ** (i - 1) * elementary(i) * complete(k - i)
    return acc


@cache
def _monomial(lam: Partition) -> ElementaryExpansion:
    """m_lam by back substitution down dominance: p_lam = sum over the
    mu of _power_sum_monomials(lam) of [m_mu] p_lam m_mu, and every mu
    but lam lies above it, so

        m_lam = (p_lam - sum over mu != lam of [m_mu] p_lam m_mu) / [m_lam] p_lam.

    m_lam has integral e-coefficients, so a division that leaves a
    remainder raises ValidationFailure.
    """
    row = _power_sum_monomials(lam)
    rest = ElementaryExpansion.one()
    for k in lam:
        rest = rest * power_sum(k)
    for mu, c in row.items():
        if mu != lam:
            rest = rest - c * _monomial(mu)
    terms = {}
    for mono, x in rest._terms.items():
        terms[mono], rem = divmod(x, row[lam])
        if rem:
            raise ValidationFailure(
                f"the e-coefficient {mono} of m_{lam} is {x}/{row[lam]}: "
                f"the back substitution does not divide exactly"
            )
    return ElementaryExpansion(terms)


def monomial(lam: Partition) -> ElementaryExpansion:
    """m_lam in the e-basis; lam is read by partitions.as_partition, so
    parts out of order raise ValueError.

    >>> monomial((2, 1))
    e2*e1 + -3*e3
    """
    return _monomial(as_partition(lam))


def expand(F: SymmetricExpression) -> ElementaryExpansion:
    """F written in the e-basis, node by node of its parsed tree."""

    def walk(node) -> ElementaryExpansion:
        op, arg = node[0], node[1]
        if op == "int":
            return ElementaryExpansion.one() * arg
        if op in ("e", "p", "h", "m"):
            return {"e": elementary, "p": power_sum, "h": complete, "m": monomial}[op](arg)
        if op == "^":
            out = walk(arg)
            for k in node[2]:
                out = out**k
            return out
        if op == "*":
            return prod(map(walk, arg), start=ElementaryExpansion.one())
        return sum((sign * walk(t) for sign, t in arg), ElementaryExpansion())

    return walk(F.tree)


def monomial_coefficient(mu: Partition, lam: Partition) -> int:
    """[m_lam] p_mu: the ways to deal the parts of mu onto the rows of
    lam so that every row is filled exactly.

    A DP over the parts of mu; a state is the multiset of what the rows
    still lack, since the ways to finish only depend on that.
    """
    states = {lam: 1}
    for q in mu:
        after: dict[Partition, int] = {}
        for lack, ways in states.items():
            for r in set(lack):
                if r >= q:
                    i = lack.index(r)
                    key = tuple(sorted(lack[:i] + (r - q,) + lack[i + 1 :], reverse=True))
                    after[key] = after.get(key, 0) + ways * lack.count(r)
        states = after
    return states.get((0,) * len(lam), 0)


def conjugate(lam: Partition) -> Partition:
    return tuple(sum(p > i for p in lam) for i in range(lam[0])) if lam else ()


def e_to_m_rows(d: int) -> tuple[list[Partition], list[list[int]]]:
    """Row k: e_{parts[k]'} over the m_nu, nu in parts = partitions_of(d).

    Each e_j is the sum of the 0/1 exponent vectors of d points with j
    ones, and the rows multiply them out; m_nu is read off the sorted
    vector.  nu lower in dominance comes later, so the matrix is upper
    unitriangular.
    """
    parts = partitions_of(d)
    index = {nu: j for j, nu in enumerate(parts)}
    rows = []
    for lam in parts:
        poly: dict[tuple[int, ...], int] = {(0,) * d: 1}
        for part in conjugate(lam):
            ones = set(itertools.permutations((1,) * part + (0,) * (d - part)))
            after: dict[tuple[int, ...], int] = {}
            for a, c in poly.items():
                for b in ones:
                    key = tuple(x + y for x, y in zip(a, b))
                    after[key] = after.get(key, 0) + c
            poly = after
        row = [0] * len(parts)
        for vec, c in poly.items():
            row[index[tuple(p for p in sorted(vec, reverse=True) if p)]] = c
        rows.append(row)
    return parts, rows


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
            c = monomial_coefficient(mu, parts[j])
            if c:
                m = [x - c * y for x, y in zip(m, monomials[j])]
        diagonal = monomial_coefficient(mu, mu)
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


def divided_difference_fit(points) -> list[Fraction]:
    """The c_k of the minimal-degree interpolant sum c_k binom(n, k)
    through (n, value) pairs at distinct levels, trailing zeros trimmed."""
    pts = sorted((n, Fraction(v)) for n, v in points)
    xs = [n for n, _ in pts]
    table = [v for _, v in pts]
    newton = [table[0]]
    for k in range(1, len(pts)):
        table = [
            (b - a) / (xs[j + k] - xs[j])
            for j, (a, b) in enumerate(zip(table, table[1:]))
        ]
        newton.append(table[0])
    while newton and newton[-1] == 0:
        newton.pop()

    def value(n: int) -> Fraction:
        acc = Fraction(0)
        for k in range(len(newton) - 1, -1, -1):
            acc = acc * (n - xs[k]) + newton[k]
        return acc

    row = [value(n) for n in range(len(newton))]
    coeffs = []
    while row:
        coeffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def enumerate_class(mu: Partition, n: int) -> set[Permutation]:
    """All w in S_n of stable cycle type mu; empty iff wt(mu) > n."""
    if weight(mu) > n:
        return set()
    return {
        Permutation(images)
        for images in itertools.permutations(range(1, n + 1))
        if stable_type_of_one_line(images) == mu
    }


def zi_generator(i: int, n: int) -> AlgebraElement:
    """Z_i: the sum of all w in S_n with exactly i cycles.

    A permutation of stable type mu has n - |mu| cycles at level n.
    """
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"cycle count {i} out of range for S_{n}")
    return AlgebraElement(n, {
        Permutation(images): 1
        for images in itertools.permutations(range(1, n + 1))
        if n - sum(stable_type_of_one_line(images)) == i
    })


def b_sum(n: int) -> AlgebraElement:
    """The unnormalized sum of B_n in the level-2n group algebra."""
    return AlgebraElement(2 * n, dict.fromkeys(hyperoctahedral_elements(n), 1))


def expand_in_class_basis(a: AlgebraElement, n: int) -> dict[Partition, int]:
    """The c_mu with a = sum of c_mu C_mu(n).

    Raises NotCentral when a class carries two coefficients or only
    some of its members.
    """
    if a.level != n:
        raise LevelMismatch(f"element lives at level {a.level}, not {n}")
    return _expand_by_type(
        a._t, stable_type_of_one_line,
        lambda mu: factorial(n) // z_value(completion(mu, n)), NotCentral, "class",
    )


def double_coset_sum(mu: Partition, n: int) -> AlgebraElement:
    """K_mu(n) as an honest element of the level-2n group algebra.

    The sum of x B_n over the matchings delta = x(eps) of type mu,
    tested against the orbit closure.
    """
    mu = as_type(mu, n)
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


def tally_product(u: HeckeElement, v: HeckeElement) -> HeckeElement:
    """u v with every b_{lam mu}^nu(n) counted over the perfect matchings
    (bnhecke._backend.product_tally, n up to its cap)."""
    n = u.level
    return HeckeElement(n, {
        nu: sum(
            a * c * product_tally(lam, nu, n).get(mu, 0)
            for lam, a in u.coeffs.items()
            for mu, c in v.coeffs.items()
        )
        for nu in enumerate_by_weight(n)
    })


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


def monomial_hnf(n: int, gens: list[HeckeElement], product=hecke_product) -> list[list[int]]:
    """The top p(n) rows of the HNF of every monomial of degree <= n - 1 in
    gens = [H_1, ..., H_n], each monomial one product from one of the
    degree below."""
    values = {(0,) * n: HeckeElement.one(n)}
    for degree in range(1, n):
        for exp in _monomial_exponents(n, degree):
            first = next(i for i, a in enumerate(exp) if a)
            prev = exp[:first] + (exp[first] - 1,) + exp[first + 1 :]
            values[exp] = product(gens[first], values[prev])
    basis = enumerate_by_weight(n)
    matrix = [[u.coeffs.get(mu, 0) for mu in basis] for u in values.values()]
    return _hermite_normal_form(matrix)[0][: len(basis)]


def monomial_hnf_index(n: int, gens: list[HeckeElement], product=hecke_product) -> int:
    """The index in Z^p(n) of the span of the monomials of degree <= n - 1
    in gens, 0 if they do not have full rank."""
    return prod(row[i] for i, row in enumerate(monomial_hnf(n, gens, product)))


def _integer_det(matrix: list[list[int]]) -> Fraction:
    size = len(matrix)
    rows = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(size):
        pivot = next((i for i in range(col, size) if rows[i][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for i in range(col + 1, size):
            if rows[i][col]:
                factor = rows[i][col] / rows[col][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[col])]
    return det


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

    The product DP over (1 + t J) of ElementaryExpansion.evaluate,
    run on vectors: adding the variable J turns e_j into e_j + J e_{j-1}.
    """
    row = [u] + [{} for _ in range(top)]
    for i in range(1, n):  # J_{2i+1} moves the 0-based point 2i; J_1 = 0
        for j in range(min(top, i), 0, -1):
            _add_jm_image(2 * i, row[j - 1], row[j])
    return row


def _matsumoto_vector(F: SymmetricExpression, n: int) -> dict[tuple[int, ...], int]:
    """v = F(J_1, J_3, ..., J_{2n-1}) eps in Z[perfect matchings of [2n]].

    Each e-monomial of expand(F) acts factor by factor, right to left,
    on eps; the J's commute, so any order gives the same vector.  e_k = 0
    for k > n.
    """
    eps = image_matching(range(1, 2 * n + 1))
    v: dict[tuple[int, ...], int] = {}
    for mono, c in expand(F).terms.items():
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
