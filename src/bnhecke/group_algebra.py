"""Sparse exact arithmetic in the integral group ring of S_m.

Elements are sparse maps from permutations of [m] to rational
coefficients, with the product extending composition bilinearly.  The
center is spanned by the class sums C_mu(n), indexed by stable cycle
type, and the structure constants a_{lam mu}^{nu}(n) are read off
products of class sums at a canonical class representative.

The symmetric-function machinery lives here too: Jucys-Murphy elements

    J_k = (1,k) + (2,k) + ... + (k-1,k),    J_1 = 0,

commute pairwise, and evaluating elementary symmetric functions at
them reproduces the cycle-count filtration: Z_i, the sum of all
permutations with exactly i cycles, equals e_{n-i}(J_1, ..., J_n).
Evaluation of a general symmetric expression first rewrites it in the
e-basis and then runs the product DP prod_i (1 + t v_i), so only the
elementary evaluations are ever computed.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import factorial

from ._symfunc import (
    SymmetricExpression,
    complete,
    elementary,
    monomial,
    power_sum,
)
from .errors import (
    IndexOutOfRange,
    LevelMismatch,
    NonCommutingValues,
    NotCentral,
    ValidationFailure,
    WeightExceedsLevel,
)
from .partitions import Partition, completion, weight, z_value
from .permutations import (
    Permutation,
    class_representative,
    stable_type_of_one_line,
    symmetric_group,
)
from .cosets import hyperoctahedral_elements

__all__ = [
    "AlgebraElement",
    "multiply",
    "class_sum",
    "class_structure_constant",
    "jucys_murphy",
    "b_sum",
    "eval_elementary",
    "eval_symmetric",
    "zi_generator",
    "expand_in_class_basis",
    "SymmetricExpression",
    "elementary",
    "power_sum",
    "complete",
    "monomial",
]

Scalar = int | Fraction


class AlgebraElement:
    """A finitely supported map S_m -> Q with the convolution product."""

    __slots__ = ("level", "_t")

    level: int
    _t: dict[tuple[int, ...], Fraction]

    def __init__(self, level: int, terms: Mapping | None = None):
        if level < 1:
            raise ValueError(f"level must be positive, got {level}")
        object.__setattr__(self, "level", level)
        data: dict[tuple[int, ...], Fraction] = {}
        for perm, coeff in (terms or {}).items():
            if not isinstance(perm, Permutation):
                perm = Permutation(perm)
            c = Fraction(coeff)
            if c:
                key = perm.one_line(level)
                data[key] = data.get(key, Fraction(0)) + c
        object.__setattr__(
            self, "_t", {k: v for k, v in data.items() if v}
        )

    @classmethod
    def _raw(cls, level: int, data: dict[tuple[int, ...], Fraction]) -> "AlgebraElement":
        el = object.__new__(cls)
        object.__setattr__(el, "level", level)
        object.__setattr__(el, "_t", data)
        return el

    @classmethod
    def zero(cls, level: int) -> "AlgebraElement":
        return cls._raw(level, {})

    @classmethod
    def one(cls, level: int) -> "AlgebraElement":
        return cls._raw(level, {tuple(range(1, level + 1)): Fraction(1)})

    @classmethod
    def from_permutation(
        cls, perm: Permutation, level: int, coeff: Scalar = 1
    ) -> "AlgebraElement":
        c = Fraction(coeff)
        if not c:
            return cls.zero(level)
        return cls._raw(level, {perm.one_line(level): c})

    def coefficient(self, perm: Permutation) -> Fraction:
        return self._t.get(perm.one_line(self.level), Fraction(0))

    def terms(self) -> dict[Permutation, Fraction]:
        return {Permutation(k): v for k, v in self._t.items()}

    def support_size(self) -> int:
        return len(self._t)

    def __len__(self) -> int:
        return len(self._t)

    def __bool__(self) -> bool:
        return bool(self._t)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.level == other.level
            and self._t == other._t
        )

    def _check_level(self, other: "AlgebraElement") -> None:
        if self.level != other.level:
            raise LevelMismatch(
                f"cannot combine levels {self.level} and {other.level}"
            )

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_level(other)
        out = dict(self._t)
        for k, c in other._t.items():
            s = out.get(k, Fraction(0)) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return AlgebraElement._raw(self.level, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._raw(
            self.level, {k: -c for k, c in self._t.items()}
        )

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check_level(other)
            out: dict[tuple[int, ...], Fraction] = {}
            get = out.get
            for x, cx in self._t.items():
                for y, cy in other._t.items():
                    z = tuple(x[j - 1] for j in y)
                    c = get(z)
                    out[z] = cx * cy if c is None else c + cx * cy
            return AlgebraElement._raw(
                self.level, {k: v for k, v in out.items() if v}
            )
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: Scalar) -> "AlgebraElement":
        c = Fraction(c)
        if not c:
            return AlgebraElement.zero(self.level)
        return AlgebraElement._raw(
            self.level, {k: v * c for k, v in self._t.items()}
        )

    def __repr__(self) -> str:
        return f"AlgebraElement(level={self.level}, terms={len(self._t)})"

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    def to_json(self) -> list[dict]:
        return [
            {"perm": list(k), "coeff": str(self._t[k])}
            for k in sorted(self._t)
        ]


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Convolution product; raises LevelMismatch on distinct levels."""
    return a * b


_CLASS_TABLES: dict[int, dict[Partition, list[tuple[int, ...]]]] = {}


def _class_table(n: int) -> dict[Partition, list[tuple[int, ...]]]:
    """All of S_n keyed by stable cycle type; one sweep, cached."""
    if n not in _CLASS_TABLES:
        if n > 8:
            raise ValueError(
                f"class tables sweep all of S_n; n = {n} exceeds the n <= 8 budget"
            )
        table: dict[Partition, list[tuple[int, ...]]] = {}
        for w in symmetric_group(n):
            key = w.one_line(n)
            table.setdefault(stable_type_of_one_line(key), []).append(key)
        _CLASS_TABLES[n] = table
    return _CLASS_TABLES[n]


def class_sum(mu: Partition, n: int) -> AlgebraElement:
    """C_mu(n): the sum of all w in S_n of stable cycle type mu.

    The zero element of level n when wt(mu) > n.
    """
    mu = tuple(mu)
    if weight(mu) > n:
        return AlgebraElement.zero(n)
    rows = _class_table(n)[mu]
    return AlgebraElement._raw(n, {k: Fraction(1) for k in rows})


_CLASS_PRODUCTS: dict[tuple[Partition, Partition, int], AlgebraElement] = {}


def class_structure_constant(
    lam: Partition, mu: Partition, nu: Partition, n: int
) -> int:
    """a_{lam mu}^{nu}(n): coefficient of C_nu(n) in C_lam(n) C_mu(n).

    Read off the cached product at the canonical nu-class
    representative; centrality makes the choice immaterial.
    """
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    if weight(nu) > n:
        raise WeightExceedsLevel(f"wt{nu} = {weight(nu)} exceeds level {n}")
    memo = (lam, mu, n) if lam <= mu else (mu, lam, n)
    if memo not in _CLASS_PRODUCTS:
        _CLASS_PRODUCTS[memo] = class_sum(memo[0], n) * class_sum(memo[1], n)
    coeff = _CLASS_PRODUCTS[memo].coefficient(class_representative(nu, n))
    if coeff.denominator != 1 or coeff < 0:
        raise ValidationFailure(
            f"a_{{{lam},{mu}}}^{nu}({n}) = {coeff} is not a non-negative integer"
        )
    return int(coeff)


def jucys_murphy(k: int, m: int) -> AlgebraElement:
    """J_k = (1,k) + ... + (k-1,k) at level m; J_1 = 0."""
    if not 1 <= k <= m:
        raise IndexOutOfRange(f"J_{k} is not defined at level {m}")
    return AlgebraElement(
        m, {Permutation.from_cycles([(i, k)]): 1 for i in range(1, k)}
    )


def b_sum(n: int) -> AlgebraElement:
    """The unnormalized sum of B_n inside the level-2n algebra.

    Dividing by |B_n| = 2^n n! gives the idempotent averaging over the
    hyperoctahedral group; callers apply that scalar explicitly so all
    heavy arithmetic stays integral.
    """
    return AlgebraElement._raw(
        2 * n,
        {b.one_line(2 * n): Fraction(1) for b in hyperoctahedral_elements(n)},
    )


def _elementary_row(values: list[AlgebraElement]) -> list[AlgebraElement]:
    """[e_0(v), e_1(v), ..., e_len(v)] by the product DP over (1 + t v_i)."""
    if not values:
        raise ValueError("cannot infer the level from an empty value list")
    level = values[0].level
    es = [AlgebraElement.one(level)]
    for v in values:
        if v.level != level:
            raise LevelMismatch(
                f"values mix levels {level} and {v.level}"
            )
        es.append(AlgebraElement.zero(level))
        for j in range(len(es) - 1, 0, -1):
            es[j] = es[j] + es[j - 1] * v
    return es


def eval_elementary(k: int, values: list[AlgebraElement]) -> AlgebraElement:
    """e_k evaluated at the given algebra elements; e_0 = 1."""
    if k < 0:
        raise ValueError("e_k needs k >= 0")
    row = _elementary_row(list(values))
    if k >= len(row):
        return AlgebraElement.zero(row[0].level)
    return row[k]


def eval_symmetric(
    F: SymmetricExpression | str, values: list[AlgebraElement]
) -> AlgebraElement:
    """Evaluate a symmetric expression at pairwise commuting values."""
    if isinstance(F, str):
        F = SymmetricExpression.parse(F)
    values = list(values)
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if values[i] * values[j] != values[j] * values[i]:
                raise NonCommutingValues(
                    f"values {i} and {j} do not commute"
                )
    row = _elementary_row(values)
    level = row[0].level
    zero = AlgebraElement.zero(level)
    acc = zero
    for mono, c in F.terms.items():
        part = AlgebraElement.one(level)
        for idx in mono:
            part = part * (row[idx] if idx < len(row) else zero)
        acc = acc + part.scale(c)
    return acc


def zi_generator(i: int, n: int) -> AlgebraElement:
    """Z_i: the sum of all w in S_n with exactly i cycles.

    A permutation of stable type mu has n - |mu| cycles at level n, so
    Z_i collects the class sums with |mu| = n - i.
    """
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"cycle count {i} out of range for S_{n}")
    out: dict[tuple[int, ...], Fraction] = {}
    for mu, rows in _class_table(n).items():
        if n - sum(mu) == i:
            for k in rows:
                out[k] = Fraction(1)
    return AlgebraElement._raw(n, out)


def expand_in_class_basis(
    a: AlgebraElement, n: int
) -> dict[Partition, Fraction]:
    """Write a central element as sum of c_mu C_mu(n).

    Raises NotCentral when a class carries a non-constant coefficient
    or is only partially present.
    """
    if a.level != n:
        raise LevelMismatch(f"element lives at level {a.level}, not {n}")
    coeffs: dict[Partition, Fraction] = {}
    counts: dict[Partition, int] = {}
    for key, c in a._t.items():
        mu = stable_type_of_one_line(key)
        if mu in coeffs:
            if coeffs[mu] != c:
                raise NotCentral(
                    f"class {mu} carries coefficients {coeffs[mu]} and {c}"
                )
            counts[mu] += 1
        else:
            coeffs[mu] = c
            counts[mu] = 1
    for mu, seen in counts.items():
        size = factorial(n) // z_value(completion(mu, n))
        if seen != size:
            raise NotCentral(
                f"class {mu} has {seen} of its {size} members present"
            )
    return coeffs
