"""Sparse exact arithmetic in the integral group ring of S_m.

Elements are sparse maps from permutations of [m] to integer
coefficients, with the product extending composition bilinearly; the
sums, negation, scaling and equality are the integer-combination core
of bnhecke.partitions, which HeckeElement shares.  The
center is spanned by the class sums C_mu(n), indexed by stable cycle
type, and the structure constants a_{lam mu}^{nu}(n) are read off
products of class sums at a canonical class representative.

The Jucys-Murphy elements

    J_k = (1,k) + (2,k) + ... + (k-1,k),    J_1 = 0,

commute pairwise, and evaluating elementary symmetric functions at
them reproduces the cycle-count filtration: Z_i, the sum of all
permutations with exactly i cycles, equals e_{n-i}(J_1, ..., J_n).
eval_elementary runs the product DP prod_i (1 + t v_i) of
SymmetricExpression.evaluate (bnhecke._symfunc, where the symmetric
functions live); a general expression F evaluates at algebra values by
F.evaluate(values, AlgebraElement.one(m)).  The class tables and class
products are memos that partitions.clear_caches empties.  Only b_sum
reads B_n, and it imports bnhecke.cosets when it runs.
"""

from __future__ import annotations

from math import factorial

from ._symfunc import elementary
from .errors import IndexOutOfRange, LevelMismatch, NotCentral, ValidationFailure
from .partitions import (
    Partition,
    _Combination,
    _expand_by_type,
    _memo,
    check_weight,
    completion,
    weight,
    z_value,
)
from .permutations import (
    Permutation,
    class_representative,
    stable_type_of_one_line,
    symmetric_group,
)

__all__ = [
    "AlgebraElement",
    "multiply",
    "class_sum",
    "class_structure_constant",
    "jucys_murphy",
    "b_sum",
    "eval_elementary",
    "zi_generator",
    "expand_in_class_basis",
]


class AlgebraElement(_Combination):
    """A finitely supported map S_m -> Z with the convolution product.

    Coefficients are read through partitions._integer: a non-integer
    one, rational, float or bool, raises TypeError.  The linear
    arithmetic is partitions._Combination's.
    """

    __slots__ = ()

    def _key(self, perm) -> tuple[int, ...]:
        if not isinstance(perm, Permutation):
            perm = Permutation(perm)
        return perm.one_line(self.level)

    @classmethod
    def one(cls, level: int) -> "AlgebraElement":
        return cls._raw(level, {tuple(range(1, level + 1)): 1})

    @classmethod
    def from_permutation(
        cls, perm: Permutation, level: int, coeff: int = 1
    ) -> "AlgebraElement":
        return cls(level, {perm: coeff})

    def coefficient(self, perm: Permutation) -> int:
        return self._t.get(perm.one_line(self.level), 0)

    def __len__(self) -> int:
        return len(self._t)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check_level(other)
            out: dict[tuple[int, ...], int] = {}
            get = out.get
            for x, cx in self._t.items():
                for y, cy in other._t.items():
                    z = tuple(x[j - 1] for j in y)
                    c = get(z)
                    out[z] = cx * cy if c is None else c + cx * cy
            return AlgebraElement._raw(
                self.level, {k: v for k, v in out.items() if v}
            )
        return self.scale(other)

    def __repr__(self) -> str:
        return f"AlgebraElement(level={self.level}, terms={len(self._t)})"


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Convolution product; raises LevelMismatch on distinct levels."""
    return a * b


@_memo
def _class_table(n: int) -> dict[Partition, list[tuple[int, ...]]]:
    """All of S_n keyed by stable cycle type; one sweep, cached."""
    if n > 8:
        raise ValueError(
            f"class tables sweep all of S_n; n = {n} exceeds the n <= 8 budget"
        )
    table: dict[Partition, list[tuple[int, ...]]] = {}
    for w in symmetric_group(n):
        key = w.one_line(n)
        table.setdefault(stable_type_of_one_line(key), []).append(key)
    return table


def class_sum(mu: Partition, n: int) -> AlgebraElement:
    """C_mu(n): the sum of all w in S_n of stable cycle type mu.

    The zero element of level n when wt(mu) > n.
    """
    mu = tuple(mu)
    if weight(mu) > n:
        return AlgebraElement.zero(n)
    rows = _class_table(n)[mu]
    return AlgebraElement._raw(n, {k: 1 for k in rows})


@_memo
def _class_product(lam: Partition, mu: Partition, n: int) -> AlgebraElement:
    """C_lam(n) C_mu(n), cached; callers pass lam <= mu."""
    return class_sum(lam, n) * class_sum(mu, n)


def class_structure_constant(
    lam: Partition, mu: Partition, nu: Partition, n: int
) -> int:
    """a_{lam mu}^{nu}(n): coefficient of C_nu(n) in C_lam(n) C_mu(n).

    Read off the cached product at the canonical nu-class
    representative; centrality makes the choice immaterial.
    """
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    check_weight(nu, n)
    product = _class_product(*sorted((lam, mu)), n)
    coeff = product.coefficient(class_representative(nu, n))
    if coeff < 0:
        raise ValidationFailure(
            f"a_{{{lam},{mu}}}^{nu}({n}) = {coeff} is not a non-negative integer"
        )
    return coeff


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
    from .cosets import hyperoctahedral_elements

    return AlgebraElement._raw(
        2 * n,
        {b.one_line(2 * n): 1 for b in hyperoctahedral_elements(n)},
    )


def eval_elementary(k: int, values: list[AlgebraElement]) -> AlgebraElement:
    """e_k evaluated at the given algebra elements; e_0 = 1.  ValueError
    for no values, LevelMismatch for values of two levels."""
    if k < 0:
        raise ValueError("e_k needs k >= 0")
    values = list(values)
    if not values:
        raise ValueError("cannot infer the level from an empty value list")
    level = values[0].level
    for v in values:
        if v.level != level:
            raise LevelMismatch(f"values mix levels {level} and {v.level}")
    return elementary(k).evaluate(values, AlgebraElement.one(level))


def zi_generator(i: int, n: int) -> AlgebraElement:
    """Z_i: the sum of all w in S_n with exactly i cycles.

    A permutation of stable type mu has n - |mu| cycles at level n, so
    Z_i collects the class sums with |mu| = n - i.
    """
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"cycle count {i} out of range for S_{n}")
    out: dict[tuple[int, ...], int] = {}
    for mu, rows in _class_table(n).items():
        if n - sum(mu) == i:
            for k in rows:
                out[k] = 1
    return AlgebraElement._raw(n, out)


def expand_in_class_basis(
    a: AlgebraElement, n: int
) -> dict[Partition, int]:
    """Write a central element as sum of c_mu C_mu(n).

    Raises NotCentral when a class carries a non-constant coefficient
    or is only partially present.
    """
    if a.level != n:
        raise LevelMismatch(f"element lives at level {a.level}, not {n}")
    return _expand_by_type(
        a._t, stable_type_of_one_line,
        lambda mu: factorial(n) // z_value(completion(mu, n)), NotCentral, "class",
    )
