"""Sparse exact arithmetic in the integral group ring of S_m.

Elements are sparse maps from permutations of [m] to integer
coefficients, with the product a * b extending composition bilinearly;
the sums, negation, scaling and equality are the integer-combination
core of bnhecke.partitions, which HeckeElement shares.  The center is
spanned by the class sums C_mu(n), indexed by stable cycle type, and
the structure constants a_{lam mu}^{nu}(n) are read off products of
class sums at a canonical class representative: the class sweep that
the tests hold bnhecke.characters against.

The Jucys-Murphy elements

    J_k = (1,k) + (2,k) + ... + (k-1,k),    J_1 = 0,

commute pairwise, which the jm-center suite checks here.  A symmetric
expression F (bnhecke._symfunc) evaluates at them by
F.evaluate(values, AlgebraElement.one(m)), the evaluator that reads F
at the integer contents for the characters; the image of F in the class
basis is read off the characters instead
(characters.matsumoto_coefficients(F, n, "C")), and the tests hold
the two against each other.  The class tables and class products are
memos that partitions.clear_caches empties.
"""

from __future__ import annotations

from .errors import IndexOutOfRange, ValidationFailure
from .partitions import (
    Partition,
    _Combination,
    _integer,
    _memo,
    as_partition,
    as_type,
    weight,
)
from .permutations import (
    Permutation,
    class_representative,
    stable_type_of_one_line,
    symmetric_group,
)

__all__ = [
    "AlgebraElement",
    "class_sum",
    "class_structure_constant",
    "jucys_murphy",
]

# the highest n whose S_n _class_table sweeps: n! rows, 0.2 s at n = 8
# (one process on a 2-CPU machine)
MAX_CLASS_TABLE_LEVEL = 8


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


@_memo
def _class_table(n: int) -> dict[Partition, list[tuple[int, ...]]]:
    """All of S_n keyed by stable cycle type; one sweep, cached."""
    if n > MAX_CLASS_TABLE_LEVEL:
        raise ValueError(
            f"class tables sweep all of S_n, so n <= {MAX_CLASS_TABLE_LEVEL}, not n = {n}"
        )
    table: dict[Partition, list[tuple[int, ...]]] = {}
    for w in symmetric_group(n):
        key = w.one_line(n)
        table.setdefault(stable_type_of_one_line(key), []).append(key)
    return table


def class_sum(mu: Partition, n: int) -> AlgebraElement:
    """C_mu(n): the sum of all w in S_n of stable cycle type mu.

    The zero element of level n when wt(mu) > n; n is read by _integer.
    """
    mu, n = as_partition(mu), _integer(n)
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
    lam, mu, nu = as_partition(lam), as_partition(mu), as_type(nu, n)
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

