"""Integer partition arithmetic.

Partitions are plain tuples of positive integers in non-increasing
order; the empty tuple is the empty partition.  They index everything
else in the package: conjugacy classes, double cosets, and basis
elements, so the operations here stay deliberately small and total.

The *weight* of a partition is its size plus its length,

    wt(mu) = |mu| + len(mu),

which is the smallest n at which an object indexed by mu exists (a
permutation of stable cycle type mu needs wt(mu) points; likewise for
stable coset types).  The *completion* of mu at level n,

    mu(n) = mu + (1, 1, ..., 1)      (vector sum, n - |mu| ones),

is the honest partition of n obtained by adding 1 to each part and
padding with singletons; it converts a stable type back into the
ordinary type at a fixed level.

>>> completion((2, 1), 5)
(3, 2)
>>> weight((2, 2))
6
"""

from __future__ import annotations

import itertools
from math import factorial
from operator import index

from .errors import NotASubpartition, WeightExceedsLevel

__all__ = [
    "Partition",
    "as_partition",
    "weight",
    "multiplicity",
    "union",
    "vector_sum",
    "difference",
    "completion",
    "check_weight",
    "z_value",
    "enumerate_by_weight",
    "partitions_of",
    "subpartitions",
    "is_subpartition",
]

Partition = tuple[int, ...]


def _integer(x) -> int:
    """x read by operator.index, so a float or a numeric string raises
    TypeError instead of being truncated or parsed; so does a bool,
    which index would read as 0 or 1."""
    if isinstance(x, bool):
        raise TypeError(f"expected an integer, not the bool {x!r}")
    return index(x)


def as_partition(parts) -> Partition:
    """Validate and canonicalize a part sequence into a partition tuple.

    Accepts any iterable of positive integers; raises TypeError on a
    part that is not an integer (a float, a string or a bool) and
    ValueError on non-positive or increasing-out-of-order input rather
    than silently re-sorting, so malformed external data fails loudly.
    """
    mu = tuple(_integer(p) for p in parts)
    if any(p <= 0 for p in mu):
        raise ValueError(f"partition parts must be positive: {mu}")
    if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
        raise ValueError(f"partition parts must be non-increasing: {mu}")
    return mu


def weight(mu: Partition) -> int:
    """wt(mu) = |mu| + len(mu); 0 for the empty partition."""
    return sum(mu) + len(mu)


def multiplicity(mu: Partition, i: int) -> int:
    """Number of parts of mu equal to i (i >= 1)."""
    return mu.count(i)


def union(lam: Partition, mu: Partition) -> Partition:
    """Multiset union: all parts of both, re-sorted non-increasing."""
    return tuple(sorted(lam + mu, reverse=True))


def vector_sum(lam: Partition, mu: Partition) -> Partition:
    """Componentwise sum after zero-padding the shorter partition."""
    return tuple(
        a + b for a, b in itertools.zip_longest(lam, mu, fillvalue=0)
    )


def difference(lam: Partition, mu: Partition) -> Partition:
    """Multiset difference lam \\ mu.

    Raises NotASubpartition unless every part of mu occurs in lam with
    at least the same multiplicity.
    """
    remaining = list(lam)
    for p in mu:
        try:
            remaining.remove(p)
        except ValueError:
            raise NotASubpartition(
                f"{mu} is not a subpartition of {lam}: part {p} in excess"
            ) from None
    return tuple(remaining)


def is_subpartition(rho: Partition, lam: Partition) -> bool:
    """True iff rho is contained in lam as a multiset."""
    return all(rho.count(p) <= lam.count(p) for p in set(rho))


def check_weight(mu: Partition, n: int) -> None:
    """Raise WeightExceedsLevel unless wt(mu) <= n."""
    if weight(mu) > n:
        raise WeightExceedsLevel(f"wt{mu} = {weight(mu)} exceeds level {n}")


def completion(mu: Partition, n: int) -> Partition:
    """The level-n completion mu(n) = mu + (1^(n-|mu|)).

    The result is a partition of n with n - |mu| parts.  Defined only
    for wt(mu) <= n; otherwise there are fewer ones than parts of mu
    and no partition exists.
    """
    check_weight(mu, n)
    ones = n - sum(mu)
    return tuple(p + 1 for p in mu) + (1,) * (ones - len(mu))


def z_value(mu: Partition) -> int:
    """The centralizer order z_mu = prod_i i^(m_i) * m_i!.

    For mu a partition of n this is |S_n| / (size of the conjugacy
    class of cycle type mu).
    """
    z = 1
    for i in set(mu):
        m = mu.count(i)
        z *= i**m * factorial(m)
    return z


def subpartitions(lam: Partition) -> list[Partition]:
    """All sub-multisets of lam, each sorted non-increasing, no duplicates.

    >>> subpartitions((2, 1, 1))
    [(), (1,), (1, 1), (2,), (2, 1), (2, 1, 1)]
    """
    choices = [
        [(part,) * k for k in range(count + 1)]
        for part, count in sorted(
            {p: lam.count(p) for p in lam}.items(), reverse=True
        )
    ]
    subs = [
        tuple(itertools.chain.from_iterable(combo))
        for combo in itertools.product(*choices)
    ]
    return sorted(subs)


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n in descending lexicographic order.

    >>> partitions_of(4)
    [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    """
    if n < 0:
        return []
    result: list[Partition] = []

    def build(remaining: int, cap: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            result.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            build(remaining - part, part, prefix + (part,))

    build(n, n, ())
    return result


def enumerate_by_weight(n: int) -> list[Partition]:
    """All partitions of weight <= n, ordered by weight then lexicographically.

    This is the canonical index order for every basis and table in the
    package; it is a total order, so serialized output is reproducible.

    >>> enumerate_by_weight(4)
    [(), (1,), (2,), (1, 1), (3,)]
    """
    out: list[Partition] = []
    for w in range(n + 1):
        # weight w means |mu| + len(mu) = w: collect from partitions of
        # every size s < w whose length is w - s
        level = [
            mu
            for s in range(w + 1)
            for mu in partitions_of(s)
            if len(mu) == w - s
        ]
        out.extend(sorted(level))
    return out


def _expand_by_type(terms: dict, type_of, size_of, error, noun: str) -> dict:
    """The c_mu with terms = sum of c_mu * (all keys of type_of mu);
    raises error when a type carries two coefficients or misses members.

    Shared by the class basis (group_algebra) and the double-coset basis
    (hecke), whose keys are typed by partitions.
    """
    coeffs: dict = {}
    counts: dict[Partition, int] = {}
    for key, c in terms.items():
        mu = type_of(key)
        if coeffs.setdefault(mu, c) != c:
            raise error(f"{noun} {mu} carries coefficients {coeffs[mu]} and {c}")
        counts[mu] = counts.get(mu, 0) + 1
    for mu, seen in counts.items():
        size = size_of(mu)
        if seen != size:
            raise error(f"{noun} {mu} has {seen} of its {size} members present")
    return coeffs
