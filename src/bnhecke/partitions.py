"""Integer partition arithmetic.

Partitions are plain tuples of positive integers in non-increasing
order; the empty tuple is the empty partition.  They index everything
else in the package: conjugacy classes, double cosets, and basis
elements, so the operations here stay deliberately small and total.

The *weight* of a partition is its size plus its length,

    wt(mu) = |mu| + len(mu),

which is the smallest n at which an object indexed by mu exists (a
permutation of stable cycle type mu needs wt(mu) points; likewise for
stable coset types).  as_type reads a stable type at level n by that
rule, for every entry that takes one.  The *completion* of mu at level n,

    mu(n) = mu + (1, 1, ..., 1)      (vector sum, n - |mu| ones),

is the honest partition of n obtained by adding 1 to each part and
padding with singletons; it converts a stable type back into the
ordinary type at a fixed level.

The closed forms |B_n| = 2^n n! and |K_mu(n)| live here too, so
evaluating them loads no permutation code.  So do the caps the CLI
reads without loading their modules (MAX_SPHERICAL_LEVEL on the
levels of bnhecke.characters, MAX_FIT_WEIGHT on the weight of the fits),
the integer-combination core (_read_terms, _add_terms, _Combination)
that HeckeElement and AlgebraElement share (and the tests' e-basis
oracle), and the one memo idiom: _memo is a typed functools cache with
its cache_clear registered, and clear_caches runs every registered clear.  Every module
that holds a memo imports this one, so clearing loads no other module.

>>> completion((2, 1), 5)
(3, 2)
>>> weight((2, 2))
6
"""

from __future__ import annotations

import itertools
from functools import cache, lru_cache
from math import factorial
from operator import index

from .errors import (
    LevelMismatch,
    NotASubpartition,
    ValidationFailure,
    WeightExceedsLevel,
)

__all__ = [
    "Partition",
    "MAX_SPHERICAL_LEVEL",
    "MAX_FIT_WEIGHT",
    "as_partition",
    "weight",
    "union",
    "difference",
    "completion",
    "as_type",
    "z_value",
    "hyperoctahedral_order",
    "double_coset_size",
    "enumerate_by_weight",
    "cycle_sum",
    "partitions_of",
    "subpartitions",
    "clear_caches",
]

Partition = tuple[int, ...]

# the cache_clear of every memo that clear_caches empties
_MEMO_CLEARS: list = []


def _memo(fn):
    """A typed functools cache on fn, so a level True or 5.0 reaches the
    reader inside fn; its cache_clear registered with clear_caches."""
    fn = lru_cache(maxsize=None, typed=True)(fn)
    _MEMO_CLEARS.append(fn.cache_clear)
    return fn


def clear_caches() -> None:
    """Empty every memo that grows with the levels and triples asked
    for: the spherical functions and structure-constant rows
    (characters), the fits (universal), the class tables and products
    (group_algebra), and the matchings and tallies (_backend).

    A memo registers when its module loads, so a module not yet
    imported holds no memo and clearing imports none.  Two kinds of
    memo stay by design: the plain functools.cache memo of [m_mu] p_lam
    (here), which holds exact constants no input changes, and hecke's
    cached pass of the Matsumoto self-test.
    """
    for clear in _MEMO_CLEARS:
        clear()


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


def union(lam: Partition, mu: Partition) -> Partition:
    """Multiset union: all parts of both, re-sorted non-increasing."""
    return tuple(sorted(lam + mu, reverse=True))


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


def as_type(parts, n: int) -> Partition:
    """parts (read by as_partition) as a stable type at level n (read by
    _integer): the one reader of that input, so WeightExceedsLevel unless wt <= n."""
    mu = as_partition(parts)
    if weight(mu) > _integer(n):
        raise WeightExceedsLevel(f"wt{mu} = {weight(mu)} exceeds level {n}")
    return mu


def completion(mu: Partition, n: int) -> Partition:
    """The level-n completion mu(n) = mu + (1^(n-|mu|)).

    The result is a partition of n with n - |mu| parts.  Defined only
    for wt(mu) <= n; otherwise there are fewer ones than parts of mu
    and no partition exists.
    """
    mu = as_type(mu, n)
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


# the highest level whose spherical functions, and so whose products,
# structure constants and Matsumoto images, bnhecke.characters builds:
# the integer recurrence takes 0.12 s at n = 12 and 0.5 s at n = 14
# (one alpha, 2-CPU machine)
MAX_SPHERICAL_LEVEL = 12
# the largest weight of the triples fit --max-weight and the trichotomy
# suite sweep
MAX_FIT_WEIGHT = 4


def hyperoctahedral_order(n: int) -> int:
    """|B_n| = 2^n n!."""
    return 2**n * factorial(n)


def double_coset_size(mu: Partition, n: int) -> int:
    """|K_mu(n)| = |B_n|^2 / (2^{l(rho)} z_rho) with rho = completion(mu, n).

    >>> double_coset_size((1,), 3)
    288
    """
    rho = completion(mu, n)  # raises WeightExceedsLevel past level n
    order = hyperoctahedral_order(n)
    denominator = 2 ** len(rho) * z_value(rho)
    size, rem = divmod(order * order, denominator)
    if rem:
        raise ValidationFailure(
            f"|K_{mu}({n})| = {order * order}/{denominator} is not an integer"
        )
    return size


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
    return sorted(
        (mu for s in range(n + 1) for mu in partitions_of(s) if weight(mu) <= n),
        key=lambda mu: (weight(mu), mu),
    )


def cycle_sum(i: int, n: int) -> dict[Partition, int]:
    """The sum of the basis elements whose type has i cycles, as {mu: 1}
    over the mu of weight <= n with |mu| = n - i (completion(mu, n) has
    i parts): H_i in the K basis, the pair graphs in S_2n with i cycles,
    and Z_i in the C basis, the permutations of S_n with i cycles.  The
    paper's theorem, and Jucys', make each e_{n-i} of its Jucys-Murphy
    alphabet.

    >>> cycle_sum(2, 4)
    {(2,): 1, (1, 1): 1}
    """
    return {mu: 1 for mu in enumerate_by_weight(n) if sum(mu) == n - i}


@cache
def _power_sum_monomials(lam: Partition) -> dict[Partition, int]:
    """{mu: [m_mu] p_lam} over the mu with a non-zero coefficient: the
    mu that merge parts of lam, all of them lam or above in dominance.

    p_lam = p_k p_rest for k = lam[0], and p_k m_nu = sum over the
    values v of 0 and the parts of nu of c m_mu, mu = nu with one v
    raised to v + k and c the multiplicity of v + k in mu (Macdonald,
    Symmetric Functions and Hall Polynomials, I.6).  Kept per lam, so
    one build serves every caller; the caller must not change it.

    >>> _power_sum_monomials((1, 1))
    {(2,): 1, (1, 1): 2}
    """
    if not lam:
        return {(): 1}
    k = lam[0]
    out: dict[Partition, int] = {}
    for nu, c in _power_sum_monomials(lam[1:]).items():
        for v in dict.fromkeys((*nu, 0)):
            i = nu.index(v) if v else len(nu)
            mu = tuple(sorted((*nu[:i], v + k, *nu[i + 1 :]), reverse=True))
            out[mu] = out.get(mu, 0) + c * mu.count(v + k)
    return out


def _expand_by_type(terms: dict, type_of, size_of, error, noun: str) -> dict:
    """The c_mu with terms = sum of c_mu * (all keys of type_of mu);
    raises error when a type carries two coefficients or misses members.

    hecke.expand_K reads the double-coset basis with it, and the class
    basis oracle of the tests (tests/oracles.py) the class sums.
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


def _read_terms(terms, read_key) -> dict:
    """{key: coefficient} read from a mapping at the boundary: every key
    through read_key, every coefficient through _integer, equal keys
    merged and zeros dropped."""
    out: dict = {}
    for key, c in (terms or {}).items():
        key = read_key(key)
        out[key] = out.get(key, 0) + _integer(c)
    return {k: c for k, c in out.items() if c}


def _add_terms(a: dict, b: dict, sign: int = 1) -> dict:
    """a + sign * b for two read term maps, zeros dropped."""
    out = a.copy()  # a dict even when a is a read-only proxy, and as fast
    for k, c in b.items():
        s = out.get(k, 0) + sign * c
        if s:
            out[k] = s
        else:
            del out[k]
    return out


class _Combination:
    """An immutable Z combination of keys at a level >= 1, its terms read
    by _read_terms with the subclass's _key; _raw takes terms the
    package built itself (canonical keys, no zero) unread.  + and - need
    one class and level (else LevelMismatch); a subclass adds its product.
    """

    __slots__ = ("level", "_t")

    level: int
    _t: dict

    def __init__(self, level: int, terms=None):
        level = _integer(level)
        if level < 1:
            raise ValueError(f"level must be positive, got {level}")
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "_t", _read_terms(terms, self._key))

    @classmethod
    def _raw(cls, level: int, terms: dict):
        el = object.__new__(cls)
        object.__setattr__(el, "level", level)
        object.__setattr__(el, "_t", terms)
        return el

    @classmethod
    def zero(cls, level: int):
        return cls(level)

    def _check_level(self, other) -> None:
        if self.level != other.level:
            raise LevelMismatch(
                f"cannot combine levels {self.level} and {other.level}"
            )

    def _combine(self, other, sign: int):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_level(other)
        return self._raw(self.level, _add_terms(self._t, other._t, sign))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._raw(self.level, {k: -c for k, c in self._t.items()})

    def scale(self, c: int):
        c = _integer(c)
        return self._raw(
            self.level, {k: v * c for k, v in self._t.items()} if c else {}
        )

    __rmul__ = scale

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, type(self))
            and self.level == other.level
            and self._t == other._t
        )

    def __bool__(self) -> bool:
        return bool(self._t)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")
