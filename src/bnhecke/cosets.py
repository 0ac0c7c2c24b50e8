"""Geometry of the pair (S_2n, B_n).

Points 1..2n are grouped into couples {2j-1, 2j}; the hyperoctahedral
group B_n is the stabilizer of this couple set, equivalently the
centralizer of the involution

    t = (1 2)(3 4)...(2n-1 2n).

Everything here is driven by the twist

    phi(w) = t w^{-1} t w,

whose fixed locus is exactly B_n.  The pair graph Gamma(w) on vertex
set [2n] joins exterior partners i ~ t(i) and interior partners
i ~ w^{-1}(t(w(i))); it is a disjoint union of even cycles, and the
half-lengths form a partition of n, the *coset type* of w.  Two
permutations lie in the same B_n-double coset iff their coset types
agree, so double cosets K_mu(n) are indexed by partitions.

The walk below uses q = phi(w)^{-1} = w^{-1} t w t.  Since t q t =
q^{-1}, the map t pairs the q-orbits two by two, and each pair folds
into one graph cycle [i, t(i), q(i), t(q(i)), ...] of twice the orbit
length.  In particular the cycle lengths of phi(w) list every part of
the coset type exactly twice.

As with cycle types, dropping 1 from every part gives the *stable*
coset type, independent of the ambient 2n; its weight is the number of
couples that w fails to map onto couples (the modified support).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from math import factorial

from .errors import DegreeMismatch, ValidationFailure, WeightExceedsLevel
from .partitions import Partition, completion, weight, z_value
from .permutations import Permutation, class_representative, identity

__all__ = [
    "PairGraph",
    "CoupleSet",
    "t_perm",
    "sigma",
    "phi",
    "gamma_graph",
    "perfect_matchings",
    "matching_type",
    "coset_type",
    "stable_coset_type",
    "cycle_count",
    "modified_support",
    "twisted_degree",
    "is_hyperoctahedral",
    "delta_embed",
    "coset_representative",
    "enumerate_double_coset",
    "double_coset_size",
    "hyperoctahedral_order",
    "hyperoctahedral_generators",
    "hyperoctahedral_elements",
]


def _partner(i: int) -> int:
    """t(i): the other member of the couple containing i."""
    return i + 1 if i % 2 == 1 else i - 1


def _check_level(w: Permutation, n: int) -> None:
    if n < 1:
        raise DegreeMismatch(f"level must be positive, got {n}")
    if w.degree > 2 * n:
        raise DegreeMismatch(
            f"permutation moves point {w.degree}, beyond 2n = {2 * n}"
        )


@dataclass(frozen=True)
class PairGraph:
    """The cycles of Gamma(w) at level n, vertex labels 1..2n."""

    n: int
    cycles: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        labels = sorted(itertools.chain.from_iterable(self.cycles))
        if labels != list(range(1, 2 * self.n + 1)):
            raise ValueError("cycles must cover 1..2n exactly once")
        if any(len(c) % 2 for c in self.cycles):
            raise ValueError("pair-graph cycles alternate edges, so have even length")

    def half_lengths(self) -> Partition:
        return tuple(sorted((len(c) // 2 for c in self.cycles), reverse=True))

    @property
    def cycle_count(self) -> int:
        return len(self.cycles)

    def to_json(self) -> dict:
        return {"n": self.n, "cycles": [list(c) for c in self.cycles]}


@dataclass(frozen=True)
class CoupleSet:
    """A finite set of couples {2j-1, 2j}, stored as ordered pairs."""

    couples: frozenset[tuple[int, int]]

    def __post_init__(self):
        for a, b in self.couples:
            if a % 2 != 1 or b != a + 1:
                raise ValueError(f"({a}, {b}) is not a couple (2j-1, 2j)")

    @classmethod
    def from_indices(cls, indices) -> "CoupleSet":
        return cls(frozenset((2 * j - 1, 2 * j) for j in indices))

    def indices(self) -> frozenset[int]:
        return frozenset(a // 2 + 1 for a, _ in self.couples)

    def points(self) -> frozenset[int]:
        return frozenset(itertools.chain.from_iterable(self.couples))

    def __len__(self) -> int:
        return len(self.couples)

    def __contains__(self, pair) -> bool:
        return tuple(pair) in self.couples

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self.couples))

    def __le__(self, other: "CoupleSet") -> bool:
        return self.couples <= other.couples

    def __or__(self, other: "CoupleSet") -> "CoupleSet":
        return CoupleSet(self.couples | other.couples)

    def to_json(self) -> list[list[int]]:
        return [list(p) for p in sorted(self.couples)]


def t_perm(n: int) -> Permutation:
    """The involution (1 2)(3 4)...(2n-1 2n)."""
    if n < 1:
        raise ValueError(f"level must be positive, got {n}")
    return Permutation(_partner(i) for i in range(1, 2 * n + 1))


def sigma(w: Permutation, n: int) -> Permutation:
    """Conjugation by t: sigma(w) = t w t."""
    _check_level(w, n)
    t = t_perm(n)
    return t * w * t


def phi(w: Permutation, n: int) -> Permutation:
    """The twist phi(w) = sigma(w^{-1}) w = t w^{-1} t w.

    >>> phi(Permutation.from_cycles([(2, 3)]), 2).cycle_string()
    '(1 4)(2 3)'
    """
    _check_level(w, n)
    t = t_perm(n)
    return t * w.inverse() * t * w


def gamma_graph(w: Permutation, n: int) -> PairGraph:
    """The pair graph Gamma(w), cycles listed from their smallest vertex."""
    _check_level(w, n)
    images = w.one_line(2 * n)
    winv = [0] * (2 * n)
    for i, j in enumerate(images, start=1):
        winv[j - 1] = i
    seen = bytearray(2 * n + 1)
    cycles: list[tuple[int, ...]] = []
    for start in range(1, 2 * n + 1):
        if seen[start]:
            continue
        cycle: list[int] = []
        i = start
        while True:
            partner = _partner(i)
            if seen[i] or seen[partner]:
                raise ValidationFailure(f"pair graph of {w} revisits the couple of {i}")
            cycle.append(i)
            cycle.append(partner)
            seen[i] = seen[partner] = 1
            # q = phi(w)^{-1}: w^{-1} t w t applied to i
            i = winv[_partner(images[_partner(i) - 1]) - 1]
            if i == start:
                break
        cycles.append(tuple(cycle))
    return PairGraph(n, tuple(cycles))


def perfect_matchings(n: int) -> list[tuple[int, ...]]:
    """The (2n-1)!! perfect matchings of the 0-based points 0..2n-1.

    A matching is its partner map m, with m[m[i]] = i.  The coset w B_n
    corresponds to the matching w(eps) of the couples eps = {{0,1},
    {2,3}, ...}, which comes first in the list.

    >>> perfect_matchings(2)
    [(1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
    """
    if n < 1:
        raise ValueError(f"level must be positive, got {n}")
    out: list[tuple[int, ...]] = []
    mate = [0] * (2 * n)

    def extend(free: list[int]) -> None:
        if not free:
            out.append(tuple(mate))
            return
        a = free[0]
        for k in range(1, len(free)):
            b = free[k]
            mate[a], mate[b] = b, a
            extend(free[1:k] + free[k + 1 :])

    extend(list(range(2 * n)))
    return out


def matching_type(a: tuple[int, ...], b: tuple[int, ...]) -> Partition:
    """Stable type of the union of two perfect matchings (partner maps).

    a | b is a disjoint union of cycles alternating a- and b-edges; the
    half-lengths minus 1, zeros dropped, give the stable type.  With a
    the couples eps and b = w^{-1}(eps) the union is Gamma(w), so this
    is the stable coset type of w.
    """
    seen = bytearray(len(a))
    parts: list[int] = []
    for start in range(len(a)):
        if seen[start]:
            continue
        half = 0
        i = start
        while not seen[i]:
            j = a[i]
            seen[i] = seen[j] = 1
            i = b[j]
            half += 1
        if half > 1:
            parts.append(half - 1)
    parts.sort(reverse=True)
    return tuple(parts)


def coset_type(w: Permutation, n: int) -> Partition:
    """Half-lengths of the Gamma(w) cycles; a partition of n."""
    return gamma_graph(w, n).half_lengths()


def stable_coset_type(w: Permutation) -> Partition:
    """Coset type with 1 subtracted from each part; level independent."""
    n = max((w.degree + 1) // 2, 1)
    return tuple(p - 1 for p in coset_type(w, n) if p > 1)


def cycle_count(w: Permutation, n: int) -> int:
    """Number of cycles of Gamma(w), i.e. the length of the coset type."""
    return gamma_graph(w, n).cycle_count


def modified_support(w: Permutation) -> CoupleSet:
    """Couples C with w(C) not a couple; empty iff w is hyperoctahedral.

    >>> sorted(modified_support(Permutation.from_cycles([(2, 3)])))
    [(1, 2), (3, 4)]
    """
    n = (w.degree + 1) // 2
    return CoupleSet.from_indices(
        j for j in range(1, n + 1) if w(2 * j) != _partner(w(2 * j - 1))
    )


def twisted_degree(w: Permutation, n: int) -> int:
    """|w|' = |phi(w)|: Cayley degree of the twist, always even."""
    return phi(w, n).cayley_degree()


def is_hyperoctahedral(w: Permutation, n: int) -> bool:
    """True iff w permutes the couples of [2n], i.e. w is in B_n."""
    _check_level(w, n)
    return all(
        w(2 * j) == _partner(w(2 * j - 1)) for j in range(1, n + 1)
    )


def delta_embed(x: Permutation) -> Permutation:
    """The doubling homomorphism sending 2i-1, 2i to 2x(i)-1, 2x(i)."""
    images: list[int] = []
    for i in range(1, x.degree + 1):
        images.append(2 * x(i) - 1)
        images.append(2 * x(i))
    return Permutation(images)


def hyperoctahedral_order(n: int) -> int:
    """|B_n| = 2^n n!."""
    return 2**n * factorial(n)


def hyperoctahedral_generators(n: int) -> list[Permutation]:
    """Couple flips (2i-1, 2i) and couple swaps (2i-1 2j-1)(2i 2j)."""
    gens = [Permutation.from_cycles([(2 * i - 1, 2 * i)]) for i in range(1, n + 1)]
    gens.extend(
        Permutation.from_cycles([(2 * i - 1, 2 * j - 1), (2 * i, 2 * j)])
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    )
    return gens


def hyperoctahedral_elements(n: int) -> Iterator[Permutation]:
    """All 2^n n! elements of B_n.

    Each element permutes the couples by some pi in S_n and then flips
    an arbitrary subset of them, so the product over (pi, flips) is
    direct.
    """
    for pi in itertools.permutations(range(1, n + 1)):
        for flips in itertools.product((0, 1), repeat=n):
            images = [0] * (2 * n)
            for i in range(1, n + 1):
                s = flips[i - 1]
                images[2 * i - 2] = 2 * pi[i - 1] - 1 + s
                images[2 * i - 1] = 2 * pi[i - 1] - s
            yield Permutation(images)


def coset_representative(mu: Partition, n: int) -> Permutation:
    """Canonical element of K_mu(n): an odd-embedded cycle permutation.

    The canonical permutation of cycle type completion(mu, n) on [n] is
    transplanted onto the odd points 1, 3, ..., 2n-1, with even points
    fixed.  Its coset type is completion(mu, n), which is checked
    rather than trusted.

    >>> coset_representative((1,), 2).one_line(4)
    (3, 2, 1, 4)
    """
    if weight(mu) > n:
        raise WeightExceedsLevel(f"wt{mu} = {weight(mu)} exceeds level {n}")
    if not mu:
        return identity()
    base = class_representative(mu, n)
    images = [0] * (2 * n)
    for i in range(1, n + 1):
        images[2 * i - 2] = 2 * base(i) - 1
        images[2 * i - 1] = 2 * i
    rep = Permutation(images)
    if coset_type(rep, n) != completion(mu, n):
        raise ValidationFailure(
            f"representative {rep} of K_{mu}({n}) has coset type "
            f"{coset_type(rep, n)}, not {completion(mu, n)}"
        )
    return rep


def enumerate_double_coset(mu: Partition, n: int) -> set[Permutation]:
    """All of K_mu(n) = B_n . rep . B_n, by two-sided orbit closure.

    BFS from the representative under left and right multiplication by
    the B_n generators; no enumeration of S_2n is needed.
    """
    rep = coset_representative(mu, n)
    gens = hyperoctahedral_generators(n)
    seen = {rep}
    frontier = [rep]
    while frontier:
        new: list[Permutation] = []
        for w in frontier:
            for g in gens:
                for cand in (g * w, w * g):
                    if cand not in seen:
                        seen.add(cand)
                        new.append(cand)
        frontier = new
    if len(seen) != double_coset_size(mu, n):
        raise ValidationFailure(
            f"orbit of K_{mu}({n}) has {len(seen)} elements, not "
            f"{double_coset_size(mu, n)}"
        )
    return seen


def double_coset_size(mu: Partition, n: int) -> int:
    """|K_mu(n)| = |B_n|^2 / (2^{l(rho)} z_rho) with rho = completion(mu, n).

    >>> double_coset_size((1,), 3)
    288
    """
    if weight(mu) > n:
        raise WeightExceedsLevel(f"wt{mu} = {weight(mu)} exceeds level {n}")
    rho = completion(mu, n)
    order = hyperoctahedral_order(n)
    denominator = 2 ** len(rho) * z_value(rho)
    size, rem = divmod(order * order, denominator)
    if rem:
        raise ValidationFailure(
            f"|K_{mu}({n})| = {order * order}/{denominator} is not an integer"
        )
    return size
