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
agree, so double cosets K_mu(n) are indexed by partitions; their
sizes are the closed form bnhecke.partitions.double_coset_size.

Coset types are read off two perfect matchings (matching_type); the
oracle gamma_graph walks Gamma(w) with q = phi(w)^{-1} = w^{-1} t w t
and returns its cycles as plain tuples of vertices.  Since t q t =
q^{-1}, the map t pairs the q-orbits two by two, and each pair folds
into one graph cycle [i, t(i), q(i), t(q(i)), ...] of twice the orbit
length.  In particular the cycle lengths of phi(w) list every part of
the coset type exactly twice.

As with cycle types, dropping 1 from every part gives the *stable*
coset type, independent of the ambient 2n; its weight is the number of
couples that w fails to map onto couples.  modified_support returns
these couples as a frozenset of pairs (2j-1, 2j).  A
permutation is read at its embedding level, the least n >= 1 with w in
S_2n (_embedding_level, which the CLI verbs on one permutation share).
The perfect matchings feed the matching tally of bnhecke._backend, the
tests' oracle for the K basis; gamma_graph serves the coset-invariants
suite.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from .errors import DegreeMismatch, ValidationFailure
from .partitions import Partition, as_type, completion, double_coset_size
from .permutations import Permutation, class_representative, identity

__all__ = [
    "t_perm",
    "phi",
    "gamma_graph",
    "perfect_matchings",
    "matching_type",
    "image_matching",
    "coset_type",
    "stable_coset_type",
    "modified_support",
    "coset_representative",
    "enumerate_double_coset",
    "hyperoctahedral_generators",
    "hyperoctahedral_elements",
]


def _partner(i: int) -> int:
    """t(i): the other member of the couple containing i."""
    return i + 1 if i % 2 == 1 else i - 1


def _embedding_level(w: Permutation) -> int:
    """The least n >= 1 with w in S_2n; the identity embeds at n = 1."""
    return max(1, (w.degree + 1) // 2)


def _check_level(w: Permutation, n: int) -> None:
    if n < 1:
        raise DegreeMismatch(f"level must be positive, got {n}")
    if w.degree > 2 * n:
        raise DegreeMismatch(
            f"permutation moves point {w.degree}, beyond 2n = {2 * n}"
        )


def t_perm(n: int) -> Permutation:
    """The involution (1 2)(3 4)...(2n-1 2n)."""
    if n < 1:
        raise ValueError(f"level must be positive, got {n}")
    return Permutation(_partner(i) for i in range(1, 2 * n + 1))


def phi(w: Permutation, n: int) -> Permutation:
    """The twist phi(w) = t w^{-1} t w.

    >>> phi(Permutation.from_cycles([(2, 3)]), 2).cycle_string()
    '(1 4)(2 3)'
    """
    _check_level(w, n)
    t = t_perm(n)
    return t * w.inverse() * t * w


def gamma_graph(w: Permutation, n: int) -> tuple[tuple[int, ...], ...]:
    """The even cycles of Gamma(w), each from its least vertex, in that order."""
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
    return tuple(cycles)


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
    the couples eps and b = w^{-1}(eps) the union is Gamma(w), which w
    carries onto eps | w(eps): this is the stable coset type of w.
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


def image_matching(images) -> tuple[int, ...]:
    """The partner map of w(eps), w given by its 1-based one-line images."""
    mate = [0] * len(images)
    for i, image in enumerate(images):
        mate[image - 1] = images[i ^ 1] - 1
    return tuple(mate)


def stable_coset_type(w: Permutation) -> Partition:
    """Coset type with 1 subtracted from each part; level independent."""
    n = _embedding_level(w)
    eps = image_matching(range(1, 2 * n + 1))
    return matching_type(eps, image_matching(w.one_line(2 * n)))


def coset_type(w: Permutation, n: int) -> Partition:
    """Half-lengths of the Gamma(w) cycles; a partition of n."""
    _check_level(w, n)
    return completion(stable_coset_type(w), n)


def modified_support(w: Permutation) -> frozenset[tuple[int, int]]:
    """Couples C = (2j-1, 2j) with w(C) not a couple; empty iff w is in B_n.

    >>> sorted(modified_support(Permutation.from_cycles([(2, 3)])))
    [(1, 2), (3, 4)]
    """
    n = _embedding_level(w)
    return frozenset(
        (j - 1, j) for j in range(2, 2 * n + 1, 2) if w(j) != _partner(w(j - 1))
    )


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
    mu = as_type(mu, n)
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

