"""Finite-support permutations of the positive integers.

A permutation is stored in one-line form as a tuple of images with all
trailing fixed points trimmed, so equal permutations of different
ambient degrees compare (and hash) equal.  That makes the embeddings
S_n -> S_(n+1) -> ... invisible, which is exactly the infinite
symmetric group viewpoint: every value here is an element of the union
of all S_n, and operations take an explicit level only when the answer
depends on it.

Products act right to left: (x*y)(i) = x(y(i)).

>>> x = Permutation((2, 1, 3))
>>> y = Permutation((3, 2, 1))
>>> (x * y).images
(3, 1, 2)

The *stable cycle type* subtracts 1 from every cycle length and drops
fixed points; it does not depend on the ambient degree.  Its size is
the Cayley degree: the minimal number of transpositions whose product
is the permutation.  Both are module functions (stable_cycle_type,
cayley_degree), not methods.
"""

from __future__ import annotations

import itertools
import json
import re
from collections.abc import Iterable, Iterator

from .errors import DegreeMismatch
from .partitions import Partition, _integer, completion

__all__ = [
    "Permutation",
    "identity",
    "stable_cycle_type",
    "cayley_degree",
    "class_representative",
    "symmetric_group",
    "parse_permutation",
]


def _trim(images: tuple[int, ...]) -> tuple[int, ...]:
    d = len(images)
    while d > 0 and images[d - 1] == d:
        d -= 1
    return images[:d]


def stable_type_of_one_line(images) -> Partition:
    """Stable cycle type of a one-line sequence (1-based images).

    Tuple-level helper shared with the enumeration loops, where
    constructing Permutation objects per candidate would dominate.
    """
    n = len(images)
    seen = bytearray(n + 1)
    lengths: list[int] = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = 1
            j = images[j - 1]
            length += 1
        if length > 1:
            lengths.append(length - 1)
    return tuple(sorted(lengths, reverse=True))


class Permutation:
    """An element of the infinite symmetric group, one-line storage."""

    __slots__ = ("images",)

    images: tuple[int, ...]

    def __init__(self, images: Iterable[int]):
        imgs = tuple(_integer(i) for i in images)
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError(f"not a one-line permutation of 1..{len(imgs)}: {imgs}")
        object.__setattr__(self, "images", _trim(imgs))

    @classmethod
    def _raw(cls, trimmed: tuple[int, ...]) -> "Permutation":
        # trusted constructor: caller guarantees a trimmed bijection
        p = object.__new__(cls)
        object.__setattr__(p, "images", trimmed)
        return p

    @classmethod
    def from_cycles(cls, cycles: Iterable[Iterable[int]]) -> "Permutation":
        """Build from disjoint cycles, e.g. [(2, 3), (4, 5)]."""
        mapping: dict[int, int] = {}
        for cycle in cycles:
            cyc = [_integer(i) for i in cycle]
            if len(set(cyc)) != len(cyc):
                raise ValueError(f"repeated point in cycle {cyc}")
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if a in mapping:
                    raise ValueError(f"cycles not disjoint at point {a}")
                mapping[a] = b
        d = max(mapping, default=0)
        return cls(tuple(mapping.get(i, i) for i in range(1, d + 1)))

    @property
    def degree(self) -> int:
        """The smallest d with all points beyond d fixed."""
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1] if i <= len(self.images) else i

    def one_line(self, m: int) -> tuple[int, ...]:
        """One-line form padded with fixed points up to degree m."""
        if m < len(self.images):
            raise DegreeMismatch(
                f"permutation moves point {len(self.images)}, beyond degree {m}"
            )
        return self.images + tuple(range(len(self.images) + 1, m + 1))

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        d = max(len(self.images), len(other.images))
        return Permutation._raw(
            _trim(tuple(self(other(i)) for i in range(1, d + 1)))
        )

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation._raw(tuple(inv))  # inverse of trimmed is trimmed

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its minimum, sorted by minimum."""
        out: list[tuple[int, ...]] = []
        seen: set[int] = set()
        for start in range(1, len(self.images) + 1):
            if start in seen or self(start) == start:
                continue
            cycle = [start]
            seen.add(start)
            j = self(start)
            while j != start:
                cycle.append(j)
                seen.add(j)
                j = self(j)
            out.append(tuple(cycle))
        return out

    def cycle_string(self) -> str:
        """Cycle notation, "e" for the identity."""
        cycles = self.cycles()
        if not cycles:
            return "e"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Permutation") -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images < other.images

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)!r})"

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")


def identity() -> Permutation:
    return Permutation._raw(())


def stable_cycle_type(x: Permutation) -> Partition:
    return stable_type_of_one_line(x.images)


def cayley_degree(x: Permutation) -> int:
    """Minimal number of transpositions multiplying to x."""
    return sum(stable_cycle_type(x))


def symmetric_group(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic one-line order."""
    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation._raw(_trim(images))


def class_representative(mu: Partition, n: int) -> Permutation:
    """Canonical element of S_n with stable cycle type mu.

    Cycles of the completed type mu(n) are laid out on consecutive
    integers: (1 .. k1)(k1+1 .. k1+k2)...  Deterministic, so it can
    anchor coefficient reads in class-sum products.
    """
    images = list(range(1, n + 1))
    next_free = 1
    for part in completion(mu, n):
        block = list(range(next_free, next_free + part))
        for a, b in zip(block, block[1:] + block[:1]):
            images[a - 1] = b
        next_free += part
    return Permutation(images)


_CYCLE_TOKEN = re.compile(r"\(([^()]*)\)")
# int() alone would also read "1_0", "+2" and non-ASCII digits
_POINT = re.compile(r"[0-9]+")

# The largest point a permutation read from text may name: "(1 10000)"
# takes coset-type and phi 0.19 s and 0.22 s, start-up included (2-CPU
# machine), "(1 1000000)" 2.9 s and 5.3 s, and "(1 99999999999)" ran
# out of memory building the one-line tuple.
MAX_POINT = 10_000


def parse_permutation(text: str) -> Permutation:
    """Parse a one-line JSON array or a cycle string, no point above MAX_POINT.

    The two formats are distinguished by the first character, '[' for
    one-line images and '(' for cycles:

    >>> parse_permutation("[3,2,1,4]").cycle_string()
    '(1 3)'
    >>> parse_permutation("(2 3)(4 5)").images
    (1, 3, 2, 5, 4)
    """
    s = text.strip()
    if s in ("e", "()", "[]"):
        return identity()
    if s.startswith("["):
        data = json.loads(s)
        if not isinstance(data, list):
            raise ValueError(f"expected a JSON array of images: {text!r}")
        if len(data) > MAX_POINT:  # a bijection of 1..m names m
            raise ValueError(f"point {len(data)} exceeds the cap {MAX_POINT}")
        return Permutation(data)
    if s.startswith("("):
        body = s.replace(",", " ")
        matched = "".join(m.group(0) for m in _CYCLE_TOKEN.finditer(body))
        if matched.replace(" ", "") != body.replace(" ", ""):
            raise ValueError(f"malformed cycle string: {text!r}")
        tokens = [m.group(1).split() for m in _CYCLE_TOKEN.finditer(body)]
        if not all(_POINT.fullmatch(tok) for cycle in tokens for tok in cycle):
            raise ValueError(f"cycle points must be ASCII decimal integers: {text!r}")
        cycles = [[int(tok) for tok in cycle] for cycle in tokens if cycle]
        top = max((p for cycle in cycles for p in cycle), default=0)
        if top > MAX_POINT:
            raise ValueError(f"point {top} exceeds the cap {MAX_POINT}")
        return Permutation.from_cycles(cycles)
    raise ValueError(f"cannot parse permutation: {text!r}")
