"""The permutation oracle: a coset-type kernel and level tables of S_2n.

Given a block of permutations x of [2n] (0-based one-line rows) and a
fixed z, compute for every row the stable coset type of w = x^{-1} z,
packed into a uint64 key.  With z = identity this classifies the rows themselves,
since coset types are inverse-invariant.

Per row the twist phi(w) = t w^{-1} t w is evaluated pointwise as

    f(i) = zinv[ x[ inv_x[ z[i] ] ^ 1 ] ] ^ 1

(t is XOR with 1 on 0-based points) and its cycle lengths are walked.
Each part of the completed coset type appears exactly twice among the
lengths, so halving the multiplicities and stripping 1 from each part
yields the stable type, packed as descending 4-bit nibbles.

LevelTable materializes all of S_2n (lexicographic uint8 rows),
classifies every row with the kernel, and serves the rows of any double
coset K_mu(n) as a contiguous block.  This is the permutation oracle:
the tests check bnhecke._backend's matching count against it, and
perfbench/probe.py times the kernel and one level-5 build.  It is the
only module of the package that imports numpy, and no CLI verb
imports it.
"""

from __future__ import annotations

import os

import numpy as np

from ._backend import partition_key
from .cosets import double_coset_size
from .errors import UsageError, ValidationFailure, WeightExceedsLevel
from .partitions import Partition, weight

__all__ = [
    "type_keys_product",
    "key_partition",
    "permutation_block",
    "compute_keys",
    "compute_counts",
    "LevelTable",
    "resolve_jobs",
]

# S_10 is 3.6M rows; S_12 would be 479M.
MAX_TABLE_LEVEL = 5

# rows per kernel call, which bounds the rows.tolist() copy on S_10
_CHUNK = 1 << 16


def type_keys_product(
    rows: np.ndarray,
    z: np.ndarray,
    zinv: np.ndarray,
    out: np.ndarray,
) -> None:
    """Fill out[r] with the type key of rows[r]^{-1} z.

    rows is (N, m) uint8 with m = 2n <= 64; z, zinv are (m,) uint8;
    out is (N,) uint64.
    """
    m = len(z)
    z_l = z.tolist()
    zinv_l = zinv.tolist()
    inv = [0] * m
    counts = [0] * (m + 1)
    seen = bytearray(m)
    rows_l = rows.tolist()
    for r, row in enumerate(rows_l):
        for i in range(m):
            inv[row[i]] = i
        for i in range(m):
            seen[i] = 0
        key = 0
        shift = 0
        for start in range(m):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = 1
                j = zinv_l[row[inv[z_l[j]] ^ 1]] ^ 1
                length += 1
            counts[length] += 1
        for length in range(m, 0, -1):
            c = counts[length]
            if c:
                counts[length] = 0
                if c & 1:
                    raise ValidationFailure("odd twist-cycle multiplicity")
                if length > 1:
                    for _ in range(c >> 1):
                        key |= (length - 1) << shift
                        shift += 4
        out[r] = key


# resolve_jobs and the jobs argument of LevelTable serve only
# perfbench/probe.py, which times one level-5 build per worker count;
# the build itself is serial.
def resolve_jobs(explicit: int | None = None) -> int:
    """Worker count: HECKE_JOBS overrides an explicit request."""
    env = os.environ.get("HECKE_JOBS")
    if env is not None:
        try:
            jobs = int(env)
        except ValueError:
            raise UsageError(f"HECKE_JOBS must be an integer, not {env!r}") from None
    elif explicit is not None:
        jobs = explicit
    else:
        jobs = min(os.cpu_count() or 1, 8)
    if jobs < 1:
        raise UsageError(f"worker count must be positive, not {jobs}")
    return jobs


def key_partition(key: int) -> Partition:
    """Inverse of partition_key."""
    parts = []
    key = int(key)
    while key:
        parts.append(key & 0xF)
        key >>= 4
    return tuple(parts)


def permutation_block(m: int) -> np.ndarray:
    """All of S_m as an (m!, m) uint8 array of 0-based rows, lex order.

    Built level by level: the block for S_k is k stacked copies of the
    S_(k-1) block with each first element prepended and the remaining
    digits relabelled, which keeps everything vectorized.
    """
    block = np.zeros((1, 0), dtype=np.uint8)
    for k in range(1, m + 1):
        prev_count = block.shape[0]
        cur = np.empty((prev_count * k, k), dtype=np.uint8)
        for first in range(k):
            digits = np.array(
                [d for d in range(k) if d != first], dtype=np.uint8
            )
            seg = cur[first * prev_count : (first + 1) * prev_count]
            seg[:, 0] = first
            if k > 1:
                seg[:, 1:] = digits[block]
        block = cur
    return block


def compute_keys(rows: np.ndarray, z: np.ndarray, zinv: np.ndarray) -> np.ndarray:
    """Type key of rows[r]^{-1} z for every row."""
    out = np.empty(rows.shape[0], dtype=np.uint64)
    for a in range(0, rows.shape[0], _CHUNK):
        type_keys_product(rows[a : a + _CHUNK], z, zinv, out[a : a + _CHUNK])
    return out


def compute_counts(
    rows: np.ndarray, z: np.ndarray, zinv: np.ndarray
) -> dict[int, int]:
    """Histogram of type keys of rows[r]^{-1} z."""
    uniq, counts = np.unique(compute_keys(rows, z, zinv), return_counts=True)
    return {int(k): int(c) for k, c in zip(uniq, counts)}


class LevelTable:
    """All of S_2n grouped by stable coset type."""

    def __init__(self, n: int, jobs: int = 1):
        if not 1 <= n <= MAX_TABLE_LEVEL:
            raise UsageError(
                f"level tables cover 1 <= n <= {MAX_TABLE_LEVEL}; S_{2*n} "
                "would not fit in memory"
            )
        self.n = n
        m = 2 * n
        self._perms = permutation_block(m)
        ident = np.arange(m, dtype=np.uint8)
        keys = compute_keys(self._perms, ident, ident)
        self._order = np.argsort(keys, kind="stable")
        sorted_keys = keys[self._order]
        uniq, starts = np.unique(sorted_keys, return_index=True)
        self._uniq = uniq
        self._starts = np.append(starts, len(sorted_keys))
        for mu_key, size in zip(self._uniq, np.diff(self._starts)):
            mu = key_partition(int(mu_key))
            if size != double_coset_size(mu, n):
                raise ValidationFailure(
                    f"level {n} table holds {int(size)} rows of type {mu}, "
                    f"not |K_{mu}({n})| = {double_coset_size(mu, n)}"
                )

    def types(self) -> list[Partition]:
        return sorted(
            (key_partition(int(k)) for k in self._uniq),
            key=lambda mu: (weight(mu), mu),
        )

    def _span(self, mu: Partition) -> tuple[int, int]:
        if weight(mu) > self.n:
            raise WeightExceedsLevel(
                f"wt{mu} = {weight(mu)} exceeds level {self.n}"
            )
        key = partition_key(mu)
        pos = int(np.searchsorted(self._uniq, np.uint64(key)))
        if pos == len(self._uniq) or self._uniq[pos] != key:
            raise ValidationFailure(f"level {self.n} table has no rows of type {mu}")
        return int(self._starts[pos]), int(self._starts[pos + 1])

    def size(self, mu: Partition) -> int:
        lo, hi = self._span(mu)
        return hi - lo

    def rows(self, mu: Partition) -> np.ndarray:
        """The double coset K_mu(n) as a contiguous (size, 2n) block."""
        lo, hi = self._span(mu)
        return np.ascontiguousarray(self._perms[self._order[lo:hi]])
