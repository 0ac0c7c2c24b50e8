"""Structure-constant tallies, and the permutation kernel and level tables.

Every K-basis number comes from product_tally, which counts over
perfect matchings of [2n]: S_2n/B_n is in bijection with the (2n-1)!!
matchings through w B_n <-> w(eps), eps the couple matching.  Since
K_lam(n) is a union of left cosets x B_n and the stable coset type of
x^{-1} z only depends on x B_n,

    #{x in K_lam(n) : x^{-1} z in K_mu(n)}
        = |B_n| * #{delta : type(eps, delta) = lam, type(delta, z eps) = mu},

where type is the stable type of the union of two matchings.  The
matchings and their types against eps are cached per level, and one
pass per (nu, n) fills the tallies of every lam at once.

The permutation kernel (bnhecke._kernels_py) and the LevelTable, which
materializes all of S_2n (lexicographic uint8 rows), classifies every
row by stable coset type, and serves the rows of any double coset
K_mu(n) as a contiguous block, serve only the tests, as the oracle of
the matching count, and perfbench/probe.py.
"""

from __future__ import annotations

import os

import numpy as np

from . import _kernels_py
from .errors import UsageError, ValidationFailure, WeightExceedsLevel
from .partitions import Partition, as_partition, enumerate_by_weight, weight
from .cosets import (
    coset_representative,
    double_coset_size,
    hyperoctahedral_order,
    image_matching,
    matching_type,
    perfect_matchings,
)

__all__ = [
    "backend_name",
    "partition_key",
    "key_partition",
    "permutation_block",
    "LevelTable",
    "product_tally",
    "clear_caches",
]

# S_10 is 3.6M rows; S_12 would be 479M.  Tallies share the cap, which
# fixes the levels that fit samples.
MAX_TABLE_LEVEL = 5

# rows per kernel call, which bounds the rows.tolist() copy on S_10
_CHUNK = 1 << 16

_KERNEL = _kernels_py.type_keys_product


def backend_name() -> str:
    """The kernel implementation: always the pure-Python one."""
    return "pure"


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


def partition_key(mu: Partition) -> int:
    """Pack a partition into descending 4-bit nibbles of a uint64."""
    if any(p > 15 for p in mu) or len(mu) > 16:
        raise UsageError(f"partition {mu} does not fit the nibble key format")
    key = 0
    for shift, part in enumerate(mu):
        key |= part << (4 * shift)
    return key


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
        _KERNEL(rows[a : a + _CHUNK], z, zinv, out[a : a + _CHUNK])
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


_TALLIES: dict[tuple[Partition, Partition, int], dict[Partition, int]] = {}
_MATCHINGS: dict[int, list[tuple[tuple[int, ...], Partition]]] = {}


def _typed_matchings(n: int) -> list[tuple[tuple[int, ...], Partition]]:
    """Every matching delta of [2n] with its stable type against eps."""
    if n not in _MATCHINGS:
        matchings = perfect_matchings(n)
        eps = matchings[0]
        typed = [(delta, matching_type(eps, delta)) for delta in matchings]
        order = hyperoctahedral_order(n)
        sizes: dict[Partition, int] = {}
        for _, lam in typed:
            sizes[lam] = sizes.get(lam, 0) + order
        expected = {lam: double_coset_size(lam, n) for lam in enumerate_by_weight(n)}
        if sizes != expected:
            raise ValidationFailure(
                f"matchings of [{2 * n}] by type, times |B_{n}|, give {sizes}, "
                "not the double coset sizes"
            )
        _MATCHINGS[n] = typed
    return _MATCHINGS[n]


def _tally_level(nu: Partition, n: int) -> None:
    """Fill _TALLIES for (lam, nu, n) and every lam in one pass."""
    z_eps = image_matching(coset_representative(nu, n).one_line(2 * n))
    by_lam: dict[Partition, dict[Partition, int]] = {}
    for delta, lam in _typed_matchings(n):
        row = by_lam.setdefault(lam, {})
        mu = matching_type(delta, z_eps)
        row[mu] = row.get(mu, 0) + 1
    order = hyperoctahedral_order(n)
    for lam, row in by_lam.items():
        total = sum(row.values()) * order
        if total != double_coset_size(lam, n):
            raise ValidationFailure(
                f"tally of K_{lam}({n}) against K_{nu}({n}) covers {total} "
                f"elements, not {double_coset_size(lam, n)}"
            )
    for lam, row in by_lam.items():
        _TALLIES[(lam, tuple(nu), n)] = {
            mu: row[mu] * order for mu in sorted(row, key=partition_key)
        }


def product_tally(lam: Partition, nu: Partition, n: int) -> dict[Partition, int]:
    """Count x in K_lam(n) by the stable coset type of x^{-1} z_nu.

    One pass serves every mu at once: the mu entry, divided by |B_n|,
    is the structure constant b_{lam, mu}^{nu}(n).  The count runs over
    matchings (see the module docstring) and one pass fills the tally
    of every lam.
    """
    memo = (tuple(lam), tuple(nu), n)
    if memo not in _TALLIES:
        if not 1 <= n <= MAX_TABLE_LEVEL:
            raise UsageError(
                f"structure constants are counted for 1 <= n <= {MAX_TABLE_LEVEL}, "
                f"not n = {n}"
            )
        lam = as_partition(lam)
        if weight(lam) > n:
            raise WeightExceedsLevel(f"wt{lam} = {weight(lam)} exceeds level {n}")
        _tally_level(nu, n)
    return _TALLIES[memo]


def clear_caches() -> None:
    """Empty every memo of the package: tallies, fits, class sums."""
    from . import group_algebra, universal

    for cache in (
        _TALLIES,
        _MATCHINGS,
        universal._FIT_CACHE,
        group_algebra._CLASS_TABLES,
        group_algebra._CLASS_PRODUCTS,
    ):
        cache.clear()
