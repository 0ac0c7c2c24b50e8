"""Structure-constant tallies, counted over perfect matchings.

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

The permutation oracle, which materializes all of S_2n and classifies
every row by stable coset type, lives in bnhecke._kernels_py; the tests
check the matching count against it.  Only the perfbench hook at the
end of this module loads it, on first access; no CLI verb does.
"""

from __future__ import annotations

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
    "product_tally",
    "clear_caches",
]

# Matchings are cheap (945 at n = 5); the cap is the highest level the
# fits sample (universal.MAX_SAMPLE_LEVEL), and raising it changes
# which triples fit.
MAX_TALLY_LEVEL = 5


def backend_name() -> str:
    """The kernel implementation: always the pure-Python one."""
    return "pure"


def partition_key(mu: Partition) -> int:
    """Pack a partition into descending 4-bit nibbles of a uint64.

    Tallies list mu in key order.
    """
    if any(p > 15 for p in mu) or len(mu) > 16:
        raise UsageError(f"partition {mu} does not fit the nibble key format")
    key = 0
    for shift, part in enumerate(mu):
        key |= part << (4 * shift)
    return key


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
        if not 1 <= n <= MAX_TALLY_LEVEL:
            raise UsageError(
                f"structure constants are counted for 1 <= n <= {MAX_TALLY_LEVEL}, "
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


# perfbench/probe.py and perfbench/traced_cli.py read the permutation
# oracle from this module.  These names load bnhecke._kernels_py on
# first access; the hook exists only for perfbench and goes away with
# the oracle (ROADMAP item 3).
_ORACLE_NAMES = {
    "LevelTable": "LevelTable",
    "permutation_block": "permutation_block",
    "resolve_jobs": "resolve_jobs",
    "_KERNEL": "type_keys_product",
}


def __getattr__(name: str):
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import _kernels_py

    return getattr(_kernels_py, _ORACLE_NAMES[name])
