"""Structure-constant tallies, counted over perfect matchings: an oracle.

No verb counts here any more: every K-basis number comes from the
zonal spherical functions in bnhecke.characters.  product_tally is the
independent count the tests hold that path against.  It counts over
perfect matchings of [2n]: S_2n/B_n is in bijection with the (2n-1)!!
matchings through w B_n <-> w(eps), eps the couple matching.  Since
K_lam(n) is a union of left cosets x B_n and the stable coset type of
x^{-1} z only depends on x B_n,

    #{x in K_lam(n) : x^{-1} z in K_mu(n)}
        = |B_n| * #{delta : type(eps, delta) = lam, type(delta, z eps) = mu},

where type is the stable type of the union of two matchings.  The
product in the Hecke ring divides the left side by |B_n|, so the
matching count on the right is the structure constant b_{lam mu}^nu(n)
itself, and that is what the tallies hold.  The matchings and their
types against eps are cached per level, and one pass per (nu, n) fills
the tallies of every lam at once.  The counting functions import
bnhecke.cosets when they run, so backend_name and clear_caches load no
other layer.

The permutation oracle, which materializes all of S_2n and classifies
every row by stable coset type, lives in bnhecke._kernels_py; the tests
check the matching count against it.  Only the perfbench hook at the
end of this module loads it, on first access; no CLI verb does.

perfbench/traced_cli.py and perfbench/probe.py bind product_tally,
_TALLIES and backend_name here, and LevelTable, _KERNEL,
permutation_block and resolve_jobs through that hook.  These names go
when perfbench stops binding them (ROADMAP item 1); until then they
stay in src/ although only tests and perfbench call them.
"""

from __future__ import annotations

import sys

from .errors import UsageError, ValidationFailure
from .partitions import Partition, as_partition, check_weight, enumerate_by_weight

__all__ = [
    "backend_name",
    "product_tally",
    "clear_caches",
]

# Matchings are cheap (945 at n = 5); the tests lift the cap to 6 to
# recount the character path one level above what the CLI serves.
MAX_TALLY_LEVEL = 5


def backend_name() -> str:
    """The kernel implementation: always the pure-Python one."""
    return "pure"


_TALLIES: dict[tuple[Partition, Partition, int], dict[Partition, int]] = {}
_MATCHINGS: dict[int, list[tuple[tuple[int, ...], Partition]]] = {}


def _typed_matchings(n: int) -> list[tuple[tuple[int, ...], Partition]]:
    """Every matching delta of [2n] with its stable type against eps."""
    from .cosets import (
        double_coset_size,
        hyperoctahedral_order,
        matching_type,
        perfect_matchings,
    )

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
    from .cosets import (
        coset_representative,
        double_coset_size,
        hyperoctahedral_order,
        image_matching,
        matching_type,
    )

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
        _TALLIES[(lam, tuple(nu), n)] = row


def product_tally(lam: Partition, nu: Partition, n: int) -> dict[Partition, int]:
    """The structure constants b_{lam, mu}^{nu}(n) of every mu at once.

    The mu entry counts the matchings delta with type(eps, delta) = lam
    and type(delta, z_nu eps) = mu (see the module docstring); mu that
    count none are absent.  One pass fills the tally of every lam.
    """
    memo = (tuple(lam), tuple(nu), n)
    if memo not in _TALLIES:
        if not 1 <= n <= MAX_TALLY_LEVEL:
            raise UsageError(
                f"structure constants are counted for 1 <= n <= {MAX_TALLY_LEVEL}, "
                f"not n = {n}"
            )
        check_weight(as_partition(lam), n)
        _tally_level(nu, n)
    return _TALLIES[memo]


# memos in modules that clear_caches must not import
_LAZY_MEMOS = {
    "characters": ("_SPHERICAL", "_TABLES"),
    "universal": ("_FIT_CACHE",),
    "group_algebra": ("_CLASS_TABLES", "_CLASS_PRODUCTS"),
}


def clear_caches() -> None:
    """Empty the seven dict memos: spherical functions, character
    tables, matchings, tallies, fits, class tables and class products.

    The spherical functions and structure-constant tables (characters),
    the fit memo (universal) and the class memos (group_algebra) are
    cleared only if their module is loaded: a module not yet imported
    holds no memo, and clearing imports none.  Two memos stay by
    design: the functools.cache memos of _symfunc (p_k, h_k and the
    e-to-m matrices), which hold exact constants no input changes, and
    hecke's flag that the Matsumoto self-test passed.
    """
    _TALLIES.clear()
    _MATCHINGS.clear()
    for name, memos in _LAZY_MEMOS.items():
        module = sys.modules.get(f"{__package__}.{name}")
        if module is not None:
            for memo in memos:
                getattr(module, memo).clear()


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
