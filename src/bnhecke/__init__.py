"""Exact computational algebra for the Hecke ring of (S_2n, B_n).

The hyperoctahedral group B_n sits inside S_2n as the centralizer of
the fixed-point-free involution t = (1 2)(3 4)...(2n-1 2n), and
(S_2n, B_n) is a Gel'fand pair: its double cosets, classified by
coset type, span a commutative subring of the group algebra.  This
package computes in that ring with exact integer arithmetic, from
single permutations (coset types, the twist map, the pair graph)
through products and structure constants to the stable theory where
structure constants become integer-valued polynomials in n.

Structure constants of both bases are read off Jack polynomials
(zonal polynomials for K, Schur functions for C), and so is the
Matsumoto image, through the action of the odd Jucys-Murphy elements
on the zonal spherical functions, in pure Python with no build step
and no worker processes.  Importing the package, or running any CLI verb,
loads nothing outside the standard library.  Only the permutation
oracle the tests check those counts against, bnhecke._kernels_py
(LevelTable and its kernel), has a third-party dependency; the package
loads it only when perfbench asks bnhecke._backend for it.

The exports are lazy: ``import bnhecke`` loads no submodule, and the
first access to a name (``from bnhecke import hecke_product``) loads
only the submodule that defines it, and what that one imports.  Each
CLI verb likewise loads only the layers it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "_backend": "backend_name clear_caches",
    "errors": """DegreeMismatch HeckeError IndexOutOfRange InsufficientDegree
        LengthBound LevelMismatch NonCommutingValues NonIntegerCoefficient
        NotASubpartition NotBiInvariant NotCentral UsageError
        ValidationFailure WeightExceedsLevel""",
    "partitions": """Partition as_partition completion difference
        enumerate_by_weight is_subpartition multiplicity partitions_of
        subpartitions union vector_sum weight z_value""",
    "permutations": """Permutation cayley_degree class_representative compose
        enumerate_class identity parse_permutation symmetric_group
        transposition""",
    "cosets": """CoupleSet PairGraph coset_representative coset_type
        cycle_count delta_embed double_coset_size enumerate_double_coset
        gamma_graph hyperoctahedral_elements hyperoctahedral_generators
        hyperoctahedral_order is_hyperoctahedral modified_support phi sigma
        stable_coset_type t_perm twisted_degree""",
    "_symfunc": "SymmetricExpression complete elementary monomial power_sum",
    "group_algebra": """AlgebraElement b_sum class_structure_constant
        class_sum eval_elementary eval_symmetric expand_in_class_basis
        jucys_murphy multiply zi_generator""",
    "hecke": """GenerationCertificate HeckeElement TrichotomyReport
        expand_K generation_certificate generator_H hecke_product
        hecke_structure_constant matsumoto_image
        single_cycle_coefficient single_cycle_expansion trichotomy_report""",
    "universal": """FitResult GradedIsoReport IntegerValuedPolynomial
        fit_report fit_triple graded_iso_check ivp_fit
        universal_structure_constant""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_HOME})
