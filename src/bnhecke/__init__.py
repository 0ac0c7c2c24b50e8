"""Exact computational algebra for the Hecke ring of (S_2n, B_n).

The hyperoctahedral group B_n sits inside S_2n as the centralizer of
the fixed-point-free involution t = (1 2)(3 4)...(2n-1 2n), and
(S_2n, B_n) is a Gel'fand pair: its double cosets, classified by
coset type, span a commutative subring of the group algebra.  This
package computes in that ring with exact integer and rational
arithmetic, from single permutations (coset types, the twist map, the
pair graph) through products and structure constants to the stable
theory where structure constants become integer-valued polynomials
in n.

Structure constants are counted, and the Matsumoto image evaluated,
over perfect matchings of [2n], in pure Python with no build step and
no worker processes.  Importing the package, or running any CLI verb,
loads nothing outside the standard library.  Only the permutation
oracle the tests check those counts against, bnhecke._kernels_py
(LevelTable and its kernel), has a third-party dependency; the package
loads it only when perfbench asks bnhecke._backend for it.
"""

from ._backend import backend_name, clear_caches
from .errors import (
    DegreeMismatch,
    HeckeError,
    IndexOutOfRange,
    InsufficientDegree,
    LengthBound,
    LevelMismatch,
    NonCommutingValues,
    NonIntegerCoefficient,
    NotASubpartition,
    NotBiInvariant,
    NotCentral,
    UsageError,
    ValidationFailure,
    WeightExceedsLevel,
)
from .partitions import (
    Partition,
    as_partition,
    completion,
    difference,
    enumerate_by_weight,
    is_subpartition,
    multiplicity,
    partitions_of,
    subpartitions,
    union,
    vector_sum,
    weight,
    z_value,
)
from .permutations import (
    Permutation,
    cayley_degree,
    class_representative,
    compose,
    enumerate_class,
    identity,
    parse_permutation,
    symmetric_group,
    transposition,
)
from .cosets import (
    CoupleSet,
    PairGraph,
    coset_representative,
    coset_type,
    cycle_count,
    delta_embed,
    double_coset_size,
    enumerate_double_coset,
    gamma_graph,
    hyperoctahedral_elements,
    hyperoctahedral_generators,
    hyperoctahedral_order,
    is_hyperoctahedral,
    modified_support,
    phi,
    sigma,
    stable_coset_type,
    t_perm,
    twisted_degree,
)
from .group_algebra import (
    AlgebraElement,
    SymmetricExpression,
    b_sum,
    class_structure_constant,
    class_sum,
    complete,
    elementary,
    eval_elementary,
    eval_symmetric,
    expand_in_class_basis,
    jucys_murphy,
    monomial,
    multiply,
    power_sum,
    zi_generator,
)
from .hecke import (
    GenerationCertificate,
    HeckeElement,
    TrichotomyReport,
    double_coset_sum,
    expand_K,
    generation_certificate,
    generator_H,
    hecke_product,
    hecke_structure_constant,
    lift,
    matsumoto_image,
    single_cycle_coefficient,
    single_cycle_expansion,
    trichotomy_report,
)
from .universal import (
    FitResult,
    GradedIsoReport,
    IntegerValuedPolynomial,
    UniversalElement,
    fit_report,
    fit_triple,
    graded_iso_check,
    ivp_fit,
    t_generator,
    universal_product,
    universal_structure_constant,
)

__version__ = "0.1.0"
