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

Importing the package loads no submodule.  Every public name is
imported from the module that defines it, as in
``from bnhecke.hecke import hecke_product``.
"""

__version__ = "0.1.0"
