"""Row kernel for coset-type classification of permutation blocks.

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

It serves only bnhecke._backend.LevelTable, the oracle of the tests
and the table perfbench/probe.py times.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationFailure

__all__ = ["type_keys_product"]


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
