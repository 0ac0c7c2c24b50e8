"""The benchmark's workloads: seeded lists of ``bnhecke`` CLI invocations.

Each workload is a function of the seed returning the argv lists one
round runs, in order, each in a fresh process.  The seed only picks
among inputs of equal cost, so the timing of a round does not depend
on which seed was drawn; it changes the outputs the oracle checks.

- ``hecke-product``: the K-basis counting path.  ``product --n 5``
  builds the S_10 level table (about half its time) and runs one
  per-nu tally over K_(1,1)(5) for each of the 7 shapes nu (the other
  half).  The cost depends on the left factor only, so the seed draws
  the right factor.
- ``universal-fit``: the universal coefficients, fitted by counting
  (K basis, level tables at n = 2..5) and through the group algebra
  of S_n (C basis).
- ``matsumoto``: the sparse group algebra of S_10 and ``expand_K``
  with no level table.  Every seeded expression a*e2 + b*e1*e1 with
  a, b in 1..3 has the same support (all double cosets with
  |mu| <= 2), hence the same cost.
"""

from __future__ import annotations

import json
import random

SETUP_ARGV = ["coset-size", "--n", "3", "--mu", "[1]"]

PRODUCT_LEVEL = 5
PRODUCT_LHS = (1, 1)
PRODUCT_RHS_CHOICES = [(), (1,), (2,), (1, 1), (3,)]
EXPRESSION_LEVEL = 5
EXPRESSION_COEFFS = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]


def _shape(mu) -> str:
    return json.dumps(list(mu), separators=(",", ":"))


def product_argv(rhs) -> list[str]:
    return ["product", "--n", str(PRODUCT_LEVEL), "--lhs", _shape(PRODUCT_LHS),
            "--rhs", _shape(rhs)]


def expression_argv(a: int, b: int) -> list[str]:
    return ["matsumoto", "--n", str(EXPRESSION_LEVEL), "--expr",
            f"{a}*e2 + {b}*e1*e1"]


def hecke_product(rng: random.Random) -> list[list[str]]:
    return [
        ["table", "--n", "4"],
        ["verify", "--suite", "generators", "--max-n", "4"],
        product_argv(rng.choice(PRODUCT_RHS_CHOICES)),
        ["fit", "--max-weight", "0"],
    ]


def universal_fit(rng: random.Random) -> list[list[str]]:
    return [
        ["fit", "--max-weight", "4"],
        ["fit", "--max-weight", "4", "--basis", "C"],
    ]


def matsumoto(rng: random.Random) -> list[list[str]]:
    return [
        ["verify", "--suite", "matsumoto", "--n", "4"],
        ["verify", "--suite", "jm-center", "--max-n", "5"],
        *(expression_argv(a, b) for a, b in rng.sample(EXPRESSION_COEFFS, 2)),
        ["fit", "--max-weight", "4", "--basis", "C"],
    ]


WORKLOADS = {
    "hecke-product": hecke_product,
    "universal-fit": universal_fit,
    "matsumoto": matsumoto,
}


def invocations(workload: str, seed: int) -> list[list[str]]:
    return WORKLOADS[workload](random.Random(seed))


def every_invocation() -> list[list[str]]:
    """Every argv any seed can produce, for recording stdout digests."""
    out = [SETUP_ARGV]
    out += [product_argv(rhs) for rhs in PRODUCT_RHS_CHOICES]
    out += [expression_argv(a, b) for a, b in EXPRESSION_COEFFS]
    for make in WORKLOADS.values():
        out += [argv for argv in make(random.Random(0)) if argv not in out]
    return out
