"""Structure constants as polynomials in n: the stable limit rings.

For fixed stable types the coefficients b_{lam mu}^{nu}(n) are
integer-valued polynomials in n of degree at most the drop
|lam| + |mu| - |nu|: zero above the top degree |nu| = |lam| + |mu| and
constant on it.  Fitting them once therefore captures the product at
every level: the fitted polynomials are the structure constants of the
limit ring, whose abstract basis symbols K_mu surject onto each finite
level by evaluation.  The fits are what this module returns (and
`bnhecke fit` prints); it builds no element of the limit ring itself,
and the theorems about the constants are checked by the verify suites
of bnhecke.suites.

Polynomials live in the binomial basis sum c_k * binom(n, k), where
integer values at integers are automatic.  Every fit samples
consecutive levels, and integer values at consecutive integers have
integer forward differences (Polya 1915), so a fit divides nothing:
the forward differences at the first sample level, run back to level
0, are the binomial coefficients.  A fit above the degree bound, or
one that misses its held-out level, raises ValidationFailure.

The same machinery runs in two bases: the K basis (double cosets of
B_n in S_2n) and the C basis (conjugacy classes of S_n, the
Farahat-Higman center side).  Both read their structure constants
from one character path, bnhecke.characters (zonal polynomials for K,
Schur functions for C), so a fit loads neither bnhecke.hecke nor the
cosets nor the group algebra of S_n.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import count
from math import factorial

from .characters import _basis, _row
from .errors import ValidationFailure
from .partitions import (
    Partition,
    _integer,
    _memo,
    as_partition,
    enumerate_by_weight,
    weight,
)

__all__ = [
    "IntegerValuedPolynomial",
    "ivp_fit",
    "universal_structure_constant",
    "FitResult",
    "fit_triple",
    "fit_report",
    "MAX_SAMPLE_LEVEL",
]

# the highest level the fits sample; raising it changes what `fit` prints
MAX_SAMPLE_LEVEL = 5


def _binomial(n: int, k: int) -> int:
    # falling factorial over k!, valid at negative n as well
    num = 1
    for j in range(k):
        num *= n - j
    value, rem = divmod(num, factorial(k))
    if rem:
        raise ValidationFailure(f"binom({n}, {k}) left the remainder {rem}")
    return value


class IntegerValuedPolynomial:
    """Sum of c_k * binom(n, k) with integer c_k."""

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs=()):
        cs = [_integer(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls) -> "IntegerValuedPolynomial":
        return cls(())

    @property
    def degree(self) -> int:
        """Degree in n; the zero polynomial reports -1."""
        return len(self.coeffs) - 1

    def __call__(self, n: int) -> int:
        n = _integer(n)  # a float or a bool raises TypeError
        return sum(c * _binomial(n, k) for k, c in enumerate(self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int) and not isinstance(other, bool):
            other = IntegerValuedPolynomial((other,))
        if not isinstance(other, IntegerValuedPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("IntegerValuedPolynomial is immutable")

    def __repr__(self) -> str:
        if not self.coeffs:
            return "IVP(0)"
        parts = [
            f"{c}*C(n,{k})" if k else f"{c}"
            for k, c in enumerate(self.coeffs)
            if c
        ]
        return f"IVP({' + '.join(parts)})"

    def to_json(self) -> dict:
        return {"binomial_coeffs": list(self.coeffs)}


def _consecutive(levels: list[int]) -> None:
    """ValueError unless the sorted levels run n0, n0 + 1, ... from n0 >= 0."""
    if levels and (
        levels[0] < 0 or levels != [*range(levels[0], levels[-1] + 1)]
    ):
        raise ValueError(
            f"sample levels must be consecutive integers n >= 0, got {levels}"
        )


def ivp_fit(points) -> IntegerValuedPolynomial:
    """Minimal-degree integer-valued interpolant through (n, value) pairs.

    The levels n must be consecutive, n >= 0, and they and the values
    are integers (a float, a Fraction, a bool or a string raises
    TypeError).  The forward differences D^k f(x) at the first level,
    trailing zeros trimmed, step back one level at a time by
    D^k f(x - 1) = D^k f(x) - D^{k+1} f(x - 1); at level 0 they are the
    binomial coefficients.

    >>> ivp_fit([(2, 1), (3, 3), (4, 6)])
    IVP(1*C(n,2))
    """
    pts = sorted((_integer(n), _integer(v)) for n, v in points)
    if len(pts) < 2:
        raise ValueError("need at least 2 points to fit")
    _consecutive([n for n, _ in pts])
    row = [v for _, v in pts]
    diffs = []
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    while diffs and diffs[-1] == 0:
        diffs.pop()
    for _ in range(pts[0][0]):
        for k in range(len(diffs) - 2, -1, -1):
            diffs[k] -= diffs[k + 1]
    return IntegerValuedPolynomial(diffs)


def _plan(lam: Partition, mu: Partition, nu: Partition) -> tuple[int, int, int]:
    """(floor, drop, need) for a triple: the lowest sample level
    max(weights, 2), the degree bound drop = |lam| + |mu| - |nu| (deg b
    <= drop: Tout 2014 for K, Farahat-Higman 1959 for C) and the samples
    that pin it, max(drop + 1, 2), or 1 above the top degree, where b
    vanishes and one sample confirms it."""
    floor = max(weight(lam), weight(mu), weight(nu), 2)
    drop = sum(lam) + sum(mu) - sum(nu)
    return floor, drop, 1 if drop < 0 else max(drop + 1, 2)


def universal_structure_constant(
    lam: Partition,
    mu: Partition,
    nu: Partition,
    sample_ns,
    basis: str = "K",
) -> IntegerValuedPolynomial:
    """Fit b_{lam mu}^{nu}(n) over consecutive sample levels and check
    it at a held-out level.

    The holdout is the smallest level from max(weights, 2) up that is
    not in sample_ns, at most one above the samples; above the top
    degree, where b vanishes, the samples are checked against 0 too.  A
    miss, or a fit of degree above the drop that bounds it, raises
    ValidationFailure.
    """
    lam, mu, nu = as_partition(lam), as_partition(mu), as_partition(nu)
    floor, drop, need = _plan(lam, mu, nu)
    ns = sorted(set(_integer(n) for n in sample_ns))
    if any(n < floor for n in ns):
        raise ValueError(
            f"samples {ns} must all be at least the maximum weight {floor}"
        )
    _consecutive(ns)

    def b(n: int) -> int:
        # every level is at least every weight, so the types need no reader
        return _row(*sorted((lam, mu)), n, basis).get(nu, 0)

    checks = [next(n for n in count(floor) if n not in ns)]
    if drop < 0:
        # filtration zero case: nothing to fit, every sample is a check
        fitted = IntegerValuedPolynomial.zero()
        checks = ns + checks
    else:
        if len(ns) < need:
            raise ValueError(
                f"need at least {need} samples for expected degree "
                f"{drop}, got {len(ns)}"
            )
        fitted = ivp_fit([(n, b(n)) for n in ns])
        if fitted.degree > drop:
            raise ValidationFailure(
                f"f_{{{lam},{mu}}}^{nu} = {fitted} has degree {fitted.degree}, "
                f"above the bound {drop} = |lam| + |mu| - |nu|"
            )
    for n in checks:
        predicted = fitted(n)
        actual = b(n)
        if predicted != actual:
            raise ValidationFailure(
                f"f_{{{lam},{mu}}}^{nu} predicts {predicted} at n={n} "
                f"but counting gives {actual}"
            )
    return fitted


@_memo
def _fitted(
    basis: str, lam: Partition, mu: Partition, nu: Partition
) -> IntegerValuedPolynomial | None:
    """Fit on the standard plan; None marks an unfittable triple.  The
    product is symmetric, so callers pass lam <= mu and one fit serves
    both orders."""
    floor, _, need = _plan(lam, mu, nu)
    available = list(range(floor, MAX_SAMPLE_LEVEL + 1))
    if need > len(available):
        return None
    # the holdout is the next level after the samples: a miss raises,
    # since more samples would only hide the fault
    return universal_structure_constant(
        lam, mu, nu, available[:need], basis=basis
    )


class FitResult(
    namedtuple("FitResult", "lam mu nu classification polynomial")
):
    """One fitted (or unfittable) structure-constant triple.

    classification is zero, constant, polynomial or UNFITTED; polynomial
    is the fitted IntegerValuedPolynomial, None when UNFITTED.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        body: dict = {
            "lam": list(self.lam),
            "mu": list(self.mu),
            "nu": list(self.nu),
            "classification": self.classification,
        }
        if self.classification == "constant":
            body["constant"] = self.polynomial(0)
        elif self.classification == "polynomial":
            body["polynomial"] = self.polynomial.to_json()
        return body


def fit_triple(
    lam: Partition, mu: Partition, nu: Partition, basis: str = "K"
) -> FitResult:
    """Fit one triple on the standard sampling plan.

    Samples run upward from max(weights, 2), and the expected degree
    d = |lam|+|mu|-|nu| demands d + 1 of them, at least 2 (one when
    d < 0, where b vanishes), all at most MAX_SAMPLE_LEVEL.  The next
    level up is the holdout that checks the fit, MAX_SAMPLE_LEVEL + 1
    at the highest.  Triples whose demand exceeds the supply come back
    UNFITTED, never guessed.
    """
    lam, mu, nu = as_partition(lam), as_partition(mu), as_partition(nu)
    _basis(basis)
    f = _fitted(basis, *sorted((lam, mu)), nu)
    if f is None:
        return FitResult(lam, mu, nu, "UNFITTED", None)
    if not f:
        return FitResult(lam, mu, nu, "zero", f)
    if f.degree == 0:
        return FitResult(lam, mu, nu, "constant", f)
    return FitResult(lam, mu, nu, "polynomial", f)


def fit_report(max_weight: int, basis: str = "K") -> list[FitResult]:
    """fit_triple over every triple of weight at most max_weight."""
    shapes = enumerate_by_weight(max_weight)
    return [
        fit_triple(lam, mu, nu, basis)
        for lam in shapes
        for mu in shapes
        for nu in shapes
    ]
