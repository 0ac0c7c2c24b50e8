"""Structure constants as polynomials in n: the stable limit rings.

For fixed stable types the coefficients b_{lam mu}^{nu}(n) are
integer-valued polynomials in n, zero above the top degree
|nu| = |lam| + |mu| and constant on it.  Fitting them once therefore
captures the product at every level: the fitted polynomials are the
structure constants of the limit ring, whose abstract basis symbols
K_mu surject onto each finite level by evaluation.  The fits are what
this module returns (and `bnhecke fit` prints); it builds no element
of the limit ring itself.

Polynomials live in the binomial basis sum c_k * binom(n, k), where
integer values at integers are automatic.  Every fit samples
consecutive levels, and integer values at consecutive integers have
integer forward differences (Polya 1915), so a fit divides nothing:
the forward differences at the first sample level, run back to level
0, are the binomial coefficients.

The same machinery runs in two bases: the K basis (double cosets of
B_n in S_2n) and the C basis (conjugacy classes of S_n, the
Farahat-Higman center side).  The graded comparison of the two is
the isomorphism check: top coefficients of C_lam C_(r) and
K_lam K_(r), each counted in its own basis, agree with each other and
with the one closed formula.  Both bases read their structure
constants from one character path, bnhecke.characters (zonal
polynomials for K, Schur functions for C), so a fit loads neither
bnhecke.hecke nor the cosets nor the group algebra of S_n.  The
graded comparison imports the closed formula from bnhecke.hecke when
first used.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import count
from math import factorial

from .characters import _basis, structure_constant
from .errors import ValidationFailure
from .partitions import (
    Partition,
    _integer,
    as_partition,
    enumerate_by_weight,
    weight,
)

__all__ = [
    "IntegerValuedPolynomial",
    "ivp_fit",
    "universal_structure_constant",
    "GradedIsoReport",
    "graded_iso_check",
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
    def constant(cls, c: int) -> "IntegerValuedPolynomial":
        return cls((c,))

    @classmethod
    def zero(cls) -> "IntegerValuedPolynomial":
        return cls(())

    @property
    def degree(self) -> int:
        """Degree in n; the zero polynomial reports -1."""
        return len(self.coeffs) - 1

    def __call__(self, n: int) -> int:
        return sum(c * _binomial(n, k) for k, c in enumerate(self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = IntegerValuedPolynomial.constant(other)
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
    miss raises ValidationFailure.
    """
    lam, mu, nu = as_partition(lam), as_partition(mu), as_partition(nu)
    floor = max(weight(lam), weight(mu), weight(nu), 2)
    ns = sorted(set(_integer(n) for n in sample_ns))
    if any(n < floor for n in ns):
        raise ValueError(
            f"samples {ns} must all be at least the maximum weight {floor}"
        )
    _consecutive(ns)
    checks = [next(n for n in count(floor) if n not in ns)]
    if sum(nu) > sum(lam) + sum(mu):
        # filtration zero case: nothing to fit, every sample is a check
        fitted = IntegerValuedPolynomial.zero()
        checks = ns + checks
    else:
        drop = sum(lam) + sum(mu) - sum(nu)
        required = max(drop + 1, 2)
        if len(ns) < required:
            raise ValueError(
                f"need at least {required} samples for expected degree "
                f"{drop}, got {len(ns)}"
            )
        fitted = ivp_fit(
            [(n, structure_constant(lam, mu, nu, n, basis)) for n in ns]
        )
    for n in checks:
        predicted = fitted(n)
        actual = structure_constant(lam, mu, nu, n, basis)
        if predicted != actual:
            raise ValidationFailure(
                f"f_{{{lam},{mu}}}^{nu} predicts {predicted} at n={n} "
                f"but counting gives {actual}"
            )
    return fitted


class GradedIsoEntry(
    namedtuple("GradedIsoEntry", "lam r rho nu formula brute_center brute_hecke")
):
    """One top coefficient of C_lam C_(r) and K_lam K_(r): the closed
    formula, which the two bases share, and the count in each basis
    (None when nu is dead at level n)."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        values = {self.formula, self.brute_center, self.brute_hecke}
        values.discard(None)
        return len(values) == 1

    def to_json(self) -> dict:
        return {
            "lam": list(self.lam),
            "r": self.r,
            "rho": list(self.rho),
            "nu": list(self.nu),
            "formula": self.formula,
            "brute_center": self.brute_center,
            "brute_hecke": self.brute_hecke,
            "ok": self.ok,
        }


class GradedIsoReport(namedtuple("GradedIsoReport", "max_weight n entries")):
    """Top-coefficient comparison between the C and K products."""

    __slots__ = ()

    @property
    def mismatches(self) -> tuple[GradedIsoEntry, ...]:
        return tuple(e for e in self.entries if not e.ok)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {
            "max_weight": self.max_weight,
            "n": self.n,
            "ok": self.ok,
            "entries": [e.to_json() for e in self.entries],
        }


def graded_iso_check(max_weight: int, n: int) -> GradedIsoReport:
    """Compare all single-cycle top coefficients within a weight window.

    For every lam and (r) of weight at most max_weight and admissible
    rho, the closed formula (hecke.single_cycle_coefficient, which the
    two sides share) is held against the actual top coefficient of
    C_lam C_(r) in the class basis of Z[S_n] and of K_lam K_(r) in the
    Hecke basis at level n, each from its own Jack polynomials (alpha =
    1 and alpha = 2 in bnhecke.characters).  Target symbols too
    heavy to exist at level n keep formula-only entries (brute fields
    None); mismatches become report entries, never exceptions.
    """
    if n < max_weight:
        raise ValueError(
            f"need n >= {max_weight} so every factor is alive at level {n}"
        )
    from .hecke import _admissible_terms

    entries = []
    for lam in enumerate_by_weight(max_weight):
        for r in range(1, max_weight):
            if weight((r,)) > max_weight:
                continue
            for rho, nu, b in _admissible_terms(lam, r):
                alive = weight(nu) <= n
                brute_c = (
                    structure_constant(lam, (r,), nu, n, "C") if alive else None
                )
                brute_k = (
                    structure_constant(lam, (r,), nu, n, "K") if alive else None
                )
                entries.append(
                    GradedIsoEntry(
                        lam=lam,
                        r=r,
                        rho=rho,
                        nu=nu,
                        formula=b,
                        brute_center=brute_c,
                        brute_hecke=brute_k,
                    )
                )
    return GradedIsoReport(max_weight=max_weight, n=n, entries=tuple(entries))


_FIT_CACHE: dict[tuple, IntegerValuedPolynomial | None] = {}


def _fitted(
    basis: str, lam: Partition, mu: Partition, nu: Partition
) -> IntegerValuedPolynomial | None:
    """Fit on the standard plan; None marks an unfittable triple."""
    key = (basis, lam, mu, nu)
    if key not in _FIT_CACHE:
        floor = max(weight(lam), weight(mu), weight(nu), 2)
        available = list(range(floor, MAX_SAMPLE_LEVEL + 1))
        drop = sum(lam) + sum(mu) - sum(nu)
        # degree-pinning samples; the holdout is the next level after
        # them; the zero case only needs one confirming sample
        need = 1 if drop < 0 else max(drop + 1, 2)
        if need > len(available):
            _FIT_CACHE[key] = None
        else:
            # deg b <= |lam| + |mu| - |nu| (Tout 2014 for K, Farahat-
            # Higman 1959 for C): a missed holdout raises, since more
            # samples would only hide the fault
            _FIT_CACHE[key] = universal_structure_constant(
                lam, mu, nu, available[:need], basis=basis
            )
        # symmetric product, one fit serves both orders
        _FIT_CACHE[(basis, mu, lam, nu)] = _FIT_CACHE[key]
    return _FIT_CACHE[key]


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
    f = _fitted(basis, lam, mu, nu)
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
