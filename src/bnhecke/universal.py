"""Structure constants as polynomials in n, and the stable limit rings.

For fixed stable types the coefficients b_{lam mu}^{nu}(n) are
integer-valued polynomials in n, zero above the top degree
|nu| = |lam| + |mu| and constant on it.  Fitting them once therefore
captures the product at every level: the limit ring with abstract
basis symbols K_mu and polynomial structure constants surjects onto
each finite level by evaluation.

Polynomials live in the binomial basis sum c_k * binom(n, k), where
integer values at integers are automatic.  Fits use Newton divided
differences over exact rationals; a non-integer binomial coefficient
is a hard error rather than a rounding.

The same machinery runs in two bases: the K basis (double cosets of
B_n in S_2n) and the C basis (conjugacy classes of S_n, the
Farahat-Higman center side).  The graded comparison of the two is
the isomorphism check: top coefficients of C_lam C_(r) and
K_lam K_(r), each counted in its own basis, agree with each other and
with the one closed formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import (
    NonIntegerCoefficient,
    ValidationFailure,
)
from .group_algebra import (
    class_structure_constant,
    class_sum,
    expand_in_class_basis,
    multiply,
)
from .hecke import (
    HeckeElement,
    hecke_product,
    hecke_structure_constant,
    _admissible_terms,
)
from .partitions import (
    Partition,
    as_partition,
    enumerate_by_weight,
    partitions_of,
    weight,
)

__all__ = [
    "IntegerValuedPolynomial",
    "ivp_fit",
    "universal_structure_constant",
    "GradedIsoReport",
    "graded_iso_check",
    "UniversalElement",
    "t_generator",
    "universal_product",
    "FitResult",
    "fit_triple",
    "fit_report",
    "MAX_SAMPLE_LEVEL",
]

# the counting cap of the backend; raising it changes which triples fit
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
        cs = [int(c) for c in coeffs]
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

    def __add__(self, other):
        if isinstance(other, int):
            other = IntegerValuedPolynomial.constant(other)
        if not isinstance(other, IntegerValuedPolynomial):
            return NotImplemented
        width = max(len(self.coeffs), len(other.coeffs))
        def at(t, k): return t[k] if k < len(t) else 0
        return IntegerValuedPolynomial(
            at(self.coeffs, k) + at(other.coeffs, k) for k in range(width)
        )

    def __neg__(self):
        return IntegerValuedPolynomial(-c for c in self.coeffs)

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntegerValuedPolynomial.constant(other)
        if not isinstance(other, IntegerValuedPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = IntegerValuedPolynomial.constant(other)
        if not isinstance(other, IntegerValuedPolynomial):
            return NotImplemented
        if not self or not other:
            return IntegerValuedPolynomial.zero()
        # products of integer-valued polynomials are integer valued,
        # so refitting from sampled values stays in the basis
        d = self.degree + other.degree
        samples = [self(n) * other(n) for n in range(d + 1)]
        return _difference_fit(samples)

    __rmul__ = __mul__
    __radd__ = __add__

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


def _difference_fit(values) -> IntegerValuedPolynomial:
    """Binomial coefficients of the polynomial with f(k) = values[k]."""
    row = [Fraction(v) for v in values]
    coeffs = []
    while row:
        c = row[0]
        if c.denominator != 1:
            raise NonIntegerCoefficient(
                f"finite difference {c} is not an integer"
            )
        coeffs.append(int(c))
        row = [b - a for a, b in zip(row, row[1:])]
    return IntegerValuedPolynomial(coeffs)


def ivp_fit(points) -> IntegerValuedPolynomial:
    """Minimal-degree integer-valued interpolant through (n, value) pairs.

    Newton divided differences over exact rationals, then conversion
    to the binomial basis by forward differences at 0..d.
    """
    pts = [(int(n), Fraction(v)) for n, v in points]
    if len(pts) < 2:
        raise ValueError("need at least 2 points to fit")
    ns = [n for n, _ in pts]
    if len(set(ns)) != len(ns):
        raise ValueError(f"sample levels must be distinct, got {ns}")
    pts.sort()
    xs = [n for n, _ in pts]
    table = [v for _, v in pts]
    newton = [table[0]]
    for k in range(1, len(pts)):
        table = [
            (table[j + 1] - table[j]) / (xs[j + k] - xs[j])
            for j in range(len(table) - 1)
        ]
        newton.append(table[0])
    while newton and newton[-1] == 0:
        newton.pop()
    degree = max(len(newton) - 1, 0)

    def evaluate(n: int) -> Fraction:
        acc = Fraction(0)
        for k in range(len(newton) - 1, -1, -1):
            acc = acc * (n - xs[k]) + newton[k]
        return acc

    return _difference_fit([evaluate(k) for k in range(degree + 1)])


def _constant_for(basis: str):
    if basis == "K":
        return hecke_structure_constant
    if basis == "C":
        return class_structure_constant
    raise ValueError(f"basis must be 'K' or 'C', got {basis!r}")


def universal_structure_constant(
    lam: Partition,
    mu: Partition,
    nu: Partition,
    sample_ns,
    holdout: int | None = None,
    basis: str = "K",
) -> IntegerValuedPolynomial:
    """Fit b_{lam mu}^{nu}(n) over sample_ns and validate on a holdout.

    When no holdout is given, the smallest untouched level up to
    MAX_SAMPLE_LEVEL serves; if every usable level was sampled the
    validation is vacuous.
    """
    lam, mu, nu = as_partition(lam), as_partition(mu), as_partition(nu)
    constant_at = _constant_for(basis)
    floor = max(weight(lam), weight(mu), weight(nu), 2)
    ns = sorted(set(int(n) for n in sample_ns))
    if any(n < floor for n in ns):
        raise ValueError(
            f"samples {ns} must all be at least the maximum weight {floor}"
        )
    if sum(nu) > sum(lam) + sum(mu):
        # filtration zero case: nothing to fit, just confirm the samples
        for n in ns:
            value = constant_at(lam, mu, nu, n)
            if value:
                raise ValidationFailure(
                    f"f_{{{lam},{mu}}}^{nu} must vanish above top degree "
                    f"but counts {value} at n={n}"
                )
        fitted = IntegerValuedPolynomial.zero()
    else:
        drop = sum(lam) + sum(mu) - sum(nu)
        required = max(drop + 1, 2)
        if len(ns) < required:
            raise ValueError(
                f"need at least {required} samples for expected degree "
                f"{drop}, got {len(ns)}"
            )
        fitted = ivp_fit([(n, constant_at(lam, mu, nu, n)) for n in ns])
    if holdout is None:
        holdout = next(
            (
                n
                for n in range(floor, MAX_SAMPLE_LEVEL + 1)
                if n not in ns
            ),
            None,
        )
    if holdout is not None:
        predicted = fitted(holdout)
        actual = constant_at(lam, mu, nu, holdout)
        if predicted != actual:
            raise ValidationFailure(
                f"f_{{{lam},{mu}}}^{nu} predicts {predicted} at n={holdout} "
                f"but counting gives {actual}"
            )
    return fitted


@dataclass(frozen=True)
class GradedIsoEntry:
    lam: Partition
    r: int
    rho: Partition
    nu: Partition
    formula_center: int
    formula_hecke: int
    brute_center: int | None
    brute_hecke: int | None

    @property
    def ok(self) -> bool:
        values = {
            self.formula_center,
            self.formula_hecke,
            self.brute_center,
            self.brute_hecke,
        }
        values.discard(None)
        return len(values) == 1

    def to_json(self) -> dict:
        return {
            "lam": list(self.lam),
            "r": self.r,
            "rho": list(self.rho),
            "nu": list(self.nu),
            "formula_center": self.formula_center,
            "formula_hecke": self.formula_hecke,
            "brute_center": self.brute_center,
            "brute_hecke": self.brute_hecke,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class GradedIsoReport:
    """Top-coefficient comparison between the C and K products."""

    max_weight: int
    n: int
    entries: tuple[GradedIsoEntry, ...]

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
    Hecke basis at level n.  Target symbols too
    heavy to exist at level n keep formula-only entries (brute fields
    None); mismatches become report entries, never exceptions.
    """
    if n < max_weight:
        raise ValueError(
            f"need n >= {max_weight} so every factor is alive at level {n}"
        )
    entries = []
    for lam in enumerate_by_weight(max_weight):
        for r in range(1, max_weight):
            if weight((r,)) > max_weight:
                continue
            for rho, nu, b in _admissible_terms(lam, r):
                alive = weight(nu) <= n
                brute_c = (
                    class_structure_constant(lam, (r,), nu, n) if alive else None
                )
                brute_k = (
                    hecke_structure_constant(lam, (r,), nu, n) if alive else None
                )
                entries.append(
                    GradedIsoEntry(
                        lam=lam,
                        r=r,
                        rho=rho,
                        nu=nu,
                        formula_center=b,
                        formula_hecke=b,
                        brute_center=brute_c,
                        brute_hecke=brute_k,
                    )
                )
    return GradedIsoReport(max_weight=max_weight, n=n, entries=tuple(entries))


class UniversalElement:
    """A combination of abstract basis symbols with polynomial coefficients.

    Tracks a weight cutoff: keys beyond it are not represented, and
    products truncate to the smaller cutoff of the two factors.  The
    basis tag selects double-coset symbols K_mu or class symbols C_mu;
    the two multiply by different (fitted) structure constants.
    """

    __slots__ = ("basis", "weight_cutoff", "coeffs")

    def __init__(self, basis: str, weight_cutoff: int, coeffs: dict | None = None):
        if basis not in ("K", "C"):
            raise ValueError(f"basis must be 'K' or 'C', got {basis!r}")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "weight_cutoff", int(weight_cutoff))
        data: dict[Partition, IntegerValuedPolynomial] = {}
        for mu, c in (coeffs or {}).items():
            mu = as_partition(mu)
            if weight(mu) > self.weight_cutoff:
                raise ValueError(
                    f"wt{mu} = {weight(mu)} exceeds cutoff {self.weight_cutoff}"
                )
            if isinstance(c, int):
                c = IntegerValuedPolynomial.constant(c)
            if c:
                data[mu] = data.get(mu, IntegerValuedPolynomial.zero()) + c
        object.__setattr__(
            self, "coeffs", {k: v for k, v in data.items() if v}
        )

    def coefficient(self, mu: Partition) -> IntegerValuedPolynomial:
        return self.coeffs.get(tuple(mu), IntegerValuedPolynomial.zero())

    def specialize(self, n: int) -> dict[Partition, int]:
        """Evaluate every coefficient at n, dropping symbols dead at level n."""
        return {
            mu: c(n)
            for mu, c in self.coeffs.items()
            if weight(mu) <= n and c(n)
        }

    def to_hecke(self, n: int) -> HeckeElement:
        if self.basis != "K":
            raise ValueError("only the K basis specializes to a Hecke element")
        return HeckeElement(n, self.specialize(n))

    def __add__(self, other: "UniversalElement") -> "UniversalElement":
        if not isinstance(other, UniversalElement):
            return NotImplemented
        if self.basis != other.basis:
            raise ValueError("cannot mix the K and C bases")
        cutoff = min(self.weight_cutoff, other.weight_cutoff)
        out: dict[Partition, IntegerValuedPolynomial] = {}
        for src in (self.coeffs, other.coeffs):
            for mu, c in src.items():
                if weight(mu) <= cutoff:
                    out[mu] = out.get(mu, IntegerValuedPolynomial.zero()) + c
        return UniversalElement(self.basis, cutoff, out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, UniversalElement)
            and self.basis == other.basis
            and self.weight_cutoff == other.weight_cutoff
            and self.coeffs == other.coeffs
        )

    def __setattr__(self, name, value):
        raise AttributeError("UniversalElement is immutable")

    def __repr__(self) -> str:
        body = ", ".join(
            f"{self.basis}_{mu}: {c!r}"
            for mu, c in sorted(
                self.coeffs.items(), key=lambda kv: (weight(kv[0]), kv[0])
            )
        )
        return f"UniversalElement({self.basis}, wt<={self.weight_cutoff}, {{{body}}})"

    def to_json(self) -> dict:
        return {
            "basis": self.basis,
            "weight_cutoff": self.weight_cutoff,
            "coeffs": [
                {"mu": list(mu), "polynomial": self.coeffs[mu].to_json()}
                for mu in sorted(
                    self.coeffs, key=lambda m: (weight(m), m)
                )
            ],
        }


def t_generator(i: int, cutoff: int, basis: str = "K") -> UniversalElement:
    """T_i (or S_i with basis 'C'): the sum of symbols over l(mu) = i.

    The size |mu| runs up to cutoff; with unbounded weight these are
    the free polynomial generators of the limit ring.
    """
    if i < 1:
        raise ValueError(f"generator index must be positive, got {i}")
    coeffs = {
        mu: 1
        for size in range(i, cutoff + 1)
        for mu in partitions_of(size)
        if len(mu) == i
    }
    return UniversalElement(basis, cutoff + i, coeffs)


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
            while True:
                try:
                    _FIT_CACHE[key] = universal_structure_constant(
                        lam, mu, nu, available[:need], basis=basis
                    )
                    break
                except ValidationFailure:
                    # degree heuristic too small: escalate by one sample
                    need += 1
                    if need > len(available):
                        raise
        # symmetric product, one fit serves both orders
        _FIT_CACHE[(basis, mu, lam, nu)] = _FIT_CACHE[key]
    return _FIT_CACHE[key]


def universal_product(
    u: UniversalElement, v: UniversalElement
) -> UniversalElement:
    """Bilinear product through fitted structure polynomials.

    Truncates to the smaller cutoff and then proves itself: at every
    level where all tracked symbols are alive, the specialization must
    reproduce the concrete product coefficient for coefficient on the
    tracked window.
    """
    if u.basis != v.basis:
        raise ValueError("cannot multiply across the K and C bases")
    basis = u.basis
    cutoff = min(u.weight_cutoff, v.weight_cutoff)
    out: dict[Partition, IntegerValuedPolynomial] = {}
    for nu in enumerate_by_weight(cutoff):
        acc = IntegerValuedPolynomial.zero()
        for lam, cu in u.coeffs.items():
            for mu, cv in v.coeffs.items():
                if sum(nu) > sum(lam) + sum(mu):
                    continue
                f = _fitted(basis, lam, mu, nu)
                if f is None:
                    raise ValidationFailure(
                        f"triple ({lam}, {mu}, {nu}) is UNFITTED within "
                        f"level {MAX_SAMPLE_LEVEL}; cannot form the product"
                    )
                acc = acc + cu * cv * f
        if acc:
            out[nu] = acc
    result = UniversalElement(basis, cutoff, out)
    _assert_specializations(u, v, result)
    return result


def _assert_specializations(
    u: UniversalElement, v: UniversalElement, result: UniversalElement
) -> None:
    alive = max(
        (weight(mu) for mu in (*u.coeffs, *v.coeffs)), default=0
    )
    for n in range(max(alive, 2), MAX_SAMPLE_LEVEL + 1):
        window = min(result.weight_cutoff, n)
        want = _brute_window(u, v, n, window)
        got = {
            mu: c
            for mu, c in result.specialize(n).items()
            if weight(mu) <= window
        }
        if got != want:
            raise ValidationFailure(
                f"universal product disagrees with the level-{n} product "
                f"on the weight-{window} window: {got} vs {want}"
            )


def _brute_window(
    u: UniversalElement, v: UniversalElement, n: int, window: int
) -> dict[Partition, int]:
    if u.basis == "K":
        prod = hecke_product(u.to_hecke(n), v.to_hecke(n))
        return {
            mu: int(c)
            for mu, c in prod.coeffs.items()
            if weight(mu) <= window
        }
    lift_u = _class_combination(u, n)
    lift_v = _class_combination(v, n)
    coeffs = expand_in_class_basis(multiply(lift_u, lift_v), n)
    return {
        mu: int(c) for mu, c in coeffs.items() if weight(mu) <= window and c
    }


def _class_combination(u: UniversalElement, n: int):
    acc = None
    for mu, c in u.specialize(n).items():
        term = class_sum(mu, n).scale(c)
        acc = term if acc is None else acc + term
    if acc is None:
        from .group_algebra import AlgebraElement

        acc = AlgebraElement.zero(n)
    return acc


@dataclass(frozen=True)
class FitResult:
    """One fitted (or unfittable) structure-constant triple."""

    lam: Partition
    mu: Partition
    nu: Partition
    classification: str  # zero | constant | polynomial | UNFITTED
    polynomial: IntegerValuedPolynomial | None

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

    Samples run over max(weights)..MAX_SAMPLE_LEVEL and the expected
    degree |lam|+|mu|-|nu| demands degree + 2 of them; triples whose
    demand exceeds the supply come back UNFITTED, never guessed.
    """
    lam, mu, nu = as_partition(lam), as_partition(mu), as_partition(nu)
    _constant_for(basis)
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
