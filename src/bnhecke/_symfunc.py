"""Symmetric-function expressions in the elementary basis.

Only evaluation at commuting algebra elements is ever needed, so a
symmetric function is stored as an integer combination of products of
elementary generators: a map from descending index tuples (k1 >= k2
>= ...) to integers, the tuple (2, 1, 1) meaning e2*e1*e1.  Power
sums come in through Newton's identity

    p_k = e_1 p_{k-1} - e_2 p_{k-2} + ... + (-1)^{k-1} k e_k,

complete functions through h_k = sum_i (-1)^{i-1} e_i h_{k-i}, and
monomial functions by back substitution through the integer matrix
[m_mu] p_lam of bnhecke.partitions, which is triangular in dominance.
evaluate runs the product DP prod_i (1 + t v_i) for the e_k once and
sums the e-monomials; the integer contents and 2-contents of
bnhecke.characters are evaluated through it, and so, in the tests,
are the Jucys-Murphy elements of bnhecke.group_algebra.  No expression goes
past degree MAX_DEGREE.  The constructor reads its terms, and the
sums merge them, through the integer-combination core of
bnhecke.partitions; sums, negations and products of expressions are
built unread (SymmetricExpression._raw).
"""

from __future__ import annotations

import json
import re
from functools import cache
from math import prod
from types import MappingProxyType

from .errors import ValidationFailure
from .partitions import (
    Partition,
    _add_terms,
    _integer,
    _power_sum_monomials,
    _read_terms,
    as_partition,
)

__all__ = ["SymmetricExpression", "elementary", "power_sum", "complete", "monomial"]

Monomial = tuple[int, ...]

# The highest degree an expression may reach: e_k, p_k, h_k and powers
# stop at k = MAX_DEGREE, and so does the degree of every e-monomial
# read and of every product.  There are p(k) e-monomials of degree k,
# so the cost grows fast: on a 2-CPU machine p_20 and h_20 (627
# e-monomials each) parse in about 0.02 s, and, with the cap raised,
# p_24 in 0.05 s and p_26 in 0.06 s, while p_12^12 did not finish in
# 10 s.  Below the cap a product multiplies at most 19321 pairs of
# e-monomials (every monomial of degree <= 10, squared).
MAX_DEGREE = 20

# The bit length a coefficient of a product or a power stays within; a
# literal is read through a product.  So every image prints within
# Python's 4300-digit int-to-str limit: c_kappa in F(J_1, J_3, ...,
# J_{2n-1}) * (sum of B_n) is the coefficient of one permutation, so at
# most the l1 norm of F(J_odd); e_k(J_odd) has norm <= e_k(0, 2, ...,
# 2n - 2) <= (n(n - 1))^k, so an e-monomial of degree <= 20 at n <= 12
# has norm < 132^20 < 10^43; an expression holds at most 2714
# e-monomials, each coefficient below 2^13000 < 10^3914, so |c_kappa| <
# 10^3961.  A sum of k terms adds at most log10(k) digits, and no text
# spells 10^339 summands, so sums go unchecked.
MAX_COEFFICIENT_BITS = 13_000


class SymmetricExpression:
    """An immutable integer polynomial in the elementary generators e_1,
    e_2, ...; coefficients, elementary indices, operands and exponents
    are read by partitions._integer.  The terms are held read-only, so
    the cached p_k, h_k and m_lam every caller shares cannot be changed."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Monomial, int] | None = None):
        object.__setattr__(
            self, "_terms", MappingProxyType(_read_terms(terms, _monomial_key))
        )

    @classmethod
    def _raw(cls, terms: dict[Monomial, int]) -> "SymmetricExpression":
        """An expression of terms the package built itself: descending
        index tuples and no zero coefficient, unread."""
        el = object.__new__(cls)
        object.__setattr__(el, "_terms", MappingProxyType(terms))
        return el

    @classmethod
    def zero(cls) -> "SymmetricExpression":
        return cls()

    @classmethod
    def one(cls) -> "SymmetricExpression":
        return cls({(): 1})

    @property
    def terms(self) -> dict[Monomial, int]:
        return dict(self._terms)

    def degree(self) -> int:
        return max((sum(m) for m in self._terms), default=0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int) and not isinstance(other, bool):
            other = SymmetricExpression({(): other})
        return (
            isinstance(other, SymmetricExpression)
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __setattr__(self, name, value):
        raise AttributeError("SymmetricExpression is immutable")

    def __add__(self, other) -> "SymmetricExpression":
        return SymmetricExpression._raw(_add_terms(self._terms, _coerce(other)._terms))

    __radd__ = __add__

    def __neg__(self) -> "SymmetricExpression":
        return SymmetricExpression._raw({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "SymmetricExpression":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "SymmetricExpression":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "SymmetricExpression":
        other = _coerce(other)
        degree = self.degree() + other.degree()
        if degree > MAX_DEGREE:
            raise ValueError(
                f"a product of degree {degree} exceeds the cap {MAX_DEGREE}"
            )
        out: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                key = tuple(sorted(m1 + m2, reverse=True))
                out[key] = out.get(key, 0) + c1 * c2
        if any(c.bit_length() > MAX_COEFFICIENT_BITS for c in out.values()):
            raise ValueError(
                f"a coefficient exceeds the cap 2^{MAX_COEFFICIENT_BITS}"
            )
        return SymmetricExpression._raw({m: c for m, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "SymmetricExpression":
        k = _integer(k)
        if k < 0:
            raise ValueError("negative powers are not symmetric polynomials")
        if k > MAX_DEGREE:
            raise ValueError(f"exponent {k} exceeds the cap {MAX_DEGREE}")
        out = SymmetricExpression.one()
        for _ in range(k):
            out = out * self
        return out

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for mono in sorted(self._terms, key=lambda m: (sum(m), m)):
            c = self._terms[mono]
            name = "*".join(f"e{k}" for k in mono) or "1"
            bits.append(f"{c}*{name}" if (c != 1 or not mono) else name)
        return " + ".join(bits)

    def evaluate(self, values, one):
        """The expression at pairwise commuting values v_1, ..., v_r.

        e_0, ..., e_top come from the product DP over prod_i (1 + t v_i),
        top the largest index in the expression, and each e-monomial is
        a product of them; e_k = 0 for k > r.  The values may be anything
        with +, * and int * x, and one is their unit: integers (with
        one = 1) or AlgebraElements.
        """
        zero = 0 * one
        top = max((mono[0] for mono in self._terms if mono), default=0)
        row = [one] + [zero] * top
        for i, v in enumerate(values):
            for j in range(min(i + 1, top), 0, -1):
                row[j] = row[j] + row[j - 1] * v
        acc = zero
        for mono, c in self._terms.items():
            acc = acc + c * prod(map(row.__getitem__, mono), start=one)
        return acc

    @classmethod
    def parse(cls, text: str) -> "SymmetricExpression":
        return _parse(text)


def _monomial_key(mono) -> Monomial:
    """An e-monomial read at the boundary: integer indices, all positive,
    sorted descending, of degree at most MAX_DEGREE."""
    key = tuple(sorted(map(_integer, mono), reverse=True))
    if key and key[-1] < 1:
        raise ValueError(f"elementary index must be positive: {mono}")
    if sum(key) > MAX_DEGREE:
        raise ValueError(
            f"e-monomial {key} of degree {sum(key)} exceeds the cap {MAX_DEGREE}"
        )
    return key


def _coerce(v) -> SymmetricExpression:
    if isinstance(v, SymmetricExpression):
        return v
    return SymmetricExpression({(): v})


def elementary(k: int) -> SymmetricExpression:
    """e_k; e_0 = 1."""
    if k < 0:
        raise ValueError("e_k needs k >= 0")
    return SymmetricExpression.one() if k == 0 else SymmetricExpression({(k,): 1})


@cache
def power_sum(k: int) -> SymmetricExpression:
    """p_k in the e-basis, via Newton's identity."""
    if k < 1:
        if k == 0:
            raise ValueError("p_0 depends on the variable count; not representable")
        raise ValueError("p_k needs k >= 1")
    if k > MAX_DEGREE:
        raise ValueError(f"p_{k} exceeds the degree cap {MAX_DEGREE}")
    acc = (-1) ** (k - 1) * k * elementary(k)
    for i in range(1, k):
        acc = acc + (-1) ** (i - 1) * elementary(i) * power_sum(k - i)
    return acc


@cache
def complete(k: int) -> SymmetricExpression:
    """h_k in the e-basis."""
    if k < 0:
        raise ValueError("h_k needs k >= 0")
    if k > MAX_DEGREE:
        raise ValueError(f"h_{k} exceeds the degree cap {MAX_DEGREE}")
    if k == 0:
        return SymmetricExpression.one()
    acc = SymmetricExpression.zero()
    for i in range(1, k + 1):
        acc = acc + (-1) ** (i - 1) * elementary(i) * complete(k - i)
    return acc


# The highest degree of m_lam: all monomials of degree d take 0.03 s at
# d = 8, 0.15 s at 10, 0.76 s at 12, 3.6 s at 14 and 20 s at 16 (one
# process, 2-CPU machine).  Raising it changes which argv exit 0.
_MONOMIAL_DEGREE_CAP = 8


@cache
def _monomial(lam: Partition) -> SymmetricExpression:
    """m_lam by back substitution down dominance: p_lam = sum over the
    mu of _power_sum_monomials(lam) of [m_mu] p_lam m_mu, and every mu
    but lam lies above it, so

        m_lam = (p_lam - sum over mu != lam of [m_mu] p_lam m_mu) / [m_lam] p_lam.

    m_lam has integral e-coefficients, so a division that leaves a
    remainder raises ValidationFailure.
    """
    row = _power_sum_monomials(lam)
    rest = SymmetricExpression.one()
    for k in lam:
        rest = rest * power_sum(k)
    for mu, c in row.items():
        if mu != lam:
            rest = rest - c * _monomial(mu)
    terms = {}
    for mono, x in rest._terms.items():
        terms[mono], rem = divmod(x, row[lam])
        if rem:
            raise ValidationFailure(
                f"the e-coefficient {mono} of m_{lam} is {x}/{row[lam]}: "
                f"the back substitution does not divide exactly"
            )
    return SymmetricExpression(terms)


def monomial(lam: Partition) -> SymmetricExpression:
    """The monomial symmetric function m_lam in the e-basis; lam is read
    by partitions.as_partition, so parts out of order raise ValueError.

    >>> monomial((2, 1))
    e2*e1 + -3*e3
    """
    lam = as_partition(lam)
    if sum(lam) > _MONOMIAL_DEGREE_CAP:
        raise ValueError(
            f"monomial conversion supported up to degree {_MONOMIAL_DEGREE_CAP}"
        )
    return _monomial(lam)


_TOKEN = re.compile(
    r"\s*(?:(?P<int>[0-9]+)|(?P<gen>[eph][0-9]+)|(?P<mono>m\[[0-9,\s]*\])|(?P<op>[-+*^()]))"
)


def _tokenize(text: str) -> list[str]:
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot tokenize {text[pos:]!r}")
        tokens.append(m.group(m.lastgroup))
        pos = m.end()
    tokens.append("$")
    return tokens


def _parse(text: str) -> SymmetricExpression:
    """Parse expressions like "e2*e1 - 3*p3 + h2^2 + m[2,1]"."""
    tokens = _tokenize(text)
    pos = 0

    def peek() -> str:
        return tokens[pos]

    def take() -> str:
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def atom() -> SymmetricExpression:
        tok = take()
        if tok == "(":
            v = expr()
            if take() != ")":
                raise ValueError("unbalanced parenthesis")
            return v
        if tok == "-":
            return -atom()
        if tok.isdigit():
            return SymmetricExpression.one() * int(tok)  # under the coefficient cap
        if tok[0] == "e":
            return elementary(int(tok[1:]))
        if tok[0] == "p":
            return power_sum(int(tok[1:]))
        if tok[0] == "h":
            return complete(int(tok[1:]))
        if tok[0] == "m":
            return monomial(tuple(json.loads(tok[1:])))
        raise ValueError(f"unexpected token {tok!r}")

    def factor() -> SymmetricExpression:
        v = atom()
        while peek() == "^":
            take()
            exponent = take()
            if not exponent.isdigit():
                raise ValueError("exponent must be a literal integer")
            v = v ** int(exponent)
        return v

    def term() -> SymmetricExpression:
        v = factor()
        while peek() == "*":
            take()
            v = v * factor()
        return v

    def expr() -> SymmetricExpression:
        v = term()
        while peek() in ("+", "-"):
            v = v + term() if take() == "+" else v - term()
        return v

    out = expr()
    if peek() != "$":
        raise ValueError(f"trailing input at token {peek()!r}")
    return out
