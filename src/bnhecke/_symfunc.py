"""Symmetric-function expressions, evaluated at an alphabet.

Only values at pairwise commuting elements are ever needed: the
Matsumoto image of bnhecke.characters reads F(A_rho) at each alphabet
A_rho of (2-)contents, and the tests evaluate F at the Jucys-Murphy
elements of bnhecke.group_algebra.  So parse builds a small immutable
tree, and evaluate computes F at the values directly, with no
expansion in a basis: p_k as sum v^k, e_k and h_k by the product DPs
over prod_i (1 + t v_i) and prod_i 1 / (1 - t v_i), and m_lam by a DP
over the variables on the sub-multisets of lam; a subtree the parse
shares is computed once.  A refusal under BOUND_BITS is a ValueError.

>>> F = SymmetricExpression.parse("p2 - e1^2 + 2*e2")
>>> F.evaluate([1, 2, 3], 1), SymmetricExpression.parse("m[2,1]").evaluate([1, 2], 1)
(0, 6)
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from math import prod

from .partitions import _integer, as_partition

__all__ = ["SymmetricExpression", "elementary", "BOUND_BITS"]

# Every index, part and exponent is refused above BOUND_BITS before any
# arithmetic, and so is a literal of more bits; every integer evaluate
# computes must stay within BOUND_BITS bits.  That keeps every Matsumoto
# image within Python's 4300-digit int-to-str limit, since 2^14000 <
# 10^4215, at every level and in both bases: c_kappa = sum_rho W_rho
# F(A_rho) omega^rho_kappa with W_rho >= 0 and sum_rho W_rho = 1, as
# sum dim(2 rho) = (2n - 1)!! in K and sum (dim rho)^2 = n! in C, and
# |omega^rho_kappa| <= 1, so |c_kappa| <= max_rho |F(A_rho)| < 2^14000.
# Every expression the former e-basis caps admitted (degree <= 20,
# coefficients below 2^13000) stays below 2^13200 at each alphabet of a
# level <= 12.
BOUND_BITS = 14_000


def _bounded(x):
    if isinstance(x, int) and (bits := x.bit_length()) > BOUND_BITS:
        raise ValueError(f"a value of {bits} bits exceeds the bound of {BOUND_BITS} bits")
    return x


def _index(k: int, what: str) -> int:
    if _integer(k) > BOUND_BITS:
        raise ValueError(f"{what} {k} exceeds the bound {BOUND_BITS}")
    return k


def _power(x, k: int, one):
    """x^k; an integer power is refused before it is taken when
    |x|^k >= 2^((bits of x - 1) k) already passes the bound."""
    if isinstance(x, int):
        if (abs(x).bit_length() - 1) * k > BOUND_BITS:
            raise ValueError(f"a power {k} exceeds the bound of {BOUND_BITS} bits")
        return _bounded(x**k)
    return prod([x] * k, start=one)


class SymmetricExpression(namedtuple("SymmetricExpression", "tree text")):
    """A symmetric function as an immutable tree of tuples: ("int", c),
    ("e", k), ("p", k), ("h", k), ("m", lam), ("^", base, exponents),
    ("*", factors) and ("+", ((sign, term), ...)), with the text it was
    parsed from as its repr."""

    __slots__ = ()

    def __repr__(self) -> str:
        return self.text

    @classmethod
    def parse(cls, text: str) -> "SymmetricExpression":
        return cls(_parse(text), text)

    def evaluate(self, values, one):
        """The expression at pairwise commuting values v_1, ..., v_r:
        anything with +, -, * and int * x, one their unit, such as
        integers (one = 1) or AlgebraElements.  e_k = 0 for k > r."""
        values = list(values)
        zero = 0 * one
        memo = {}

        def at(node):
            got = memo.get(id(node))
            if got is not None:
                return got
            op, arg = node[0], node[1]
            if op == "int":
                got = arg * one
            elif op == "p":
                got = zero
                for v in values:
                    got = _bounded(got + _power(v, arg, one))
            elif op in ("e", "h"):
                got = _elementary_or_complete(op, arg, values, one, zero)
            elif op == "m":
                got = _monomial(arg, values, one, zero)
            elif op == "^":
                got = at(arg)
                for k in node[2]:
                    got = _power(got, k, one)
            elif op == "*":
                got = at(arg[0])
                for factor in arg[1:]:
                    got = _bounded(got * at(factor))
            else:
                got = zero
                for sign, term in arg:
                    got = _bounded(got + at(term) if sign > 0 else got - at(term))
            memo[id(node)] = got
            return got

        return at(self.tree)


def _elementary_or_complete(op: str, k: int, values, one, zero):
    """e_k by the DP over prod_i (1 + t v_i), which runs j downwards, or
    h_k by the DP over prod_i 1 / (1 - t v_i), which runs j upwards."""
    if op == "e" and k > len(values):
        return zero
    row = [one] + [zero] * k
    for v in values:
        for j in range(1, k + 1) if op == "h" else range(k, 0, -1):
            row[j] = _bounded(row[j] + row[j - 1] * v)
    return row[k]


def _monomial(lam: tuple, values, one, zero):
    """m_lam by a DP over the variables: row maps each sub-multiset of lam
    placed so far, as the count of each distinct part, to the sum of its
    products, and the next variable takes one part or none.  A state with
    more parts left than variables is dropped."""
    if len(lam) > len(values):
        return zero
    parts = sorted(set(lam))
    full = tuple(lam.count(d) for d in parts)
    row = {(0,) * len(parts): one}
    for left, v in zip(range(len(values) - 1, -1, -1), values):
        powers = [_power(v, d, one) for d in parts]
        nxt = {}
        for state, x in row.items():
            if len(lam) - sum(state) <= left:
                nxt[state] = _bounded(nxt.get(state, zero) + x)
            for j, d in enumerate(parts):
                if state[j] < full[j]:
                    s = (*state[:j], state[j] + 1, *state[j + 1:])
                    nxt[s] = _bounded(nxt.get(s, zero) + x * powers[j])
        row = nxt
    return row.get(full, zero)


def elementary(k: int) -> SymmetricExpression:
    """e_k; e_0 = 1."""
    if _index(k, "index") < 0:
        raise ValueError("e_k needs k >= 0")
    return SymmetricExpression(("e", k), f"e{k}")


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


def _parse(text: str) -> tuple:
    """The tree of expressions like "e2*e1 - 3*p3 + h2^2 + m[2,1]".

    Unary minus binds tighter than ^, and ^ reads from the left: -e1^2
    is (-e1)^2, 2^3^2 is 64.  A node is keyed by its children's ids, so
    equal subtrees are one object; a lone factor or + term is its own
    node, and negating a sum flips its signs, so the tree is no deeper
    than the parentheses nest.
    """
    tokens = _tokenize(text)[::-1]
    take = tokens.pop
    shared: dict[tuple, tuple] = {}

    def node(op, arg, *rest):
        if op == "*":
            key = (op, tuple(map(id, arg)))
        elif op == "+":
            if len(arg) == 1 and arg[0][0] > 0:
                return arg[0][1]
            key = (op, tuple((sign, id(t)) for sign, t in arg))
        else:
            key = (op, id(arg), *rest) if op == "^" else (op, arg)
        return shared.setdefault(key, (op, arg, *rest))

    def atom() -> tuple:
        tok = take()
        if tok == "(":
            v = expr()
            if take() != ")":
                raise ValueError("unbalanced parenthesis")
            return v
        if tok == "-":
            v = atom()
            terms = v[1] if v[0] == "+" else ((1, v),)
            return node("+", tuple((-sign, t) for sign, t in terms))
        if tok.isdigit():
            return node("int", _bounded(int(tok)))
        if tok[0] in "eph":
            k = _index(int(tok[1:]), "index")
            if tok[0] == "p" and k == 0:
                raise ValueError("p_0 depends on the variable count; not representable")
            return node(tok[0], k)
        if tok[0] == "m":
            lam = as_partition(json.loads(tok[1:]))
            for part in lam:
                _index(part, "part")
            return node("m", lam)
        raise ValueError(f"unexpected token {tok!r}")

    def factor() -> tuple:
        v, exponents = atom(), []
        while tokens[-1] == "^":
            take()
            exponent = take()
            if not exponent.isdigit():
                raise ValueError("exponent must be a literal integer")
            exponents.append(_index(int(exponent), "exponent"))
        return node("^", v, tuple(exponents)) if exponents else v

    def term() -> tuple:
        factors = [factor()]
        while tokens[-1] == "*":
            take()
            factors.append(factor())
        return node("*", tuple(factors)) if len(factors) > 1 else factors[0]

    def expr() -> tuple:
        terms = [(1, term())]
        while tokens[-1] in ("+", "-"):
            terms.append((1 if take() == "+" else -1, term()))
        return node("+", tuple(terms))

    out = expr()
    if tokens[-1] != "$":
        raise ValueError(f"trailing input at token {tokens[-1]!r}")
    return out
