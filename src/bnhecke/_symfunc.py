"""Symmetric-function expressions, evaluated at an alphabet.

Only values at pairwise commuting elements are ever needed: the
Matsumoto image of bnhecke.characters reads F(A_rho) at each alphabet
A_rho of (2-)contents, and the tests evaluate F at the Jucys-Murphy
elements of bnhecke.group_algebra.  So parse builds a small immutable
tree, and evaluate computes F at the values directly, with no expansion
in a basis: p_k as sum v^k, h_k by one DP over prod_i 1 / (1 - t v_i)
for all h leaves, and m_lam (e_k is m_(1^k)) by a DP over the variables
on the sub-multisets of lam; each node the parse shares, repeated terms
and factors among them, is computed once.  A refusal under BOUND_BITS
is a ValueError.

>>> F = SymmetricExpression.parse("p2 - e1^2 + 2*e2")
>>> F.evaluate([1, 2, 3], 1), SymmetricExpression.parse("m[2,1]").evaluate([1, 2], 1)
(0, 6)
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from itertools import groupby, repeat
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
# The former e-basis caps (degree <= 20, coefficients below 2^13000)
# kept every value below 2^13200 at each alphabet of a level <= 12.
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
            raise ValueError(f"a power exceeds the bound of {BOUND_BITS} bits")
        return _bounded(x**k)
    return prod(repeat(x, k), start=one)


class SymmetricExpression(namedtuple("SymmetricExpression", "tree text")):
    """A symmetric function as an immutable tree of tuples, its repr the
    text it was parsed from: ("int", c), ("p", k), ("h", k), ("m", lam as
    (part, multiplicity) pairs by increasing part), ("+", ((coefficient,
    term), ...)) and ("*", ((factor, exponent), ...))."""

    __slots__ = ()

    def __repr__(self) -> str:
        return self.text

    @classmethod
    def parse(cls, text: str) -> "SymmetricExpression":
        return cls(_parse(text), text)

    def evaluate(self, values, one):
        """The expression at pairwise commuting values v_1, ..., v_r: anything
        with +, -, * and int * x, one their unit, such as integers (one = 1)
        or AlgebraElements; e_k = 0 for k > r.  A product with a factor 0 is
        0, and no partial product of another exceeds the whole."""
        values = list(values)
        zero = 0 * one
        memo = {}
        h_rows = ([one] * (len(values) + 1), [one])

        def at(node):
            got = memo.get(id(node))
            if got is not None:
                return got
            op, arg = node
            if op == "m":
                length = 0
                for _, c in arg:
                    length += c
                if length > len(values):  # no list, DP or memo: most e_k of a long sum
                    return zero
                got = _monomial(arg, length, values, one, zero)
            elif op == "int":
                got = arg * one
            elif op == "p":
                got = _bounded(sum([_power(v, arg, one) for v in values], zero))
            elif op == "h":
                got = _complete(arg, values, zero, h_rows)
            elif op == "*":  # a factor 0 ends it before any power is taken
                got, powers = None, []
                for factor, k in arg:
                    if (b := at(factor)) == zero:
                        got, powers = zero, []
                        break
                    if k > 1:
                        powers.append((b, k))
                    else:
                        got = b if got is None else _bounded(got * b)
                for b, k in powers:
                    got = _power(b, k, one) if got is None else _bounded(got * _power(b, k, one))
            else:
                got = _bounded(sum([c * at(term) for c, term in arg], zero))
            memo[id(node)] = got
            return got

        got = at(self.tree)
        del at  # at holds itself, a cycle that would keep the memo to a full collection
        return got


def _complete(k: int, values, zero, rows):
    """h_k from the DP over j = 1, 2, ... that all h leaves share: rows
    holds h_j at each prefix of the values for the top j yet, and at all
    of them for each j up to it; h_j(..v_t) = h_j(..v_t-1) + v_t h_j-1(..v_t)."""
    column, full = rows
    while len(full) <= k:
        nxt = [zero]
        for t, v in enumerate(values):
            nxt.append(_bounded(nxt[t] + v * column[t + 1]))
        column[:] = nxt
        full.append(nxt[-1])
    return full[k]


def _monomial(pairs: tuple, length: int, values, one, zero):
    """m_lam, lam as (part, multiplicity) pairs of length <= r, by a DP over
    the variables: row maps each sub-multiset of lam placed so far, as the
    count of each part, to the sum of its products, and the next variable
    takes one part or none.  A state with more parts left than variables
    is dropped."""
    row = {(0,) * len(pairs): one}
    for left, v in zip(range(len(values) - 1, -1, -1), values):
        powers = [_power(v, d, one) for d, _ in pairs]
        nxt = {}
        for state, x in row.items():
            if length - sum(state) <= left:
                nxt[state] = _bounded(nxt.get(state, zero) + x)
            for j, (_, c) in enumerate(pairs):
                if state[j] < c:
                    s = (*state[:j], state[j] + 1, *state[j + 1:])
                    nxt[s] = _bounded(nxt.get(s, zero) + x * powers[j])
        row = nxt
    return row.get(tuple(c for _, c in pairs), zero)


def _work(tree, r: int) -> int:
    """What evaluate takes at r values, in units of about one product of
    values of thousands of bits, counting each distinct node once, so a
    repeated term or factor adds nothing: r powers per p_k, one per factor
    of a product but the first and two per exponent above 1, one per state
    _monomial visits for an m_lam, e_k among them, of at most r parts
    (before value i, from 0, each sub-multiset of lam with at most i and
    at least l(lam) - (r - i) parts; a longer one costs nothing), an
    eighth per term of a sum, and a sixteenth per step r k of the h DP to
    the largest k."""
    units, terms, top_h, seen, stack = 0, 0, 0, set(), [tree]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        op, arg = node
        if op == "p":
            units += r
        elif op == "h":
            top_h = max(top_h, arg)
        elif op == "*":
            units += len(arg) - 1 + 2 * sum(k > 1 for _, k in arg)
            stack.extend(factor for factor, _ in arg)
        elif op == "+":
            terms += len(arg)
            stack.extend(term for _, term in arg)
        elif op == "m" and (length := sum(c for _, c in arg)) <= r:
            sizes = [1]  # sizes[s]: the sub-multisets of lam with s parts
            for _, c in arg:
                sizes = [sum(sizes[max(0, s - c) : s + 1]) for s in range(len(sizes) + c)]
            units += sum(sum(sizes[max(0, length - r + i) : i + 1]) for i in range(r))
    return units + terms // 8 + r * top_h // 16


def elementary(k: int) -> SymmetricExpression:
    """e_k; e_0 = 1."""
    if _index(k, "index") < 0:
        raise ValueError("e_k needs k >= 0")
    return SymmetricExpression.parse(f"e{k}")


_TOKEN = re.compile(
    r"\s*(?:(?P<int>[0-9]+)|(?P<gen>[eph][0-9]+)|(?P<mono>m\[[0-9,\s]*\])|(?P<op>[-+*^()]))"
)


def _tokenize(text: str) -> list[str]:
    tokens, pos = [], 0
    while pos < len(text):
        if not (m := _TOKEN.match(text, pos)):
            raise ValueError(f"cannot tokenize {text[pos:]!r}")
        tokens.append(m.group(m.lastgroup))
        pos = m.end()
    return [*tokens, "$"]


def _parse(text: str) -> tuple:
    """The tree of expressions like "e2*e1 - 3*p3 + h2^2 + m[2,1]".

    Unary minus binds tighter than ^, and ^ reads from the left: -e1^2 is
    (-e1)^2, 2^3^2 is 64.  A node is keyed by its children's ids, so equal
    subtrees are one object; a sum (product) adds up the counts of each
    term (factor), and drops a count of 0.  Negating a sum negates its
    coefficients, so the tree is no deeper than the parentheses nest."""
    tokens = _tokenize(text)[::-1]
    take = tokens.pop
    shared: dict[tuple, tuple] = {}

    def leaf(op, arg):
        return shared.setdefault((op, arg), (op, arg))

    def fold(op, pairs):  # (count, child) pairs: each child once, its counts added
        if len(pairs) == 1 and pairs[0][0] == 1:
            return pairs[0][1]
        counts = {}
        for c, child in pairs:
            counts[id(child)] = (counts.get(id(child), (0,))[0] + c, child)
        pairs = [pair for pair in counts.values() if pair[0]]
        if not pairs:
            return leaf("int", int(op == "*"))
        arg = tuple(pairs) if op == "+" else tuple([(child, k) for k, child in pairs])
        return shared.setdefault((op, *[(c, id(child)) for c, child in pairs]), (op, arg))

    def atom() -> tuple:
        tok = take()
        if tok == "(":
            v = expr()
            if take() != ")":
                raise ValueError("unbalanced parenthesis")
            return v
        if tok == "-":
            v = atom()
            return fold("+", [(-c, t) for c, t in v[1]] if v[0] == "+" else [(-1, v)])
        if tok.isdigit():
            return leaf("int", _bounded(int(tok)))
        if tok[0] in "eph":
            k = _index(int(tok[1:]), "index")
            if tok[0] == "p" and k == 0:
                raise ValueError("p_0 depends on the variable count; not representable")
            if tok[0] == "e":
                return leaf("m", ((1, k),) if k else ())
            return leaf(tok[0], k)
        if tok[0] == "m":
            lam = as_partition(json.loads(tok[1:]))
            _index(max(lam, default=0), "part")
            return leaf("m", tuple((d, len(list(g))) for d, g in groupby(reversed(lam))))
        raise ValueError(f"unexpected token {tok!r}")

    def factor() -> tuple:
        v, k = atom(), 1
        while tokens[-1] == "^":
            take()
            if not (exponent := take()).isdigit():
                raise ValueError("exponent must be a literal integer")
            k *= _index(int(exponent), "exponent")
        return k, v

    def term() -> tuple:
        factors = [factor()]
        while tokens[-1] == "*":
            take()
            factors.append(factor())
        return fold("*", factors)

    def expr() -> tuple:
        terms = [(1, term())]
        while tokens[-1] in ("+", "-"):
            terms.append((1 if take() == "+" else -1, term()))
        return fold("+", terms)

    out = expr()
    if tokens[-1] != "$":
        raise ValueError(f"trailing input at token {tokens[-1]!r}")
    return out
