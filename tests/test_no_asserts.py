"""The package guards its results with raises, never with assert, and
keeps its arithmetic exact.

python -O strips assert statements, so a result check written as one
silently disappears.  This walks the syntax tree of every module under
src/bnhecke/ and fails on any assert statement and on any raise of
AssertionError, and trips a few guards in a python -O child.  The same
walk fails on inexact or rational arithmetic: true division (/ and
/=), float literals and float(...), any import of fractions, and any
read of a .numerator or .denominator attribute, which would take a
Fraction by duck typing; the package computes over Z.  It reports through pytest.fail, so it still
works under -O.  A second walk keeps the weight rule in one place: only
partitions (as_type) constructs WeightExceedsLevel, and _kernels_py,
whose level table perfbench binds, keeps its copy until it goes.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bnhecke"


def _offences(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno, "raise AssertionError"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, ast.Div
        ):
            yield node.lineno, "true division"
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, "float literal"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            yield node.lineno, "float(...)"
        elif (
            isinstance(node, ast.Import)
            and any(alias.name == "fractions" for alias in node.names)
            or isinstance(node, ast.ImportFrom)
            and node.module == "fractions"
        ):
            yield node.lineno, "import of fractions"
        elif isinstance(node, ast.Attribute) and node.attr in (
            "numerator",
            "denominator",
        ):
            yield node.lineno, f"rational attribute .{node.attr}"


def test_no_assert_in_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    if not modules:
        pytest.fail(f"no modules found under {PACKAGE}")
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{line}: {what}"
        for path in modules
        for line, what in _offences(path)
    ]
    if found:
        pytest.fail(
            "raise a HeckeError instead of asserting, and compute in integers:\n"
            + "\n".join(found)
        )


# the modules allowed to construct WeightExceedsLevel
_WEIGHT_READERS = {"partitions.py", "_kernels_py.py"}


def test_one_reader_raises_weight_exceeds_level():
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name not in _WEIGHT_READERS
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        == "WeightExceedsLevel"
    ]
    if found:
        pytest.fail(
            "read a stable type at a level with partitions.as_type:\n"
            + "\n".join(found)
        )


# each guard is tripped by a monkeypatched dependency, one after the
# other; a guard written as an assert would let its call return under -O
_TRIP_GUARDS = """
import json, sys
from bnhecke import _backend, characters, cosets, hecke, partitions, universal
from bnhecke._symfunc import BOUND_BITS, SymmetricExpression
from bnhecke.errors import ValidationFailure

def message(call):
    try:
        call()
    except (ValidationFailure, ValueError) as exc:
        return str(exc)
    return None

out = {"optimize": sys.flags.optimize}
# 2d for the seed determinant d = 2 at n = 5: the seed pivots multiply to d
determinant = hecke._determinant
hecke._determinant = lambda m: 2 * determinant(m)
out["generation_certificate"] = message(lambda: hecke.generation_certificate(5))
hecke._determinant = determinant
size = _backend.double_coset_size
_backend.double_coset_size = lambda mu, n: 0
out["product_tally"] = message(lambda: _backend.product_tally((1,), (1,), 3))
_backend.double_coset_size = size
# b = 3 + n on a top-degree triple: two samples fit it and the holdout agrees
row = universal._row
universal._row = lambda lam, mu, n, basis: {(2,): 3 + n}
out["universal_structure_constant"] = message(
    lambda: universal.universal_structure_constant((1,), (1,), (2,), [3, 4])
)
universal._row = row
universal.factorial = lambda k: 7
out["_binomial"] = message(lambda: universal.IntegerValuedPolynomial((0, 1))(5))
cosets.class_representative = lambda mu, n: cosets.identity()
out["coset_representative"] = message(lambda: cosets.coset_representative((1,), 2))
partitions.z_value = lambda rho: 7
out["double_coset_size"] = message(lambda: partitions.double_coset_size((1,), 2))
# theta_(6)(lam) + 1 moves each c_kappa by W_(6) = 1/15
spherical = characters._spherical
theta = [[t + 1 for t in spherical(3, "K").theta[0]], *spherical(3, "K").theta[1:]]
characters._spherical = lambda n, basis: spherical(n, basis)._replace(theta=theta)
out["matsumoto_coefficients"] = message(
    lambda: characters.matsumoto_coefficients(SymmetricExpression.parse("1"), 3, "K")
)
characters._spherical = spherical
# -h_(2) keeps every quotient an integer: only sum c h = (sum u h)(sum v h) sees it
h = [*spherical(3, "K").h]
h[spherical(3, "K").index[(2,)]] *= -1
characters._spherical = lambda n, basis: spherical(n, basis)._replace(h=h)
out["product"] = message(lambda: characters.product({(2,): 1, (1,): -1}, {(1,): 2}, 3, "K"))
characters._spherical = spherical
# [m_rho] J_rho + 1: the recurrence below it leaves a remainder
hooks = characters._hook_product
characters._hook_product = lambda rho, alpha: hooks(rho, alpha) + 1
out["_jack_monomials"] = message(lambda: characters._spherical(2, "K"))
characters._hook_product = hooks
# [m_(1,1)] J_(2) + 1: theta_(2)((1,1)) is that over 2!
monomials = characters._jack_monomials
characters._jack_monomials = lambda n, alpha: [
    row[:-1] + [row[-1] + (r == 0)] for r, row in enumerate(monomials(n, alpha))
]
out["_jack_power_sums"] = message(lambda: characters._spherical(2, "K"))
characters._jack_monomials = monomials
characters._dimension = lambda rho: 0
out["structure_constant"] = message(lambda: characters.structure_constant((), (), (), 2, "K"))
# p_1 at a value of BOUND_BITS + 1 bits passes the value bound
out["bound"] = message(lambda: SymmetricExpression.parse("p1").evaluate([2**BOUND_BITS], 1))
print(json.dumps(out))
"""
_GUARD_MESSAGES = {
    "product_tally": "by type, times |B_3|",
    "_binomial": "left the remainder",
    "universal_structure_constant": "above the bound",
    "coset_representative": "has coset type",
    "double_coset_size": "is not an integer",
    "matsumoto_coefficients": "not an integer",
    "_jack_monomials": "does not divide exactly",
    "_jack_power_sums": "not integral",
    "structure_constant": "hook-length dimension",
    "product": "covers",
    "bound": "exceeds the bound of 14000 bits",
    "generation_certificate": "multiply to 2, not 4",
}


def test_guards_fire_under_python_O():
    child = subprocess.run(
        [sys.executable, "-O", "-c", _TRIP_GUARDS],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if child.returncode != 0:
        pytest.fail(child.stderr)
    out = json.loads(child.stdout)
    if out.pop("optimize") != 1:
        pytest.fail("the child did not run under -O")
    missed = {
        name: out[name]
        for name, text in _GUARD_MESSAGES.items()
        if text not in (out[name] or "")
    }
    if missed:
        pytest.fail(f"guards that did not raise under -O: {missed}")
