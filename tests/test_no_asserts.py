"""The package guards its results with raises, never with assert.

python -O strips assert statements, so a result check written as one
silently disappears.  This walks the syntax tree of every module under
src/bnhecke/ and fails on any assert statement and on any raise of
AssertionError.  It reports through pytest.fail, so it still works
under -O.
"""

import ast
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
        pytest.fail("use a HeckeError raise instead:\n" + "\n".join(found))
