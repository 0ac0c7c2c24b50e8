"""The functions of src/bnhecke that no CLI run enters.

Runs a fixed list of argv through ``bnhecke.cli.main`` in one process
under ``sys.setprofile``: every verb, all seven verify suites at small
levels and two usage errors, with the memos emptied before each argv,
so no argv hides a function behind a memo that another one filled.
Every function defined in a package module (methods and nested
functions included; lambdas and comprehensions left out) that no argv
entered is listed by module, with the lines it spans.  The line total
counts a nested function only when the function around it ran, so no
line is counted twice.

Run it in a fresh process, since the plain functools.cache memo of
[m_mu] p_lam, which clear_caches keeps, would hide what earlier work
filled it with:

    PYTHONPATH=src python tests/trace_unentered.py

It prints one JSON object: {"lines": total, "unentered": {module:
{qualname: lines}}}.
"""

from __future__ import annotations

import ast
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ARGVS = [
    ["coset-type", "--perm", "(2 3)"],
    ["phi", "--perm", "(2 3)"],
    ["coset-size", "--mu", "[1]", "--n", "3"],
    ["product", "--n", "3", "--lhs", "[1]", "--rhs", "[1]"],
    ["structure-constant", "--lam", "[1]", "--mu", "[1]", "--nu", "[]", "--n", "3"],
    ["expand-single-cycle", "--n", "4", "--lam", "[1]", "--r", "2"],
    ["matsumoto", "--n", "3", "--expr", "p2 + h2 - m[2,1] + (e1 - 1)^2"],
    ["generators", "--n", "3"],
    ["fit", "--lam", "[1]", "--mu", "[1]", "--nu", "[1]"],
    ["fit", "--max-weight", "2", "--basis", "C"],
    ["--format", "csv", "fit", "--max-weight", "1"],
    ["--format", "csv", "coset-size", "--mu", "[1]", "--n", "2"],
    ["table", "--n", "3"],
    *(
        ["verify", "--suite", suite, "--max-n", "4"]
        for suite in (
            "matsumoto",
            "jm-center",
            "trichotomy",
            "single-cycle",
            "graded-iso",
            "generators",
        )
    ),
    ["verify", "--suite", "coset-invariants", "--max-n", "4", "--samples", "5"],
    # usage errors: one from argparse, one from reading a partition
    ["verify", "--suite", "no-such-suite"],
    ["matsumoto", "--n", "3", "--expr", "m[1,2]"],
]

_ANONYMOUS = {"<lambda>", "<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


def _functions(path: Path) -> list[tuple[str, int, bool]]:
    """(qualname, lines, outermost) of every def in one source file."""
    out = []

    def walk(node, prefix: str, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                out.append((name, child.end_lineno - child.lineno + 1, not in_function))
                walk(child, name + ".<locals>.", True)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", in_function)
            else:
                walk(child, prefix, in_function)

    walk(ast.parse(path.read_text()), "", False)
    return out


def trace() -> dict:
    import bnhecke
    from bnhecke.cli import main
    from bnhecke.partitions import clear_caches

    package = Path(bnhecke.__file__).resolve().parent
    entered: set[tuple[str, str]] = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_name not in _ANONYMOUS:
                entered.add((code.co_filename, code.co_qualname))

    sys.setprofile(profile)
    try:
        for argv in ARGVS:
            clear_caches()
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                main(argv)
    finally:
        sys.setprofile(None)
    entered = {(str(Path(f).resolve()), q) for f, q in entered}

    unentered: dict[str, dict[str, int]] = {}
    total = 0
    for path in sorted(package.glob("*.py")):
        for qualname, lines, outermost in _functions(path):
            if (str(path), qualname) in entered:
                continue
            unentered.setdefault(path.stem, {})[qualname] = lines
            # a nested function counts only when its outer one ran
            parent = qualname.rpartition(".<locals>.")[0]
            if outermost or (str(path), parent) in entered:
                total += lines
    return {"lines": total, "unentered": unentered}


if __name__ == "__main__":
    print(json.dumps(trace(), indent=1))
