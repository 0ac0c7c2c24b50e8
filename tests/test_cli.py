import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from math import factorial

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import bnhecke
from bnhecke import __version__
from bnhecke.cli import (
    MAX_COSET_SIZE_LEVEL,
    MAX_EXPR_WORK,
    MAX_SAMPLES,
    SUITES,
    _VERBS,
    Command,
    execute,
    main,
    parse,
)
from bnhecke import characters, hecke
from bnhecke._symfunc import BOUND_BITS, SymmetricExpression, _work
from bnhecke.errors import UsageError, ValidationFailure
from bnhecke.hecke import HeckeElement, hecke_product
from bnhecke.partitions import (
    MAX_SPHERICAL_LEVEL, clear_caches, double_coset_size, enumerate_by_weight,
)
from bnhecke.permutations import MAX_POINT, Permutation


# p_k and h_k once recursed k deep, 1500 parentheses nest _parse too
# deep, and p300 or a power that large ran for minutes; the powers and
# the nesting are refused, the rest are values like any other
_RUNAWAY_EXPRS = ["p1200", "h1200", "(" * 1500 + "e1" + ")" * 1500, "p300", "e1^999999"]
# walking the 135135 matchings of n = 7 it ran for over a minute, read
# off the spherical functions it takes 0.1 s
_COSTLY_MATSUMOTO = ["matsumoto", "--n", "7", "--expr", "p8"]
# an index past the bound, bare or in a sum, and a power tower whose
# image would have more digits than Python prints
_UNBOUNDED_EXPRS = ["e14001", "e1 + e14001", "2^20^20^20^20"]
# every index, part, exponent and literal is read before any arithmetic
_REFUSED_AT_PARSE = [
    "e1^999999", "h1000000", "(" * 1500 + "e1" + ")" * 1500, "p14001",
    "e14001", "e1 + e14001", "m[14001]", str(2**14000),
]
# Linux's MAX_ARG_STRLEN: the longest single argument a launch passes
_MAX_ARG_STRLEN = 128 * 1024
# a cycle naming one point above the cap built the whole one-line
# tuple up to it
_FAR_POINT = f"(1 {MAX_POINT + 1})"
# the cheapest argv of each verb with a level cap, all but its --n
_CHEAPEST = {
    "coset-size": ["--mu", "[]"],
    "product": ["--lhs", "[]", "--rhs", "[]"],
    "structure-constant": ["--lam", "[]", "--mu", "[]", "--nu", "[]"],
    "expand-single-cycle": ["--lam", "[]", "--r", "0"],
    "matsumoto": ["--expr", "e1"],
    "generators": [],
    "table": [],
}
# (argv but the level, its level flag, the top level) of every verb
# with a level cap and of every verify suite; a capped verb missing from
# _CHEAPEST gets an argv that cannot run, so its case fails
_CAPS = [
    *(
        ([verb, *_CHEAPEST.get(verb, ["(no cheapest argv)"])], "--n", verb_row.levels[1])
        for verb, verb_row in _VERBS.items()
        if verb_row.levels is not None
    ),
    *(
        (["verify", "--suite", suite, *(["--samples", "5"] if suite == "coset-invariants" else [])],
         "--max-n", top)
        for suite, top in SUITES.items()
    ),
]


def run(argv):
    """parse + execute with captured stdout; returns (status, payload)."""
    stream = io.StringIO()
    status = execute(parse(argv), stream=stream)
    text = stream.getvalue()
    return status, text


def run_json(argv):
    status, text = run(argv)
    return status, json.loads(text)


def table_rows(n):
    """table's rows at level n, from one product per ordered pair."""
    shapes = enumerate_by_weight(n)
    rows = []
    for lam in shapes:
        for mu in shapes:
            b = hecke_product(HeckeElement.basis(lam, n), HeckeElement.basis(mu, n)).coeffs
            rows.extend(
                {"lam": list(lam), "mu": list(mu), "nu": list(nu), "b": b.get(nu, 0)}
                for nu in shapes
            )
    return rows


class TestParse:
    def test_product_command(self):
        cmd = parse(["product", "--n", "4", "--lhs", "[1]", "--rhs", "[1]"])
        assert isinstance(cmd, Command)
        assert cmd.verb == "product"
        assert cmd.args == {"n": 4, "lhs": (1,), "rhs": (1,)}
        assert cmd.output_format == "json"

    def test_coset_type_command(self):
        cmd = parse(
            ["coset-type", "--perm", "(2 3)(4 5)(6 7)(8 9)(10 11)(12 1)"]
        )
        assert cmd.verb == "coset-type"
        assert isinstance(cmd.args["perm"], Permutation)

    def test_verify_level_selection(self):
        assert parse(["verify", "--suite", "matsumoto", "--n", "3"]).args[
            "levels"
        ] == [3]
        assert parse(["verify", "--suite", "matsumoto"]).args["levels"] == [
            2,
            3,
            4,
        ]
        assert parse(["verify", "--suite", "matsumoto", "--max-n", "5"]).args[
            "levels"
        ] == [2, 3, 4, 5]
        # an exact level wins over the range flag
        assert parse(
            ["verify", "--suite", "matsumoto", "--n", "2", "--max-n", "5"]
        ).args["levels"] == [2]

    def test_format_flag(self):
        cmd = parse(["--format", "csv", "table", "--n", "2"])
        assert cmd.output_format == "csv"

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["product", "--n", "4", "--lhs", "[1]"],
            ["product", "--n", "13", "--lhs", "[1]", "--rhs", "[1]"],
            ["structure-constant", "--lam", "[]", "--mu", "[]", "--nu", "[]", "--n", "13"],
            ["product", "--n", "2", "--lhs", "[2]", "--rhs", "[1]"],
            ["product", "--n", "3", "--lhs", "{}", "--rhs", "[1]"],
            ["product", "--n", "3", "--lhs", "[1,2]", "--rhs", "[1]"],
            ["coset-type", "--perm", "[1,1]"],
            ["coset-size", "--mu", "[1]", "--n", "0"],
            ["coset-size", "--mu", "[3]", "--n", "3"],
            ["structure-constant", "--lam", "[2]", "--mu", "[1]", "--nu", "[1]", "--n", "2"],
            ["expand-single-cycle", "--lam", "[1]", "--r", "-1", "--n", "4"],
            ["expand-single-cycle", "--lam", "[1]", "--r", "4", "--n", "4"],
            ["matsumoto", "--expr", "e1", "--n", "1"],
            # the certificate finds its own degree
            ["generators", "--n", "3", "--max-degree", "2"],
            ["verify", "--suite", "nope", "--n", "3"],
            ["verify", "--suite", "matsumoto", "--n", "13"],
            ["verify", "--suite", "matsumoto", "--samples", "0"],
            ["verify", "--suite", "coset-invariants", "--samples", "0"],
            ["fit", "--lam", "[1]"],
            ["fit"],
            ["fit", "--max-weight", "5"],
            ["fit", "--max-weight", "2", "--lam", "[1]"],
            ["--jobs", "0", "table", "--n", "2"],
            *([*argv, flag, str(top + 1)] for argv, flag, top in _CAPS),
            ["verify", "--suite", "generators", "--n", "13"],
            ["generators", "--n", "3", "--lam", "[1]"],
            *(["matsumoto", "--n", "3", "--expr", expr] for expr in _REFUSED_AT_PARSE),
            ["coset-type", "--perm", _FAR_POINT],
            ["phi", "--perm", _FAR_POINT],
            # int() read these as (1 10), (1 2), (1 2) and e2
            ["coset-type", "--perm", "(1 1_0)"],
            ["coset-type", "--perm", "(1 +2)"],
            ["coset-type", "--perm", "(1 \uff12)"],
            ["matsumoto", "--n", "3", "--expr", "e\u0662"],
        ],
    )
    def test_usage_errors(self, argv):
        with pytest.raises(UsageError):
            parse(argv)

    @pytest.mark.parametrize("argv, flag, top", _CAPS, ids=[" ".join(c[0][:3]) for c in _CAPS])
    def test_every_cap_runs_at_its_top(self, argv, flag, top, capsys):
        assert main([*argv, flag, str(top)]) == 0
        assert main([*argv, flag, str(top + 1)]) == 2
        error = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert error["message"].startswith(f"{flag}: level must be in [")
        assert error["message"].endswith(f", {top}], got {top + 1}")

    def test_coset_size_allows_large_levels(self):
        # closed form, no table sweep: levels above the CLI cap are fine
        assert parse(["coset-size", "--mu", "[1]", "--n", "12"]).args["n"] == 12

    def test_samples_cap_parses(self):
        argv = ["verify", "--suite", "coset-invariants", "--samples", str(MAX_SAMPLES)]
        assert parse(argv).args["samples"] == MAX_SAMPLES

    def test_samples_default_only_for_coset_invariants(self):
        assert parse(["verify", "--suite", "coset-invariants"]).args["samples"] == 1000
        assert parse(["verify", "--suite", "matsumoto"]).args["samples"] is None

    def test_generators_default_degree(self):
        # the level is generators' one argument: no degree to choose
        assert parse(["generators", "--n", "4"]).args == {"n": 4}


class TestVerbs:
    def test_product_remark_values(self):
        status, payload = run_json(
            ["product", "--n", "3", "--lhs", "[1]", "--rhs", "[1]"]
        )
        assert status == 0
        assert payload == {
            "n": 3,
            "coeffs": [
                {"mu": [], "c": "6"},
                {"mu": [1], "c": "1"},
                {"mu": [2], "c": "3"},
            ],
        }

    def test_coset_type_worked_example(self):
        status, payload = run_json(
            ["coset-type", "--perm", "(2 3)(4 5)(6 7)(8 9)(10 11)(12 1)"]
        )
        assert status == 0
        assert payload["stable_coset_type"] == [2, 2]
        assert payload["coset_type"] == [3, 3]
        assert payload["n"] == 6

    @pytest.mark.parametrize("perm", ["[]", "[1]", "()"])
    @pytest.mark.parametrize(
        "verb, fields",
        [
            ("coset-type", {"coset_type": [1], "stable_coset_type": []}),
            ("phi", {"phi": [1, 2], "cycles": "e"}),
        ],
    )
    def test_identity_embeds_at_level_one(self, verb, fields, perm):
        status, payload = run_json([verb, "--perm", perm])
        assert status == 0
        assert payload == {"perm": [1, 2], "n": 1, **fields}

    def test_phi_worked_example(self):
        status, payload = run_json(
            ["phi", "--perm", "(2 3)(4 5)(6 7)(8 9)(10 1)"]
        )
        assert status == 0
        assert payload["cycles"] == "(1 7 3 9 5)(2 6 10 4 8)"
        assert payload["n"] == 5

    def test_coset_size(self):
        status, payload = run_json(["coset-size", "--mu", "[1]", "--n", "3"])
        assert status == 0
        assert payload == {"mu": [1], "n": 3, "size": 288}

    def test_coset_size_prints_the_largest_coset_at_the_cap(self):
        # the cap is the last level whose (2n)! prints in 4300 digits
        n = MAX_COSET_SIZE_LEVEL
        assert factorial(2 * n) < 10**4300 <= factorial(2 * n + 2)
        status, payload = run_json(["coset-size", "--mu", f"[{n - 1}]", "--n", str(n)])
        assert status == 0
        assert payload["size"] == double_coset_size((n - 1,), n)

    def test_structure_constant(self):
        status, payload = run_json(
            [
                "structure-constant",
                "--lam", "[1]", "--mu", "[1]", "--nu", "[2]", "--n", "3",
            ]
        )
        assert status == 0
        assert payload["b"] == 3

    def test_expand_single_cycle(self):
        status, payload = run_json(
            ["expand-single-cycle", "--lam", "[1]", "--r", "1", "--n", "5"]
        )
        assert status == 0
        assert payload["lam"] == [1]
        assert payload["r"] == 1
        assert payload["coeffs"] == [
            {"mu": [2], "c": "3"},
            {"mu": [1, 1], "c": "2"},
        ]

    def test_matsumoto(self):
        status, payload = run_json(["matsumoto", "--expr", "e1", "--n", "3"])
        assert status == 0
        assert payload["coeffs"] == [{"mu": [1], "c": "1"}]

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_matsumoto_degree_two_closed_form(self, n):
        a, b = 2, 3
        status, payload = run_json(
            ["matsumoto", "--n", str(n), "--expr", f"{a}*e2 + {b}*e1*e1"]
        )
        assert status == 0
        assert payload == {
            "n": n,
            "coeffs": [
                {"mu": [], "c": str(b * n * (n - 1))},
                {"mu": [1], "c": str(b)},
                {"mu": [2], "c": str(a + 3 * b)},
                {"mu": [1, 1], "c": str(a + 2 * b)},
            ],
        }

    @pytest.mark.parametrize("expr", ["p5", "p20", "e1^20", "p12^12", "m[5,4]"])
    def test_matsumoto_high_degree_at_the_cap(self, expr, capsys):
        # the matching walk took 106 s on e1^20 at n = 7; the e-basis
        # expansion refused p12^12 and m[5,4]
        n = str(MAX_SPHERICAL_LEVEL)
        assert main(["matsumoto", "--n", n, "--expr", expr]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == MAX_SPHERICAL_LEVEL and payload["coeffs"]

    def test_verify_matsumoto_at_the_cap(self):
        n = str(MAX_SPHERICAL_LEVEL)
        status, payload = run_json(["verify", "--suite", "matsumoto", "--n", n])
        assert status == 0 and payload["ok"] is True
        assert len(payload["checks"]) == MAX_SPHERICAL_LEVEL

    def test_generators_success(self):
        status, payload = run_json(["generators", "--n", "3"])
        assert status == 0
        assert payload == {"n": 3, "rank": 3, "basis": [[], [1], [2]], "determinant": 1}
        status, payload = run_json(["generators", "--n", "5"])
        assert status == 0 and payload["determinant"] == 2

    def test_generators_insufficient_degree_is_an_error_object(self, monkeypatch):
        # with every H_i the unit every seed monomial is the unit
        monkeypatch.setattr(hecke, "generator_H", lambda i, n: HeckeElement.one(n))
        status, payload = run_json(["generators", "--n", "4"])
        assert status == 1
        assert payload["error"] == "InsufficientDegree"
        assert "seed monomials at level 4 are singular" in payload["message"]
        status, payload = run_json(["verify", "--suite", "generators", "--max-n", "4"])
        assert status == 1 and payload["ok"] is False
        assert [check["ok"] for check in payload["checks"]] == [False, False, False]
        assert "seed monomials at level 4 are singular" in payload["checks"][-1]["detail"]

    def test_fit_triple(self):
        status, payload = run_json(
            ["fit", "--lam", "[1]", "--mu", "[1]", "--nu", "[]"]
        )
        assert status == 0
        assert payload["classification"] == "polynomial"
        assert payload["polynomial"] == {"binomial_coeffs": [0, 0, 2]}

    def test_fit_report(self):
        status, payload = run_json(["fit", "--max-weight", "2"])
        assert status == 0
        assert isinstance(payload, list)
        assert len(payload) == 8

    def test_character_verbs_run_above_the_old_cap(self):
        # both read only the character tables, which go to MAX_SPHERICAL_LEVEL;
        # K_(1) K_(1) = n(n-1) K_() + K_(1) + 3 K_(2) + 2 K_(1,1) at n >= 2
        status, payload = run_json(["product", "--n", "7", "--lhs", "[1]", "--rhs", "[1]"])
        assert status == 0
        assert payload["coeffs"] == [
            {"mu": [], "c": "42"},
            {"mu": [1], "c": "1"},
            {"mu": [2], "c": "3"},
            {"mu": [1, 1], "c": "2"},
        ]
        status, payload = run_json(
            ["structure-constant", "--lam", "[1]", "--mu", "[1]", "--nu", "[1,1]", "--n", "7"]
        )
        assert status == 0 and payload["b"] == 2

    def test_table(self, monkeypatch, capsys):
        status, payload = run_json(["table", "--n", "2"])
        assert status == 0
        assert len(payload) == 8
        lookup = {
            (tuple(r["lam"]), tuple(r["mu"]), tuple(r["nu"])): r["b"]
            for r in payload
        }
        assert lookup[(1,), (1,), ()] == 2
        assert lookup[(1,), (1,), (1,)] == 1
        # the rows written one at a time are the bytes of json.dumps on
        # all of them, and table takes one product per unordered pair,
        # each a row of the memo that characters._row keeps
        calls = []
        product = characters.product

        def counted(*args):
            calls.append(args)
            return product(*args)

        monkeypatch.setattr(characters, "product", counted)
        for n in range(1, 7):
            want = json.dumps(table_rows(n), indent=2) + "\n"
            clear_caches()
            calls.clear()
            assert run(["table", "--n", str(n)]) == (0, want)
            p = len(enumerate_by_weight(n))
            assert len(calls) == p * (p + 1) // 2

        # every product comes before the first row: a failing last
        # product leaves the error object alone on stdout
        def last_fails(*args):
            calls.append(args)
            if len(calls) == 6:  # p(3) (p(3) + 1) / 2
                raise ValidationFailure("the last product")
            return product(*args)

        clear_caches()
        calls.clear()
        monkeypatch.setattr(characters, "product", last_fails)
        assert main(["table", "--n", "3"]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "error": "ValidationFailure", "message": "the last product",
        }

    def test_verify_fast_suite(self, capsys):
        status, payload = run_json(
            ["verify", "--suite", "coset-invariants", "--n", "2", "--samples", "5"]
        )
        assert status == 0
        assert payload["suite"] == "coset-invariants"
        assert payload["levels"] == [2]
        assert payload["backend"] == "pure"
        assert payload["ok"] is True
        assert payload["checks"] and all(c["ok"] for c in payload["checks"])
        # progress stays on stderr, stdout stays machine readable
        err = capsys.readouterr().err
        assert "verify coset-invariants" in err

    def test_no_heavy_warning_outside_matsumoto(self, capsys):
        # no verb builds the group algebra of S_10
        status, payload = run_json(["verify", "--suite", "generators", "--n", "5"])
        assert status == 0 and payload["ok"] is True
        err = capsys.readouterr().err
        assert "S_10" not in err and "warning" not in err

    def test_no_heavy_warning_for_matsumoto(self, capsys):
        # the Matsumoto image walks matchings, not the group algebra of S_10
        status, _ = run_json(["matsumoto", "--n", "5", "--expr", "e2 + e1*e1"])
        assert status == 0
        err = capsys.readouterr().err
        assert "S_10" not in err and "patient" not in err


class TestOutputFormats:
    def test_csv_rows(self):
        status, text = run(["--format", "csv", "table", "--n", "2"])
        assert status == 0
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["lam", "mu", "nu", "b"]
        assert len(rows) == 9
        assert ["[1]", "[1]", "[]", "2"] in rows
        for n in range(1, 7):
            expected = io.StringIO()
            fields = ["lam", "mu", "nu", "b"]
            writer = csv.DictWriter(expected, fieldnames=fields, lineterminator="\n")
            writer.writeheader()
            writer.writerows(
                {k: json.dumps(v, separators=(",", ":")) if k != "b" else v for k, v in row.items()}
                for row in table_rows(n)
            )
            assert run(["--format", "csv", "table", "--n", str(n)]) == (0, expected.getvalue())

    def test_csv_key_value_for_single_objects(self):
        status, text = run(
            ["--format", "csv", "coset-size", "--mu", "[1]", "--n", "3"]
        )
        assert status == 0
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["key", "value"]
        assert ["size", "288"] in rows

    def test_csv_union_of_fields(self):
        status, text = run(["--format", "csv", "fit", "--max-weight", "2"])
        assert status == 0
        header = next(csv.reader(io.StringIO(text)))
        assert header[:4] == ["lam", "mu", "nu", "classification"]
        assert "constant" in header and "polynomial" in header

    def test_in_process_determinism(self):
        first = run(["product", "--n", "3", "--lhs", "[1]", "--rhs", "[1]"])
        second = run(["product", "--n", "3", "--lhs", "[1]", "--rhs", "[1]"])
        assert first == second


# No verb loads numpy (only the permutation oracle imports it), nor
# dataclasses and inspect.  The verbs that read structure constants
# (both bases of fit, and the K-basis verbs) take them from Jack
# polynomials: they load neither the cosets, permutations and matching
# tally nor the group algebra and symmetric functions.  table and
# structure-constant read the rows of bnhecke.characters, as fit
# does, so they leave bnhecke.hecke unloaded too.  The Matsumoto
# image reads the same spherical functions, so it loads no matchings,
# matching tally or group algebra either; neither do the generators and
# matsumoto suites.  The verbs on one permutation load the cosets but
# no counting layer; coset-size reads its closed form from the
# partitions alone, and the jm-center suite loads no cosets.  No
# verify suite loads the matching tally of bnhecke._backend, and only
# the trichotomy suite, which reads the fits, loads bnhecke.universal;
# it loads no more than a fit does.
# the package computes over Z, so no verb loads fractions (which loads
# decimal and numbers)
_NEVER_LOADED = ["numpy", "dataclasses", "inspect", "fractions", "decimal", "numbers"]
_CHARACTER_PATH = [
    "bnhecke.cosets",
    "bnhecke.permutations",
    "bnhecke._backend",
    "bnhecke.group_algebra",
    "bnhecke._symfunc",
]
_NO_MATCHINGS = ["bnhecke.cosets", "bnhecke.permutations"]
# a fit reads the character path directly, without bnhecke.hecke
_FIT = [*_CHARACTER_PATH, "bnhecke.hecke"]
_ONE_PERMUTATION = ["bnhecke.hecke", "bnhecke.universal", "bnhecke.group_algebra"]
# every module but bnhecke, cli, errors and partitions
_CLOSED_FORM = [
    *_NO_MATCHINGS,
    *_ONE_PERMUTATION,
    "bnhecke._symfunc",
    "bnhecke._backend",
    "bnhecke._kernels_py",
    "bnhecke.characters",
    "bnhecke.suites",
]
_FOOTPRINTS = [
    pytest.param(argv, unloaded, id=name)
    for name, argv, unloaded in [
        ("coset-type", ["coset-type", "--perm", "[2,1]"], _ONE_PERMUTATION),
        ("phi", ["phi", "--perm", "[2,1]"], _ONE_PERMUTATION),
        ("coset-size", ["coset-size", "--mu", "[1]", "--n", "2"], _CLOSED_FORM),
        ("product", ["product", "--n", "2", "--lhs", "[1]", "--rhs", "[1]"], _CHARACTER_PATH),
        (
            "structure-constant",
            ["structure-constant", "--lam", "[1]", "--mu", "[1]", "--nu", "[]", "--n", "2"],
            [*_CHARACTER_PATH, "bnhecke.hecke"],
        ),
        (
            "expand-single-cycle",
            ["expand-single-cycle", "--lam", "[1]", "--r", "1", "--n", "2"],
            _CHARACTER_PATH,
        ),
        ("generators", ["generators", "--n", "2"], _CHARACTER_PATH),
        ("fit-triple", ["fit", "--lam", "[1]", "--mu", "[1]", "--nu", "[1]"], _FIT),
        ("fit-K", ["fit", "--max-weight", "1"], _FIT),
        # the progress line comes from cli, not bnhecke.suites
        ("table", ["table", "--n", "2"], [*_CHARACTER_PATH, "bnhecke.hecke", "bnhecke.suites"]),
        (
            "matsumoto",
            ["matsumoto", "--expr", "e1", "--n", "2"],
            [*_NO_MATCHINGS, "bnhecke._backend", "bnhecke.group_algebra"],
        ),
        ("fit-C", ["fit", "--max-weight", "1", "--basis", "C"], _FIT),
        *(
            (
                f"verify-{suite}",
                ["verify", "--suite", suite, "--n", "2",
                 *(["--samples", "5"] if suite == "coset-invariants" else [])],
                # backend_name() lives in bnhecke.suites, so no suite
                # loads the matching tally
                [
                    "bnhecke._backend",
                    *(_FIT if suite == "trichotomy" else ["bnhecke.universal"]),
                    *(
                        _NO_MATCHINGS if suite in ("generators", "matsumoto")
                        else ["bnhecke.cosets"] if suite == "jm-center" else []
                    ),
                ],
            )
            for suite in SUITES
        ),
    ]
]


# sha256 of `bnhecke --help` ("") and of each verb's --help at 80
# columns, as Python 3.11's argparse printed them before the verb table
# replaced the hand-written subparsers; verify's re-pinned when --max-n
# began to list the top level of each suite, and again when jm-center
# went to 12 and --samples to 8000, and when generators went to 7, 8
# and 12; generators' when --max-degree went; bnhecke --help's when
# generators' help named the subring closure
_HELP_DIGESTS = {
    "": "26e00dc3c1251d8c7ac9a5861c9319cd1edaa2d7ed482ac95517a3615fa9e8b7",
    "coset-type": "7dddc4f4b35f8eba70770238773317ca8c8aeef1ecb7a2ef064958a0fa0e903f",
    "phi": "c616da7baa8acd62f9d7d45b1c2c7b1470f4222bfbd307e7f9dbedd21d45685b",
    "coset-size": "f2c2d743ec84e78174638eb07a9ef665aa2e10e4f13e559d5e59fe1a579ee7b2",
    "product": "882a34ee1074af46626fb64db445a2542f3b75f340420b195a16cb2e32d5b1be",
    "structure-constant": "d0c1e6cfdb5acd14075b8f54bde64081ef3b034c43fda2fbf0ed4f5523783546",
    "expand-single-cycle": "91ab56eac569e025a7db93b5aa0ea61ff7cb0dcb447b1c7a1fe0df09cbcb3ca2",
    "matsumoto": "04862e59db5e61a5773b8e49c8c0e41bbff18e3376df2d26de483f399e08eccf",
    "generators": "5428da7b09272184028d187475e5c5a0202072ff64d984466bd68135daf68115",
    "verify": "c3b76b1c3ebf6bf7678d24a5b220d5e7fab8dbd0a02f7c70c36af48bc96871aa",
    "fit": "4807c08bdf3a3dc7cf1ec2040ceddfa872b7433760b9caffec145f85f887878e",
    "table": "1328f0246a897452e45c1c37bc7c0dbc4959e6239c8667ee1afd9bdc09bad0f3",
}

# sha256 of the stdout of every verify suite at its default levels, and
# of the trichotomy and graded-iso suites at --max-n 5 and --n 5;
# graded-iso pinned while universal.graded_iso_check still computed its
# checks, trichotomy once it printed one check per fit of weight <= 4;
# coset-invariants at --max-n 5 samples the pair graph at n = 4 and 5,
# pinned while gamma_graph still returned a class
_VERIFY_DIGESTS = {
    ("matsumoto",): "fb3bdad0ce8f67086cec377399c668cfdf9cfbf106a6dc31a2df5fa6bc26240f",
    ("jm-center",): "34348f39bf9e29f5d018cf426f56c1d1e384af9f9ab0235b71ef5a9b4da1d9a5",
    ("trichotomy",): "9a1c0d09fb768b852cfe767d5ced08540fb47b6b03f7de9c616c11c78dc0071f",
    ("single-cycle",): "c27f88e56f4f990d2e32a7022273cfd7e2c4c6e20de591371ba7a013dca6dd86",
    ("graded-iso",): "88b569755243fed6eb3edac0a7286ea4d9d1a709f10ca9621f2b6f6fd5a6be2a",
    ("generators",): "92415e89ea81cb2b6fd03b7e205a8917fa553a9d239c1b881aa62ea587c94913",
    ("coset-invariants",): "2a75c709218c4c8ce66e95177c881200a8b3115a030d01b65b498e0086a57650",
    ("trichotomy", "--max-n", "5"): "04c7858e141d92bf77812f11ec5bd0b65139890f29294f0653f055ac8cc9150e",
    ("trichotomy", "--n", "5"): "b8a7e670d10327cddab2d6e36a261ef994bea7349f3147e70ee393109ea8bf23",
    ("graded-iso", "--max-n", "5"): "2d049c8b1b461a76d8c037d2f77dff47e54f7ecca5a03df36ca5e606a9e53b49",
    ("graded-iso", "--n", "5"): "759f49e011b89ce7cc2e4a2dbeec511dc69be68a47051338548ee6edbcda5c19",
    ("coset-invariants", "--max-n", "5", "--samples", "50"): "6f2a5c2780ea1bc0386815d6a66f20f0ee6cccf33f7337653740bd25cf79992a",
}

# sha256 of the stdout of coset-type and phi on one permutation, pinned
# while gamma_graph and modified_support still returned classes
_PERM_VERB_DIGESTS = {
    ("coset-type", "(2 3)"): "0b8f40f498238750a2a3abdcffad9013db8f69d65560845265ede73843c93a2b",
    ("phi", "(2 3)"): "e18b6a82ab3928c347c76e11e85a4bd1f528b2d70a57944f90c551052564eafe",
    ("coset-type", "(1 4 6 2)(3 8)"): "0d091591b3b950a1bb1dc43c722be1612607ca486976a61caca0ca1f09956f36",
    ("phi", "(1 4 6 2)(3 8)"): "c039ace296cc12254a8f1c2b921effa9d7940cc97b7094de6c36fecf15b7525b",
    ("coset-type", "[2,1,4,3,6,5]"): "b4afc759b40decf09527e711f91d4d27fb8bd4bdc3ad3cb4e50f6c7d11c7fd3a",
    ("phi", "[2,1,4,3,6,5]"): "caf01ddb6bd9132ae84067e571b7c8d12f3207374cd77bd5acd3e3ae38aebf91",
}


class TestMain:
    def test_success_path(self, capsys):
        assert main(["coset-size", "--mu", "[1]", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["size"] == 16

    def test_usage_error_is_exit_two(self, capsys):
        assert main(["product", "--n", "13", "--lhs", "[]", "--rhs", "[]"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["error"] == "UsageError"

    def test_out_of_order_monomial_is_exit_two(self, capsys):
        # m[1,2] is refused as --lhs [1,2] is, not re-sorted into m[2,1]
        messages = []
        for argv in (
            ["matsumoto", "--n", "3", "--expr", "m[1,2]"],
            ["product", "--n", "3", "--lhs", "[1,2]", "--rhs", "[]"],
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            messages.append(json.loads(captured.err)["message"])
        reason = "partition parts must be non-increasing: (1, 2)"
        assert all(reason in m for m in messages), messages

    def test_samples_above_the_cap_is_exit_two(self, capsys):
        argv = ["verify", "--suite", "coset-invariants", "--samples", str(MAX_SAMPLES + 1)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["error"] == "UsageError"
        assert error["message"].startswith("--samples:")

    @pytest.mark.parametrize("suite", [s for s in SUITES if s != "coset-invariants"])
    def test_samples_with_an_unsampled_suite_is_exit_two(self, suite, capsys):
        # only coset-invariants samples; the other suites printed the
        # same bytes with or without --samples
        assert main(["verify", "--suite", suite, "--n", "2", "--samples", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["message"].startswith("--samples:")

    @pytest.mark.parametrize("expr", ["1/0", "e1**", "x", *_UNBOUNDED_EXPRS])
    def test_malformed_expression_is_exit_two(self, expr, capsys):
        assert main(["matsumoto", "--expr", expr, "--n", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["error"] == "UsageError"
        assert error["message"].startswith("--expr:")

    @pytest.mark.parametrize("expr", _RUNAWAY_EXPRS, ids=lambda e: e[:12])
    def test_runaway_expression_finishes(self, expr, capsys):
        # at the top level, where the values are largest
        start = time.perf_counter()
        status = main(["matsumoto", "--n", str(MAX_SPHERICAL_LEVEL), "--expr", expr])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert status in (0, 2) and elapsed < 2, (status, elapsed)
        assert (captured.out == "") == (status == 2)

    @pytest.mark.parametrize(
        "expr, reason",
        [("e1^999999", "exponent 999999 exceeds"), ("h1000000", "index 1000000 exceeds")],
    )
    def test_large_index_is_refused_before_any_arithmetic(self, expr, reason, capsys, monkeypatch):
        from bnhecke._symfunc import SymmetricExpression

        def evaluate(self, values, one):
            raise RuntimeError("evaluated")

        monkeypatch.setattr(SymmetricExpression, "evaluate", evaluate)
        assert main(["matsumoto", "--n", "3", "--expr", expr]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert reason in json.loads(captured.err)["message"]

    def test_longest_argument(self, capsys):
        # the longest --expr a launch can pass: 8192 copies of one shared
        # subtree, each a product with an image of 0
        expr = "*".join(["(p20^10-p20^10)"] * (_MAX_ARG_STRLEN // 16))
        assert len(expr) == _MAX_ARG_STRLEN - 1
        start = time.perf_counter()
        status = main(["matsumoto", "--n", str(MAX_SPHERICAL_LEVEL), "--expr", expr])
        elapsed = time.perf_counter() - start
        assert status == 0 and elapsed < 2, (status, elapsed)
        assert json.loads(capsys.readouterr().out) == {"n": MAX_SPHERICAL_LEVEL, "coeffs": []}

    @staticmethod
    def _image(expr, n, capsys):
        assert main(["matsumoto", "--n", str(n), "--expr", expr]) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize(
        "expr, same",
        [
            ("2^13999" + "*1" * 65_000, "2^13999"),
            ("2^13999" + "+0" * 65_000, "2^13999"),
            ("+".join(["1"] * (_MAX_ARG_STRLEN // 2)), str(_MAX_ARG_STRLEN // 2)),
        ],
        ids=["times-one", "plus-zero", "ones"],
    )
    def test_repeats_fold_into_one_count(self, expr, same, capsys):
        # 65000 factors 1 once took 6.4 s in-process and 65000 terms 0
        # 5.5 s, one at a time; now each repeat is one count of its node
        assert len(expr) < _MAX_ARG_STRLEN
        start = time.perf_counter()
        got = self._image(expr, MAX_SPHERICAL_LEVEL, capsys)
        elapsed = time.perf_counter() - start
        assert elapsed < 1, elapsed
        assert got == self._image(same, MAX_SPHERICAL_LEVEL, capsys)

    @pytest.mark.parametrize(
        "expr, n, same",
        [
            ("e9^0", 5, "1"),
            ("0^0", 3, "1"),
            ("(e1-e1)^0", 3, "1"),
            ("2^5000*0*2^5000*2^5000", 12, "0"),
        ],
    )
    def test_zero_exponents_and_zero_factors(self, expr, n, same, capsys):
        # x^0 is 1 when x is 0, and a product with a factor 0 is 0 before
        # the other factors' powers (2^15000 here) are taken
        assert self._image(expr, n, capsys) == self._image(same, n, capsys)

    def test_many_e_leaves_stop_at_their_length(self, capsys):
        # e_k with k > n is 0 before any list is built
        expr = "+".join(f"e{k}" for k in range(1, 14_001))
        start = time.perf_counter()
        got = self._image(expr, MAX_SPHERICAL_LEVEL, capsys)
        elapsed = time.perf_counter() - start
        assert elapsed < 2, elapsed
        assert got == self._image("+".join(f"e{k}" for k in range(1, 13)), 12, capsys)

    def test_many_h_leaves_take_one_dp(self, capsys):
        # a hundred distinct h_k leaves once ran a hundred DPs, 1.65 s
        # in-process; the digest is of the stdout they printed then
        expr = "+".join(f"h{k}" for k in range(13000, 13100))
        start = time.perf_counter()
        status = main(["matsumoto", "--n", "2", "--expr", expr])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert status == 0 and elapsed < 1, (status, elapsed)
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "08621e9b36b4401923b58723b3b76a5cbda7fe29e252fd698e95b7010e17d253"
        )

    def test_expr_work_is_bounded(self, capsys):
        # three m[...] leaves of eleven distinct parts visit 12285 DP
        # states at n = 12 (5.1-8.9 s), and p1 + ... + p3100 takes 37200
        # powers (10.9 s): both are refused before any arithmetic
        m_leaves = "+".join(f"m[{a},10,9,8,7,6,5,4,3,2,1]" for a in (11, 12, 13))
        p_leaves = "+".join(f"p{k}" for k in range(1, 3101))
        for expr, work in ((m_leaves, 12285), (p_leaves, 37200 + 3100 // 8)):
            start = time.perf_counter()
            assert main(["matsumoto", "--n", "12", "--expr", expr]) == 2
            assert time.perf_counter() - start < 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert json.loads(captured.err)["message"] == (
                f"--expr: it takes {work} units of work at n = 12, "
                f"above the bound {MAX_EXPR_WORK}"
            )
        # one leaf of twelve distinct parts visits 4095 states
        single = "m[12,11,10,9,8,7,6,5,4,3,2,1]"
        assert parse(["matsumoto", "--n", "12", "--expr", single]).args["expr"].text == single
        # a leaf with more parts than the n values is 0 with no DP, and
        # costs nothing to price, however long
        assert parse(["matsumoto", "--n", "10", "--expr", m_leaves]).verb == "matsumoto"
        distinct = ",".join(map(str, range(BOUND_BITS, 0, -1)))
        repeated = ",".join(["2"] * 32_500 + ["1"] * 32_500)
        for lam in (distinct, repeated):
            start = time.perf_counter()
            assert main(["matsumoto", "--n", "12", "--expr", f"m[{lam}]"]) == 0
            assert time.perf_counter() - start < 1
            assert json.loads(capsys.readouterr().out) == {"n": 12, "coeffs": []}

    def test_expr_work_counts_the_dp(self):
        # the rows of _symfunc._monomial's DP, replayed on the states alone
        def visited(lam, r):
            parts = sorted(set(lam))
            full = tuple(lam.count(d) for d in parts)
            row, total = {(0,) * len(parts)}, 0
            for left in range(r - 1, -1, -1):
                total += len(row)
                nxt = set()
                for state in row:
                    if len(lam) - sum(state) <= left:
                        nxt.add(state)
                    for j in range(len(parts)):
                        if state[j] < full[j]:
                            nxt.add((*state[:j], state[j] + 1, *state[j + 1:]))
                row = nxt
            return total if len(lam) <= r else 0

        def work(text, r):
            return _work(SymmetricExpression.parse(text).tree, r)

        rng = random.Random(5)
        for _ in range(300):
            r = rng.randint(0, 9)
            lam = tuple(sorted((rng.randint(1, 4) for _ in range(rng.randint(0, r + 2))), reverse=True))
            assert work(f"m{list(lam)}", r) == visited(lam, r), (lam, r)

        # one count per distinct node, under sums and products: r powers
        # for each p leaf, the states of each m leaf (e_k is m_(1^k)), one
        # for each distinct factor of a product but the first, two for
        # each exponent above 1, an eighth for each distinct term, and a
        # sixteenth for each step of the h DP
        F = "m[2,1] + 3*m[2,1]*(m[1,1,1] - e2)^2 + m[3,2,1] + p2*p2 - p3^2"
        states = {
            r: sum(visited(lam, r) for lam in ((2, 1), (1, 1, 1), (1, 1), (3, 2, 1)))
            for r in (2, 3)
        }
        # the product of 3, m[2,1] and a square, p2^2 and p3^2; 7 terms
        assert work(F, 3) == states[3] + 2 * 3 + (2 + 2) + 2 + 2 + 7 // 8
        assert work(F, 2) == states[2] + 2 * 2 + (2 + 2) + 2 + 2 + 7 // 8
        # 2^3*2^3*2^3 is 2^9 and e1^2^3 is e1^6, one power each;
        # e2*h4*e2*5 is e2^2 h4 5
        G = "e2 + h4 + 5 + 2^3*2^3*2^3 - e1^2^3 + e2*h4*e2*5 + h3"
        assert work(G, 9) == visited((1, 1), 9) + visited((1,), 9) + 2 + 2 + (2 + 2) + 7 // 8 + 9 * 4 // 16
        assert work("m[12,11,10,9,8,7,6,5,4,3,2,1]", 12) == 4095
        # repeats add nothing: they fold into a coefficient or an exponent
        assert work("+".join(["1"] * 80), 5) == 0
        assert work("*".join(["e1"] * 16), 3) == visited((1,), 3) + 2
        assert work("h100 + h7 + h100", 12) == 2 // 8 + 12 * 100 // 16

    def test_value_past_the_bound_is_exit_two(self, capsys):
        # 2^8000 at every alphabet passes; 2^8000 p_1^900 outgrows the
        # bound at the alphabets whose 2-contents sum largest only
        assert main(["matsumoto", "--n", "12", "--expr", "2^20^20^20"]) == 0
        capsys.readouterr()
        assert main(["matsumoto", "--n", "12", "--expr", "2^20^20^20 * p1^900"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = json.loads(captured.err)["message"]
        assert message.startswith("--expr: a value of ")
        assert message.endswith(" bits exceeds the bound of 14000 bits at n = 12")

    @pytest.mark.parametrize(
        "argv, head",
        [(["--version"], __version__ + "\n"), (["--help"], "usage: bnhecke")],
        ids=["version", "help"],
    )
    def test_help_and_version_return_zero(self, argv, head, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith(head)

    @pytest.mark.parametrize(
        "verb, digest", _HELP_DIGESTS.items(), ids=[v or "top" for v in _HELP_DIGESTS]
    )
    def test_help_screens_are_pinned(self, verb, digest, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert main([verb, "--help"] if verb else ["--help"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "flags, digest", _VERIFY_DIGESTS.items(), ids=[" ".join(f) for f in _VERIFY_DIGESTS]
    )
    def test_verify_stdout_is_pinned(self, flags, digest, capsys):
        assert main(["verify", "--suite", *flags]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "verb, perm, digest",
        [(*key, digest) for key, digest in _PERM_VERB_DIGESTS.items()],
        ids=[" ".join(key) for key in _PERM_VERB_DIGESTS],
    )
    def test_permutation_verbs_are_pinned(self, verb, perm, digest, capsys):
        assert main([verb, "--perm", perm]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_closed_pipe_is_quiet(self):
        # the reader takes one byte and leaves, as `| head -c 1` does
        child = subprocess.Popen(
            [sys.executable, "-m", "bnhecke.cli", "table", "--n", "4"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert child.stdout.read(1) == b"["
        child.stdout.close()
        err = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait(timeout=120) in (0, 1)
        assert "Traceback" not in err and "BrokenPipeError" not in err, err

    @pytest.mark.parametrize("argv, unloaded", _FOOTPRINTS)
    def test_import_footprint(self, argv, unloaded):
        # one child per argv: modules that one verb loads would stay
        # loaded for the next
        script = (
            "import io, json, sys\n"
            "from contextlib import redirect_stderr, redirect_stdout\n"
            "from bnhecke.cli import main\n"
            "argv, unloaded = json.loads(sys.argv[1])\n"
            "with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):\n"
            "    status = main(argv)\n"
            "print(json.dumps([status, [m for m in unloaded if m in sys.modules]]))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(bnhecke.__file__))
        unloaded = [*_NEVER_LOADED, *unloaded]
        child = subprocess.run(
            [sys.executable, "-c", script, json.dumps([argv, unloaded])],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        status, loaded = json.loads(child.stdout)
        assert status == 0, child.stdout
        assert loaded == [], loaded

    def test_console_script_round_trip(self):
        argv = ["product", "--n", "2", "--lhs", "[1]", "--rhs", "[1]"]
        results = [
            subprocess.run(
                [sys.executable, "-m", "bnhecke.cli", *argv],
                capture_output=True,
                timeout=120,
            )
            for _ in range(2)
        ]
        assert all(r.returncode == 0 for r in results)
        assert results[0].stdout == results[1].stdout
        payload = json.loads(results[0].stdout)
        assert payload["coeffs"][0] == {"mu": [], "c": "2"}


# permutations of [m], m <= 6, so of level <= 3, in either notation
_PERMS = st.integers(0, 6).flatmap(
    lambda m: st.permutations(range(1, m + 1))
).flatmap(
    lambda images: st.sampled_from(
        [json.dumps(images, separators=(",", ":")), Permutation(tuple(images)).cycle_string()]
    )
)
# sums of products of at most two atoms: degree <= 4, cheap at every level
_TERMS = st.lists(
    st.sampled_from(["3", "e1", "e2", "p1", "p2", "h2", "m[1,1]", "e1^2"]), min_size=1, max_size=2
).map("*".join)
_EXPRS = st.tuples(
    _TERMS, st.lists(st.tuples(st.sampled_from([" + ", " - "]), _TERMS), max_size=2)
).map(lambda t: t[0] + "".join(op + term for op, term in t[1]))

# (valid values, invalid values) per flag; the levels stay at n <= 3.
# 13 is above every cap but coset-size's.
# a part or an image that is a JSON float, bool or string is not read
# as an integer
_NOT_INTEGER_PARTS = ["[1.5]", "[true]", '["2"]', "[1e0]"]
_NOT_INTEGER_IMAGES = ["[2.5,1]", "[2,true]"]
_PARTITION_FLAGS = ("--mu", "--lam", "--nu", "--lhs", "--rhs")
_SHAPES = (
    st.sampled_from(["[]", "[1]", "[2]", "[1,1]"]),
    ["[3]", "[0]", "{}", "[1", "x", *_NOT_INTEGER_PARTS],
)
_LEVELS = (st.sampled_from(["1", "2", "3"]), ["-1", "0", "13", "x"])
_FLAG_VALUES = {
    "--format": (st.sampled_from(["json", "csv"]), ["xml"]),
    "--jobs": (None, ["0", "2"]),  # no such flag: always a usage error
    "--perm": (_PERMS, ["[1,1]", "(1 2", "[0]", "x", *_NOT_INTEGER_IMAGES]),
    "--n": _LEVELS,
    "--max-n": _LEVELS,
    "--max-weight": (st.sampled_from(["0", "1", "2"]), ["-1", "5"]),
    "--samples": (st.integers(1, 20).map(str), ["0", "-3", str(MAX_SAMPLES + 1)]),
    "--r": (st.sampled_from(["0", "1", "2"]), ["-1", "9"]),
    "--expr": (_EXPRS, ["1/0", "e1**", "", "p14001", "e1^14001", "2^20^20^20^20"]),
    "--suite": (st.sampled_from(list(SUITES)), ["nope"]),
    "--basis": (st.sampled_from(["K", "C"]), ["Q"]),
    **dict.fromkeys(_PARTITION_FLAGS, _SHAPES),
}
_VERB_FLAGS = {
    "coset-type": ["--perm"],
    "phi": ["--perm"],
    "coset-size": ["--mu", "--n"],
    "product": ["--n", "--lhs", "--rhs"],
    "structure-constant": ["--lam", "--mu", "--nu", "--n"],
    "expand-single-cycle": ["--lam", "--r", "--n"],
    "matsumoto": ["--expr", "--n"],
    "generators": ["--n"],
    "verify": ["--suite", "--n", "--samples"],
    "fit": ["--lam", "--mu", "--nu", "--max-weight", "--basis"],
    "table": ["--n"],
    "frobnicate": [],
}
_EXITS = ("--help", "-h", "--version")
# junk that starts with a dash could abbreviate --help or --version,
# which the test recognises by name only, so dashed junk is fixed
_JUNK = st.text(max_size=4).filter(lambda t: not t.startswith("-")) | st.sampled_from(
    ["-", "--", "--bogus", "-x", "-1", "--n=2"]
)


@st.composite
def _argvs(draw):
    """Each flag of the verb with a valid value and --format half the
    time; then, half the time, one fault: a flag of the verb left out or
    given an invalid value, the removed --jobs, a flag of any verb, a
    junk token, or --help, -h or --version.  Almost every choice shows
    in the argv, so distinct draws rarely give the same argv."""
    verb = draw(st.sampled_from(sorted(_VERB_FLAGS)))
    # verify always gets --max-n: the default 4 would run the slow
    # level-4 suites
    flags = (["--max-n"] if verb == "verify" else []) + _VERB_FLAGS[verb]
    if draw(st.booleans()):
        flags.insert(0, "--format")
    values = {flag: draw(_FLAG_VALUES[flag][0]) for flag in flags}
    # only the coset-invariants suite takes --samples
    if values.get("--suite", "coset-invariants") != "coset-invariants":
        del values["--samples"]
    # frobnicate without --format has no flag to make invalid
    faults = (["invalid"] if values else []) + ["jobs", "extra", "junk", "exit"]
    if _VERB_FLAGS[verb]:
        faults.append("omit")
    fault = draw(st.none() | st.sampled_from(faults))
    extra = []
    if fault == "omit":
        del values[draw(st.sampled_from([f for f in _VERB_FLAGS[verb] if f in values]))]
    elif fault == "invalid":
        flag = draw(st.sampled_from(list(values)))
        values[flag] = draw(st.sampled_from(_FLAG_VALUES[flag][1]))
    elif fault == "extra":
        flag = draw(st.sampled_from(sorted(_FLAG_VALUES)))
        valid, invalid = _FLAG_VALUES[flag]
        wrong = st.sampled_from(invalid)
        extra = [flag, draw(wrong if valid is None else valid | wrong)]
    # --format and --jobs belong to the main parser, before the verb
    head = ["--format", values.pop("--format")] if "--format" in values else []
    if fault == "jobs":
        head[:0] = ["--jobs", draw(st.sampled_from(_FLAG_VALUES["--jobs"][1]))]
    argv = [*head, verb, *(token for pair in values.items() for token in pair), *extra]
    if fault in ("junk", "exit"):
        token = draw(_JUNK if fault == "junk" else st.sampled_from(_EXITS))
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


def _is_table(text: str) -> bool:
    rows = list(csv.reader(io.StringIO(text)))
    return bool(rows and rows[0]) and all(len(r) == len(rows[0]) for r in rows)


# each verb with a partition or a permutation flag, all its flags valid
# at level 3 (fit by triple), then one made non-integer
_VALID_AT_3 = {"--n": "3", "--r": "1", "--perm": "[2,1]", **dict.fromkeys(_PARTITION_FLAGS, "[1]")}
_NOT_INTEGER = {"--perm": _NOT_INTEGER_IMAGES, **dict.fromkeys(_PARTITION_FLAGS, _NOT_INTEGER_PARTS)}
_NOT_INTEGER_CASES = [
    (verb, flag, bad)
    for verb, flags in _VERB_FLAGS.items()
    for flag in flags
    for bad in _NOT_INTEGER.get(flag, ())
]


class TestHandKeptLists:
    def test_suites_are_the_runners(self):
        from bnhecke.suites import SUITE_RUNNERS

        assert list(SUITES) == list(SUITE_RUNNERS)

    def test_every_module_all_resolves(self):
        # a name left in __all__ by a deletion would fail only at import *
        package = os.path.dirname(bnhecke.__file__)
        modules = sorted(
            name[:-3] for name in os.listdir(package)
            if name.endswith(".py") and name != "__init__.py"
        )
        assert "partitions" in modules
        for module in ["bnhecke", *(f"bnhecke.{m}" for m in modules)]:
            __import__(module)
            home = sys.modules[module]
            missing = [n for n in getattr(home, "__all__", ()) if not hasattr(home, n)]
            assert not missing, (home.__name__, missing)


class TestIntegerBoundary:
    @pytest.mark.parametrize("verb, flag, bad", _NOT_INTEGER_CASES)
    def test_non_integer_is_usage_error(self, verb, flag, bad, capsys):
        values = {f: _VALID_AT_3[f] for f in _VERB_FLAGS[verb] if f in _VALID_AT_3}
        parse([verb, *(token for pair in values.items() for token in pair)])
        values[flag] = bad
        assert main([verb, *(token for pair in values.items() for token in pair)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["error"] == "UsageError"
        assert error["message"].startswith(f"{flag}:")


class TestContractFuzz:
    @settings(
        max_examples=200,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_argvs())
    # the Matsumoto cap is rarely drawn: one level over it and one under it
    @example(["matsumoto", "--expr", "e1", "--n", "13"])
    @example(["verify", "--max-n", "13", "--suite", "matsumoto"])
    @example(["matsumoto", "--expr", "e2 - 2*p2", "--n", "6"])
    # the levels stay at n <= 3: the coset-size print cap would not be
    # drawn, nor the removed degree flag of generators
    @example(["coset-size", "--n", "780", "--mu", "[779]"])
    @example(["generators", "--n", "3", "--max-degree", "2"])
    # expressions of large index, exponent or nesting
    @example(["matsumoto", "--n", "3", "--expr", _RUNAWAY_EXPRS[0]])
    @example(["matsumoto", "--n", "3", "--expr", _RUNAWAY_EXPRS[1]])
    @example(["matsumoto", "--n", "3", "--expr", _RUNAWAY_EXPRS[2]])
    @example(["matsumoto", "--n", "3", "--expr", _RUNAWAY_EXPRS[3]])
    @example(["matsumoto", "--n", "3", "--expr", _RUNAWAY_EXPRS[4]])
    # an index past the bound, in a bare e_k and in a sum
    @example(["matsumoto", "--n", "3", "--expr", _UNBOUNDED_EXPRS[0]])
    @example(["matsumoto", "--n", "3", "--expr", _UNBOUNDED_EXPRS[1]])
    # the value bound of powers
    @example(["matsumoto", "--n", "3", "--expr", _UNBOUNDED_EXPRS[2]])
    # the cap on the largest point a permutation names
    @example(["coset-type", "--perm", _FAR_POINT])
    @example(["phi", "--perm", _FAR_POINT])
    # an expression that the matching walk took minutes over
    @example(_COSTLY_MATSUMOTO)
    def test_any_argv_exits_cleanly(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = main(argv)
        text = out.getvalue()
        assert status in (0, 1, 2), argv
        if status == 2:
            assert text == "", argv
            last = err.getvalue().strip().splitlines()[-1]
            assert json.loads(last)["error"] == "UsageError", argv
            return
        assert text, argv
        if set(_EXITS) & set(argv):
            assert status == 0, argv
            assert text.startswith("usage: bnhecke") or text == __version__ + "\n"
            return
        try:
            json.loads(text)
        except ValueError:
            assert _is_table(text), (argv, text)
