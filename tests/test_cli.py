import csv
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from math import factorial

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import bnhecke
from bnhecke import __version__
from bnhecke.cli import MAX_COSET_SIZE_LEVEL, SUITES, Command, execute, main, parse
from bnhecke.cosets import double_coset_size
from bnhecke.errors import UsageError
from bnhecke.permutations import Permutation


def run(argv):
    """parse + execute with captured stdout; returns (status, payload)."""
    stream = io.StringIO()
    status = execute(parse(argv), stream=stream)
    text = stream.getvalue()
    return status, text


def run_json(argv):
    status, text = run(argv)
    return status, json.loads(text)


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
            ["product", "--n", "6", "--lhs", "[1]", "--rhs", "[1]"],
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
            ["generators", "--n", "3", "--max-degree", "0"],
            ["verify", "--suite", "nope", "--n", "3"],
            ["verify", "--suite", "matsumoto", "--n", "8"],
            ["verify", "--suite", "matsumoto", "--samples", "0"],
            ["fit", "--lam", "[1]"],
            ["fit"],
            ["fit", "--max-weight", "5"],
            ["fit", "--max-weight", "2", "--lam", "[1]"],
            ["table", "--n", "6"],
            ["--jobs", "0", "table", "--n", "2"],
            ["verify", "--suite", "matsumoto", "--max-n", "8"],
            ["verify", "--suite", "generators", "--n", "6"],
            ["matsumoto", "--expr", "e1", "--n", "8"],
            ["coset-size", "--mu", "[]", "--n", str(MAX_COSET_SIZE_LEVEL + 1)],
            ["generators", "--n", "3", "--max-degree", "3"],
        ],
    )
    def test_usage_errors(self, argv):
        with pytest.raises(UsageError):
            parse(argv)

    def test_coset_size_allows_large_levels(self):
        # closed form, no table sweep: levels above the CLI cap are fine
        assert parse(["coset-size", "--mu", "[1]", "--n", "12"]).args["n"] == 12

    def test_generators_default_degree(self):
        assert parse(["generators", "--n", "4"]).args["max_degree"] == 3
        assert parse(
            ["generators", "--n", "4", "--max-degree", "2"]
        ).args["max_degree"] == 2


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

    def test_verify_matsumoto_at_the_cap(self):
        status, payload = run_json(["verify", "--suite", "matsumoto", "--n", "7"])
        assert status == 0 and payload["ok"] is True
        assert len(payload["checks"]) == 7

    def test_generators_success(self):
        status, payload = run_json(["generators", "--n", "3"])
        assert status == 0
        assert payload["rank"] == 3
        assert [e["mu"] for e in payload["expressions"]] == [[], [1], [2]]

    def test_generators_insufficient_degree_is_an_error_object(self):
        status, payload = run_json(
            ["generators", "--n", "4", "--max-degree", "1"]
        )
        assert status == 1
        assert payload["error"] == "InsufficientDegree"
        assert "raise max_degree" in payload["message"]

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

    def test_table(self):
        status, payload = run_json(["table", "--n", "2"])
        assert status == 0
        assert len(payload) == 8
        lookup = {
            (tuple(r["lam"]), tuple(r["mu"]), tuple(r["nu"])): r["b"]
            for r in payload
        }
        assert lookup[(1,), (1,), ()] == 2
        assert lookup[(1,), (1,), (1,)] == 1

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


class TestMain:
    def test_success_path(self, capsys):
        assert main(["coset-size", "--mu", "[1]", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["size"] == 16

    def test_usage_error_is_exit_two(self, capsys):
        assert main(["product", "--n", "9", "--lhs", "[]", "--rhs", "[]"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["error"] == "UsageError"

    @pytest.mark.parametrize("expr", ["1/0", "e1**", "x"])
    def test_malformed_expression_is_exit_two(self, expr, capsys):
        assert main(["matsumoto", "--expr", expr, "--n", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["error"] == "UsageError"
        assert error["message"].startswith("--expr:")

    @pytest.mark.parametrize(
        "argv, head",
        [(["--version"], __version__ + "\n"), (["--help"], "usage: bnhecke")],
        ids=["version", "help"],
    )
    def test_help_and_version_return_zero(self, argv, head, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith(head)

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

    def test_no_verb_imports_numpy(self):
        # the permutation oracle is the only numpy module; no verb loads it
        argvs = [
            ["coset-type", "--perm", "[2,1]"],
            ["phi", "--perm", "[2,1]"],
            ["coset-size", "--mu", "[1]", "--n", "2"],
            ["product", "--n", "2", "--lhs", "[1]", "--rhs", "[1]"],
            ["structure-constant", "--lam", "[1]", "--mu", "[1]", "--nu", "[]", "--n", "2"],
            ["expand-single-cycle", "--lam", "[1]", "--r", "1", "--n", "2"],
            ["matsumoto", "--expr", "e1", "--n", "2"],
            ["generators", "--n", "2"],
            ["fit", "--lam", "[1]", "--mu", "[1]", "--nu", "[1]"],
            ["table", "--n", "2"],
            *(["verify", "--suite", suite, "--n", "2", "--samples", "5"] for suite in SUITES),
        ]
        script = (
            "import io, json, sys\n"
            "from contextlib import redirect_stderr, redirect_stdout\n"
            "from bnhecke.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):\n"
            "        status = main(argv)\n"
            "    print(status, 'numpy' in sys.modules)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(bnhecke.__file__))
        child = subprocess.run(
            [sys.executable, "-c", script, json.dumps(argvs)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        lines = child.stdout.splitlines()
        assert len(lines) == len(argvs), child.stdout
        for argv, line in zip(argvs, lines):
            assert line == "0 False", (argv, line)

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


# (valid, invalid) values per flag; the levels stay at n <= 3.  6 is above
# the cap of every verb and suite but matsumoto's; 8 is above every cap.
_SHAPES = (["[]", "[1]", "[2]", "[1,1]"], ["[3]", "[0]", "{}", "[1", "x"])
_LEVELS = (["1", "2", "3"], ["-1", "0", "6", "8", "x"])
_FLAG_VALUES = {
    "--format": (["json", "csv"], ["xml"]),
    "--jobs": ([], ["0", "2"]),  # no such flag: always a usage error
    "--perm": (["[]", "[2,1]", "[3,1,2]", "(1 2)(3 4)"], ["[1,1]", "(1 2"]),
    "--n": _LEVELS,
    "--max-n": _LEVELS,
    "--max-weight": (["0", "1", "2"], ["-1", "5"]),
    "--max-degree": (["1", "2"], ["-1", "0"]),
    "--samples": (["1", "3"], ["0"]),
    "--r": (["0", "1", "2"], ["-1", "9"]),
    "--expr": (["e1", "e2 - 2*p2", "h2"], ["1/0", "e1**", ""]),
    "--suite": (list(SUITES), ["nope"]),
    "--basis": (["K", "C"], ["Q"]),
    **{flag: _SHAPES for flag in ("--mu", "--lam", "--nu", "--lhs", "--rhs")},
}
_VERB_FLAGS = {
    "coset-type": ["--perm"],
    "phi": ["--perm"],
    "coset-size": ["--mu", "--n"],
    "product": ["--n", "--lhs", "--rhs"],
    "structure-constant": ["--lam", "--mu", "--nu", "--n"],
    "expand-single-cycle": ["--lam", "--r", "--n"],
    "matsumoto": ["--expr", "--n"],
    "generators": ["--n", "--max-degree"],
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
    """Mostly well-formed argv: each flag of the verb and a valid value
    for it fifteen times in sixteen, --format half the time, and once
    in sixteen each the removed --jobs, a flag of any verb, a junk token,
    and once in four --help, -h or --version."""

    def seldom():
        return draw(st.sampled_from([False] * 15 + [True]))

    def pair(flag):
        valid, invalid = _FLAG_VALUES[flag]
        return [flag, draw(st.sampled_from(invalid if seldom() or not valid else valid))]

    verb = draw(st.sampled_from(sorted(_VERB_FLAGS)))
    argv = [verb]
    if verb == "verify":
        # the default --max-n 4 would run the slow level-4 suites
        argv += pair("--max-n")
    for flag in _VERB_FLAGS[verb]:
        if not seldom():
            argv += pair(flag)
    if draw(st.booleans()):
        argv[:0] = pair("--format")
    if seldom():
        argv[:0] = pair("--jobs")
    if seldom():
        argv += pair(draw(st.sampled_from(sorted(_FLAG_VALUES))))
    if seldom():
        argv.insert(draw(st.integers(0, len(argv))), draw(_JUNK))
    if not draw(st.integers(0, 3)):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_EXITS)))
    return argv


def _is_table(text: str) -> bool:
    rows = list(csv.reader(io.StringIO(text)))
    return bool(rows and rows[0]) and all(len(r) == len(rows[0]) for r in rows)


class TestContractFuzz:
    @settings(
        max_examples=200,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_argvs())
    # the Matsumoto cap is rarely drawn: one level over it and one under it
    @example(["matsumoto", "--expr", "e1", "--n", "8"])
    @example(["verify", "--max-n", "8", "--suite", "matsumoto"])
    @example(["matsumoto", "--expr", "e2 - 2*p2", "--n", "6"])
    # the levels stay at n <= 3: the coset-size print cap and a degree
    # far above n - 1 would not be drawn
    @example(["coset-size", "--n", "780", "--mu", "[779]"])
    @example(["generators", "--n", "3", "--max-degree", "50"])
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
