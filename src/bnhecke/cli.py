"""Command-line front end: compute, tabulate, and verify.

One ordered table, _VERBS, declares each verb: its help text, the
bounds of its --n, its runner and its flags with their argparse
keywords.  build_parser, parse and execute all read it.  parse reads
the flags verbs share alike (--n, the partition flags with weight at
most n, --perm, --expr) and keeps explicit rules only for the flags of
one verb: --r, verify's levels and samples, fit's either/or.  Every
verb validates its arguments fully before any computation starts (but
for the value bound of --expr, which its values meet as matsumoto
computes them), emits machine-readable JSON (or CSV) on stdout, and
keeps progress chatter on stderr.  Reruns with identical flags produce
byte-identical output: orderings are fixed by the canonical partition
order, and sampled verification uses a fixed seed.

Exit codes: 0 success, 1 verification or computation failure
(reported as a JSON error object), 2 usage error.

Caps on the level of each verb and on the largest point of --perm
bound the work of every argv that parses.  --expr has two bounds.
bnhecke._symfunc.BOUND_BITS bounds each value: parsing refuses any
index, part, exponent or literal past it, and matsumoto refuses, as a
usage error, any value that outgrows it.  MAX_EXPR_WORK bounds the
work bnhecke._symfunc._work prices it at.  A verb's row in _VERBS, or a
suite's entry in SUITES, names the highest level it can afford:
MAX_SPHERICAL_LEVEL or MAX_COSET_SIZE_LEVEL.
Only the coset-invariants suite samples, so --samples with another
suite is a usage error.
Parsing loads no computing layer.  Each verb's runner imports the
layers it runs when it is dispatched, and the verify suites live in
bnhecke.suites, which only verify loads.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from collections import namedtuple

from . import __version__
from .errors import HeckeError, UsageError
from .partitions import (
    MAX_FIT_WEIGHT, MAX_SPHERICAL_LEVEL, as_partition, enumerate_by_weight, weight,
)

# the costs below are one process each on a 2-CPU machine
# verify --suite coset-invariants --max-n 12 costs about 0.1 ms a sample
# a level: 1.2 s at the default 1000 samples, 6.6-9.7 s over 9 launches
# at 8000 and 8.0-10.1 s over 3 at 9000 (BENCH_33.json)
MAX_SAMPLES = 8_000
# matsumoto --n 12 takes 0.4-1.5 ms a unit of _symfunc._work, 3 launches
# each: at the bound, 4400 distinct products (2^6990+k)*(2^6980+k) in one
# sum (7154 units), the costliest argv timed, take 8.5-10.4 s,
# 2^13999+2^13998+...+2^10627 (7167) 6.5-7.3 s and m[12,...,1] beside 38
# leaves m[a,a-1,a-2] (7101) 2.8-4.0 s (BENCH_40.json)
MAX_EXPR_WORK = 7_168
# every |K_mu(n)| <= (2n)!, and (2n)! has at most 4300 digits, Python's
# default int-to-str limit, up to n = 779: json.dumps prints any size
MAX_COSET_SIZE_LEVEL = 779

_PARTITION_FLAGS = ("lam", "mu", "nu", "lhs", "rhs")

# each verify suite and the highest level it runs
SUITES = {
    "matsumoto": MAX_SPHERICAL_LEVEL,
    "jm-center": MAX_SPHERICAL_LEVEL,
    "trichotomy": MAX_SPHERICAL_LEVEL,
    "single-cycle": MAX_SPHERICAL_LEVEL,
    "graded-iso": MAX_SPHERICAL_LEVEL,
    "generators": MAX_SPHERICAL_LEVEL,
    "coset-invariants": MAX_SPHERICAL_LEVEL,
}


class Command(namedtuple("Command", "verb args output_format")):
    """A validated verb, its arguments and the stdout format."""

    __slots__ = ()


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 2 comes from main, not here
        raise UsageError(message)


def _partition_flag(text: str, flag: str):
    try:
        value = json.loads(text)
        if not isinstance(value, list):
            raise ValueError("expected a JSON list")
        return as_partition(value)
    except (json.JSONDecodeError, ValueError, TypeError) as exc:
        raise UsageError(f"{flag}: not a partition: {text!r} ({exc})")


def _perm_flag(text: str, flag: str) -> Permutation:
    from .permutations import parse_permutation

    try:
        return parse_permutation(text)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"{flag}: not a permutation: {text!r} ({exc})")


def _expr_flag(text: str, flag: str, n: int) -> SymmetricExpression:
    from ._symfunc import SymmetricExpression, _work

    try:
        expr = SymmetricExpression.parse(text)
    except ValueError as exc:
        raise UsageError(f"{flag}: not a symmetric expression: {text!r} ({exc})")
    except RecursionError:
        raise UsageError(f"{flag}: expression nested too deeply") from None
    # matsumoto evaluates at alphabets of n values
    if (work := _work(expr.tree, n)) > MAX_EXPR_WORK:
        raise UsageError(f"{flag}: it takes {work} units of work at n = {n}, "
                         f"above the bound {MAX_EXPR_WORK}")
    return expr


def _level_flag(value: int, flag: str, low: int, high: int) -> int:
    if not low <= value <= high:
        raise UsageError(
            f"{flag}: level must be in [{low}, {high}], got {value}"
        )
    return value


def build_parser() -> _Parser:
    parser = _Parser(
        prog="bnhecke",
        description="Exact computations in the Hecke ring of (S_2n, B_n).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="data stream format (default json)",
    )
    sub = parser.add_subparsers(dest="verb", metavar="verb", parser_class=_Parser)
    for name, verb in _VERBS.items():
        p = sub.add_parser(name, help=verb.help)
        for flag, keywords in verb.flags.items():
            p.add_argument(flag, **keywords)
    return parser


def parse(argv) -> Command:
    """Validate argv into a Command; raises UsageError (argparse exits on --help)."""
    given = vars(build_parser().parse_args(argv))
    verb, output_format = given.pop("verb"), given.pop("format")
    if verb is None:
        raise UsageError("a verb is required (see --help)")
    args: dict = {}
    levels = _VERBS[verb].levels
    if levels is not None:
        n = args["n"] = _level_flag(given["n"], "--n", *levels)
    for name in _PARTITION_FLAGS:
        if given.get(name) is not None:
            mu = args[name] = _partition_flag(given[name], f"--{name}")
            if levels is not None and weight(mu) > n:
                raise UsageError(f"--{name}: weight {weight(mu)} exceeds level {n}")
    if "perm" in given:
        args["perm"] = _perm_flag(given["perm"], "--perm")
    if "expr" in given:
        args["expr"] = _expr_flag(given["expr"], "--expr", n)

    # the flags that one verb alone takes
    if "r" in given:  # expand-single-cycle
        r = args["r"] = given["r"]
        if r < 0:
            raise UsageError(f"--r: must be non-negative, got {r}")
        if r and r + 1 > n:
            raise UsageError(f"--r: K_({r}) has weight {r + 1}, above level {n}")
    if "suite" in given:  # verify: the suite sets the level cap
        suite = args["suite"] = given["suite"]
        high = SUITES[suite]
        if given["n"] is not None:
            args["levels"] = [_level_flag(given["n"], "--n", 2, high)]
        else:
            top = _level_flag(given["max_n"], "--max-n", 2, high)
            args["levels"] = list(range(2, top + 1))
        samples = given["samples"]
        if suite != "coset-invariants":
            if samples is not None:
                raise UsageError(f"--samples: only coset-invariants samples; {suite} does not")
        elif samples is None:
            samples = 1000
        elif samples < 1:
            raise UsageError(f"--samples: must be positive, got {samples}")
        elif samples > MAX_SAMPLES:
            raise UsageError(f"--samples: at most {MAX_SAMPLES}, got {samples}")
        args["samples"] = samples
    if "max_weight" in given:  # fit: one triple, or every triple up to a weight
        triple = [name in args for name in ("lam", "mu", "nu")]
        max_weight = given["max_weight"]
        if max_weight is not None:
            if any(triple):
                raise UsageError("--max-weight excludes --lam/--mu/--nu")
            if not 0 <= max_weight <= MAX_FIT_WEIGHT:
                raise UsageError(
                    f"--max-weight: must be in [0, {MAX_FIT_WEIGHT}], got {max_weight}"
                )
            args["max_weight"] = max_weight
        elif not all(triple):
            raise UsageError("fit needs --lam, --mu and --nu (or --max-weight)")
        args["basis"] = given["basis"]
    return Command(verb=verb, args=args, output_format=output_format)


# ---------------------------------------------------------------- verbs


def _run_coset_type(args):
    from .cosets import _embedding_level, coset_type, stable_coset_type

    w = args["perm"]
    n = _embedding_level(w)
    return {
        "perm": list(w.one_line(2 * n)),
        "n": n,
        "coset_type": list(coset_type(w, n)),
        "stable_coset_type": list(stable_coset_type(w)),
    }, 0


def _run_phi(args):
    from .cosets import _embedding_level, phi

    w = args["perm"]
    n = _embedding_level(w)
    image = phi(w, n)
    return {
        "perm": list(w.one_line(2 * n)),
        "n": n,
        "phi": list(image.one_line(2 * n)),
        "cycles": image.cycle_string(),
    }, 0


def _run_coset_size(args):
    from .partitions import double_coset_size

    mu, n = args["mu"], args["n"]
    return {"mu": list(mu), "n": n, "size": double_coset_size(mu, n)}, 0


def _run_product(args):
    from .hecke import HeckeElement, hecke_product

    n = args["n"]
    u = HeckeElement.basis(args["lhs"], n)
    v = HeckeElement.basis(args["rhs"], n)
    return hecke_product(u, v).to_json(), 0


def _run_structure_constant(args):
    from .characters import structure_constant

    b = structure_constant(args["lam"], args["mu"], args["nu"], args["n"], "K")
    return {
        "lam": list(args["lam"]),
        "mu": list(args["mu"]),
        "nu": list(args["nu"]),
        "n": args["n"],
        "b": b,
    }, 0


def _run_expand_single_cycle(args):
    from .hecke import single_cycle_expansion

    expansion = single_cycle_expansion(args["lam"], args["r"], args["n"])
    body = expansion.to_json()
    body.update({"lam": list(args["lam"]), "r": args["r"]})
    return body, 0


def _run_matsumoto(args):
    from .hecke import matsumoto_image

    try:
        image = matsumoto_image(args["expr"], args["n"])
    except ValueError as exc:  # a value past _symfunc.BOUND_BITS
        raise UsageError(f"--expr: {exc} at n = {args['n']}") from None
    return image.to_json(), 0


def _run_generators(args):
    from .hecke import generation_certificate

    return generation_certificate(args["n"]).to_json(), 0


def _run_fit(args):
    from .universal import fit_report, fit_triple

    if "max_weight" in args:
        results = fit_report(args["max_weight"], args["basis"])
        return [r.to_json() for r in results], 0
    result = fit_triple(args["lam"], args["mu"], args["nu"], args["basis"])
    return result.to_json(), 0


# the stable types at a level and {(lam, mu): K_lam K_mu in the K basis}
_Table = namedtuple("_Table", "shapes products")


def _run_table(args):
    from .characters import _row

    n = args["n"]
    shapes = enumerate_by_weight(n)
    products = {}
    for i, lam in enumerate(shapes):
        print(f"table: products with K_{lam}({n})", file=sys.stderr, flush=True)
        # (S_2n, B_n) is a Gel'fand pair: K_lam K_mu = K_mu K_lam
        for mu in shapes[i:]:
            products[lam, mu] = products[mu, lam] = _row(*sorted((lam, mu)), n, "K")
    return _Table(shapes, products), 0


def _run_verify(args):
    from .suites import run_suite

    return run_suite(args["suite"], args["levels"], args["samples"])


_INT = {"type": int, "required": True}
_REQUIRED = {"required": True}
_PARTITION = {**_REQUIRED, "help": "partition as a JSON list"}

# levels: the [low, high] bounds of --n, None for a verb without one
# (the verify suite sets its own)
_Verb = namedtuple("_Verb", "help levels run flags")

# in --help order, each verb's flags too
_VERBS = {
    "coset-type": _Verb("coset type of a permutation of even degree", None, _run_coset_type, {
        "--perm": {**_REQUIRED, "help": "one-line JSON array or cycle notation"},
    }),
    "phi": _Verb("the twist t w^-1 t w", None, _run_phi, {"--perm": _REQUIRED}),
    "coset-size": _Verb(
        "size of the double coset of stable type mu",
        (1, MAX_COSET_SIZE_LEVEL), _run_coset_size,
        {"--mu": _PARTITION, "--n": _INT},
    ),
    "product": _Verb(
        "K_lhs * K_rhs in the K basis", (1, MAX_SPHERICAL_LEVEL), _run_product,
        {"--n": _INT, "--lhs": _PARTITION, "--rhs": _PARTITION},
    ),
    "structure-constant": _Verb(
        "b_{lam mu}^{nu}(n)", (1, MAX_SPHERICAL_LEVEL), _run_structure_constant,
        {"--lam": _REQUIRED, "--mu": _REQUIRED, "--nu": _REQUIRED, "--n": _INT},
    ),
    "expand-single-cycle": _Verb(
        "closed-form top part of K_lam * K_(r)", (1, MAX_SPHERICAL_LEVEL),
        _run_expand_single_cycle,
        {"--lam": _REQUIRED, "--r": _INT, "--n": _INT},
    ),
    "matsumoto": _Verb(
        "image of a symmetric expression in odd Jucys-Murphy elements",
        (2, MAX_SPHERICAL_LEVEL), _run_matsumoto,
        {"--expr": {**_REQUIRED, "help": "e.g. 'e2' or 'p1*e1 - 2*e2'"}, "--n": _INT},
    ),
    "generators": _Verb(
        "certify that H_1..H_n generate, by a modular subring closure",
        (2, MAX_SPHERICAL_LEVEL), _run_generators,
        {"--n": _INT},
    ),
    "verify": _Verb("run a verification suite", None, _run_verify, {
        "--suite": {**_REQUIRED, "choices": SUITES},
        "--n": {"type": int, "help": "run at exactly this level"},
        "--max-n": {"type": int, "default": 4, "help": (
            "run levels up to this (default 4; at most "
            + ", ".join(f"{top} for {suite}" for suite, top in SUITES.items()) + ")"
        )},
        "--samples": {"type": int, "help": (
            f"random samples per level for sampled suites (at most {MAX_SAMPLES})"
        )},
    }),
    "fit": _Verb(
        "fit structure constants as integer-valued polynomials in n", None, _run_fit, {
            "--lam": {}, "--mu": {}, "--nu": {},
            "--max-weight": {"type": int, "help": "fit all triples up to this weight instead"},
            "--basis": {"choices": ("K", "C"), "default": "K"},
        },
    ),
    "table": _Verb("all structure constants at one level", (1, MAX_SPHERICAL_LEVEL), _run_table, {
        "--n": _INT,
    }),
}


def _emit(payload, output_format: str, stream) -> None:
    if isinstance(payload, _Table):
        return _write_table(*payload, output_format, stream)
    if output_format == "json":
        stream.write(json.dumps(payload, indent=2) + "\n")
        return
    import csv

    if isinstance(payload, list):
        rows = payload or [{}]
        fields = list(dict.fromkeys(key for row in rows for key in row))
        writer = csv.DictWriter(stream, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows({k: _csv_cell(row.get(k)) for k in fields} for row in rows)
    else:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["key", "value"])
        writer.writerows([key, _csv_cell(value)] for key, value in payload.items())


def _write_table(shapes, products, output_format: str, stream) -> None:
    """Write table's rows one at a time, in the bytes _emit writes for the
    list of {lam, mu, nu, b}; each type's text is made once."""
    triples = itertools.product(shapes, repeat=3)
    rows = ((lam, mu, nu, products[lam, mu].get(nu, 0)) for lam, mu, nu in triples)
    if output_format == "csv":
        import csv

        text = {mu: _csv_cell(list(mu)) for mu in shapes}
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["lam", "mu", "nu", "b"])
        writer.writerows([text[lam], text[mu], text[nu], b] for lam, mu, nu, b in rows)
        return
    # a row is an object in a list, so its types sit two levels deep
    text = {mu: json.dumps(list(mu), indent=2).replace("\n", "\n    ") for mu in shapes}
    head = "[\n"
    for lam, mu, nu, b in rows:
        stream.write(f'{head}  {{\n    "lam": {text[lam]},\n    "mu": {text[mu]},\n'
                     f'    "nu": {text[nu]},\n    "b": {b}\n  }}')
        head = ",\n"
    stream.write("\n]\n")


def _csv_cell(value):
    if isinstance(value, (list, dict)):
        return json.dumps(value, separators=(",", ":"))
    return value


def execute(command: Command, stream=None) -> int:
    """Run a validated Command; returns the exit status."""
    stream = stream if stream is not None else sys.stdout
    try:
        payload, status = _VERBS[command.verb].run(command.args)
    except UsageError:
        raise
    except HeckeError as exc:
        _emit(
            {"error": type(exc).__name__, "message": str(exc)},
            command.output_format,
            stream,
        )
        return 1
    _emit(payload, command.output_format, stream)
    return status


def main(argv=None) -> int:
    try:
        status = execute(parse(sys.argv[1:] if argv is None else argv))
        sys.stdout.flush()
        return status
    except SystemExit as exc:  # from argparse, once --help or --version printed
        return exc.code
    except UsageError as exc:
        print(
            json.dumps({"error": "UsageError", "message": str(exc)}),
            file=sys.stderr,
        )
        return 2
    except BrokenPipeError:
        # the reader left: the interpreter's last flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
