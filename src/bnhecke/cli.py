"""Command-line front end: compute, tabulate, and verify.

Every verb validates its arguments fully before any computation
starts, emits machine-readable JSON (or CSV) on stdout, and keeps
progress chatter on stderr.  Reruns with identical flags produce
byte-identical output: orderings are fixed by the canonical partition
order, and sampled verification uses a fixed seed.

Exit codes: 0 success, 1 verification or computation failure
(reported as a JSON error object), 2 usage error.

Caps on the level of each verb and on the degree of --expr bound the
work of every argv that parses; no cost model prices an argv.  Parsing
loads no computing layer.  Each verb's runner imports the
layers it runs when it is dispatched, and the verify suites live in
bnhecke.suites, which only verify loads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import namedtuple

from . import __version__
from .errors import HeckeError, UsageError
from .partitions import as_partition, enumerate_by_weight, weight

SUITES = (
    "matsumoto",
    "jm-center",
    "trichotomy",
    "single-cycle",
    "graded-iso",
    "generators",
    "coset-invariants",
)

MAX_CLI_LEVEL = 5
# the Matsumoto image reads the spherical functions of
# bnhecke.characters, built up to its MAX_SPHERICAL_LEVEL
MAX_MATSUMOTO_LEVEL = 12
# the largest weight of the triples fit --max-weight sweeps
MAX_FIT_WEIGHT = 4
# every |K_mu(n)| <= (2n)!, and (2n)! has at most 4300 digits, Python's
# default int-to-str limit, up to n = 779: json.dumps prints any size
MAX_COSET_SIZE_LEVEL = 779


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


def _expr_flag(text: str, flag: str) -> SymmetricExpression:
    from ._symfunc import SymmetricExpression

    try:
        return SymmetricExpression.parse(text)
    except ValueError as exc:
        raise UsageError(f"{flag}: not a symmetric expression: {text!r} ({exc})")
    except RecursionError:
        raise UsageError(f"{flag}: expression nested too deeply") from None


def _level_flag(value: int, flag: str, low: int = 1, high: int = MAX_CLI_LEVEL) -> int:
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

    p = sub.add_parser("coset-type", help="coset type of a permutation of even degree")
    p.add_argument("--perm", required=True, help="one-line JSON array or cycle notation")

    p = sub.add_parser("phi", help="the twist t w^-1 t w")
    p.add_argument("--perm", required=True)

    p = sub.add_parser("coset-size", help="size of the double coset of stable type mu")
    p.add_argument("--mu", required=True, help="partition as a JSON list")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("product", help="K_lhs * K_rhs in the K basis")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lhs", required=True, help="partition as a JSON list")
    p.add_argument("--rhs", required=True, help="partition as a JSON list")

    p = sub.add_parser("structure-constant", help="b_{lam mu}^{nu}(n)")
    p.add_argument("--lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("expand-single-cycle", help="closed-form top part of K_lam * K_(r)")
    p.add_argument("--lam", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("matsumoto", help="image of a symmetric expression in odd Jucys-Murphy elements")
    p.add_argument("--expr", required=True, help="e.g. 'e2' or 'p1*e1 - 2*e2'")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("generators", help="certify that H_1..H_n generate, via integer HNF")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=None, help="monomial degree bound, 1 to n-1 (default n-1)")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--n", type=int, default=None, help="run at exactly this level")
    p.add_argument("--max-n", type=int, default=4, help=(
        f"run levels up to this (default 4; at most {MAX_CLI_LEVEL}, "
        f"{MAX_MATSUMOTO_LEVEL} for the matsumoto suite)"
    ))
    p.add_argument("--samples", type=int, default=1000, help="random samples per level for sampled suites")

    p = sub.add_parser("fit", help="fit structure constants as integer-valued polynomials in n")
    p.add_argument("--lam")
    p.add_argument("--mu")
    p.add_argument("--nu")
    p.add_argument("--max-weight", type=int, default=None, help="fit all triples up to this weight instead")
    p.add_argument("--basis", choices=("K", "C"), default="K")

    p = sub.add_parser("table", help="all structure constants at one level")
    p.add_argument("--n", type=int, required=True)

    return parser


def parse(argv) -> Command:
    """Validate argv into a Command; raises UsageError (argparse exits on --help)."""
    ns = build_parser().parse_args(argv)
    if ns.verb is None:
        raise UsageError("a verb is required (see --help)")
    args: dict = {}
    if ns.verb in ("coset-type", "phi"):
        args["perm"] = _perm_flag(ns.perm, "--perm")
    elif ns.verb == "coset-size":
        args["mu"] = _partition_flag(ns.mu, "--mu")
        args["n"] = _level_flag(ns.n, "--n", high=MAX_COSET_SIZE_LEVEL)
        if weight(args["mu"]) > ns.n:
            raise UsageError(
                f"--mu: weight {weight(args['mu'])} exceeds level {ns.n}"
            )
    elif ns.verb == "product":
        args["n"] = _level_flag(ns.n, "--n")
        args["lhs"] = _partition_flag(ns.lhs, "--lhs")
        args["rhs"] = _partition_flag(ns.rhs, "--rhs")
        for flag, mu in (("--lhs", args["lhs"]), ("--rhs", args["rhs"])):
            if weight(mu) > ns.n:
                raise UsageError(
                    f"{flag}: weight {weight(mu)} exceeds level {ns.n}"
                )
    elif ns.verb == "structure-constant":
        args["n"] = _level_flag(ns.n, "--n")
        for flag in ("lam", "mu", "nu"):
            args[flag] = _partition_flag(getattr(ns, flag), f"--{flag}")
            if weight(args[flag]) > ns.n:
                raise UsageError(
                    f"--{flag}: weight {weight(args[flag])} exceeds level {ns.n}"
                )
    elif ns.verb == "expand-single-cycle":
        args["n"] = _level_flag(ns.n, "--n")
        args["lam"] = _partition_flag(ns.lam, "--lam")
        if ns.r < 0:
            raise UsageError(f"--r: must be non-negative, got {ns.r}")
        args["r"] = ns.r
        if weight(args["lam"]) > ns.n:
            raise UsageError(
                f"--lam: weight {weight(args['lam'])} exceeds level {ns.n}"
            )
        if ns.r and ns.r + 1 > ns.n:
            raise UsageError(
                f"--r: K_({ns.r}) has weight {ns.r + 1}, above level {ns.n}"
            )
    elif ns.verb == "matsumoto":
        args["n"] = _level_flag(ns.n, "--n", low=2, high=MAX_MATSUMOTO_LEVEL)
        args["expr"] = _expr_flag(ns.expr, "--expr")
    elif ns.verb == "generators":
        args["n"] = _level_flag(ns.n, "--n", low=2)
        degree = ns.max_degree if ns.max_degree is not None else ns.n - 1
        # degree n - 1 already certifies every level the verb accepts
        if not 1 <= degree <= ns.n - 1:
            raise UsageError(
                f"--max-degree: must be in [1, {ns.n - 1}], got {degree}"
            )
        args["max_degree"] = degree
    elif ns.verb == "verify":
        args["suite"] = ns.suite
        high = MAX_MATSUMOTO_LEVEL if ns.suite == "matsumoto" else MAX_CLI_LEVEL
        if ns.n is not None:
            levels = [_level_flag(ns.n, "--n", low=2, high=high)]
        else:
            levels = list(range(2, _level_flag(ns.max_n, "--max-n", low=2, high=high) + 1))
        args["levels"] = levels
        if ns.samples < 1:
            raise UsageError(f"--samples: must be positive, got {ns.samples}")
        args["samples"] = ns.samples
    elif ns.verb == "fit":
        triple_flags = (ns.lam, ns.mu, ns.nu)
        if ns.max_weight is not None:
            if any(f is not None for f in triple_flags):
                raise UsageError("--max-weight excludes --lam/--mu/--nu")
            if not 0 <= ns.max_weight <= MAX_FIT_WEIGHT:
                raise UsageError(
                    f"--max-weight: must be in [0, {MAX_FIT_WEIGHT}], got {ns.max_weight}"
                )
            args["max_weight"] = ns.max_weight
        else:
            if any(f is None for f in triple_flags):
                raise UsageError("fit needs --lam, --mu and --nu (or --max-weight)")
            args["lam"] = _partition_flag(ns.lam, "--lam")
            args["mu"] = _partition_flag(ns.mu, "--mu")
            args["nu"] = _partition_flag(ns.nu, "--nu")
        args["basis"] = ns.basis
    elif ns.verb == "table":
        args["n"] = _level_flag(ns.n, "--n")
    return Command(verb=ns.verb, args=args, output_format=ns.format)


def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _embedding_level(w: Permutation) -> int:
    """The least n >= 1 with w in S_2n; the identity embeds at n = 1."""
    return max(1, (w.degree + 1) // 2)


# ---------------------------------------------------------------- verbs


def _run_coset_type(args):
    from .cosets import coset_type, stable_coset_type

    w = args["perm"]
    n = _embedding_level(w)
    return {
        "perm": list(w.one_line(2 * n)),
        "n": n,
        "coset_type": list(coset_type(w, n)),
        "stable_coset_type": list(stable_coset_type(w)),
    }, 0


def _run_phi(args):
    from .cosets import phi

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
    from .cosets import double_coset_size

    mu, n = args["mu"], args["n"]
    return {"mu": list(mu), "n": n, "size": double_coset_size(mu, n)}, 0


def _run_product(args):
    from .hecke import HeckeElement, hecke_product

    n = args["n"]
    u = HeckeElement.basis(args["lhs"], n)
    v = HeckeElement.basis(args["rhs"], n)
    return hecke_product(u, v).to_json(), 0


def _run_structure_constant(args):
    from .hecke import hecke_structure_constant

    b = hecke_structure_constant(args["lam"], args["mu"], args["nu"], args["n"])
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

    return matsumoto_image(args["expr"], args["n"]).to_json(), 0


def _run_generators(args):
    from .hecke import generation_certificate

    cert = generation_certificate(args["n"], args["max_degree"])
    return cert.to_json(), 0


def _run_fit(args):
    from .universal import fit_report, fit_triple

    if "max_weight" in args:
        results = fit_report(args["max_weight"], args["basis"])
        return [r.to_json() for r in results], 0
    result = fit_triple(args["lam"], args["mu"], args["nu"], args["basis"])
    return result.to_json(), 0


def _run_table(args):
    from .hecke import hecke_structure_constant

    n = args["n"]
    shapes = enumerate_by_weight(n)
    rows = []
    for lam in shapes:
        _progress(f"table: counting against K_{lam}({n})")
        for mu in shapes:
            for nu in shapes:
                rows.append(
                    {
                        "lam": list(lam),
                        "mu": list(mu),
                        "nu": list(nu),
                        "b": hecke_structure_constant(lam, mu, nu, n),
                    }
                )
    return rows, 0


def _run_verify(args):
    from .suites import run_suite

    return run_suite(args["suite"], args["levels"], args["samples"])


_RUNNERS = {
    "coset-type": _run_coset_type,
    "phi": _run_phi,
    "coset-size": _run_coset_size,
    "product": _run_product,
    "structure-constant": _run_structure_constant,
    "expand-single-cycle": _run_expand_single_cycle,
    "matsumoto": _run_matsumoto,
    "generators": _run_generators,
    "verify": _run_verify,
    "fit": _run_fit,
    "table": _run_table,
}


def _emit(payload, output_format: str, stream) -> None:
    if output_format == "json":
        stream.write(json.dumps(payload, indent=2))
        stream.write("\n")
        return
    import csv
    import io

    buffer = io.StringIO()
    if isinstance(payload, list):
        rows = payload or [{}]
        fields: list[str] = []
        for row in rows:
            for key in row:
                if key not in fields:
                    fields.append(key)
        writer = csv.DictWriter(buffer, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _csv_cell(row.get(k)) for k in fields})
    else:
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key, value in payload.items():
            writer.writerow([key, _csv_cell(value)])
    stream.write(buffer.getvalue())


def _csv_cell(value):
    if isinstance(value, (list, dict)):
        return json.dumps(value, separators=(",", ":"))
    return value


def execute(command: Command, stream=None) -> int:
    """Run a validated Command; returns the exit status."""
    stream = stream if stream is not None else sys.stdout
    try:
        payload, status = _RUNNERS[command.verb](command.args)
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
