"""Run ``bnhecke.cli.main(argv)`` with per-layer wrappers installed.

Usage: python3 perfbench/traced_cli.py VERB [FLAGS...]

The wrappers sit outside the package: each public function of a layer
is replaced by a timing wrapper in every ``bnhecke`` module that binds
it, so calls through ``from ... import`` names are seen too.  Spans
nest on a stack, so a layer's self time excludes the layers it calls.
The pair-graph walk runs hundreds of thousands of times per
invocation; it gets a counter and a summed timer instead of spans.

Stdout is the CLI's own.  The span summary goes to stderr as one JSON
line prefixed with ``MARKER``, after the CLI has finished.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

MARKER = "PERFBENCH_TRACE "

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, start, child seconds, span id]
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)

    def span(self, name: str, fn, before=None, after=None):
        def wrapper(*args, **kwargs):
            note = before(*args, **kwargs) if before else None
            parent = self.stack[-1][3] if self.stack else -1
            frame = [name, _clock(), 0.0, len(self.spans)]
            self.spans.append((name, frame[1], 0.0, parent))
            self.stack.append(frame)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = _clock()
                self.stack.pop()
                self.spans[frame[3]] = (name, frame[1], end, parent)
                duration = end - frame[1]
                self.self_s[name] += duration - frame[2]
                self.calls[name] += 1
                if self.stack:
                    self.stack[-1][2] += duration
                if after:
                    after(note, result, error, args)

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        counts, stack = self.counts, self.stack

        def wrapper(*args, **kwargs):
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                counts[name + "_calls"] += 1
                counts[name + "_s"] += elapsed
                if stack:
                    stack[-1][2] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper


def rebind(original, replacement) -> None:
    """Point every bnhecke module global bound to original at replacement."""
    for name, module in list(sys.modules.items()):
        if name == "bnhecke" or name.startswith("bnhecke."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    from bnhecke import _backend, cli, cosets, group_algebra, hecke, universal
    from bnhecke.errors import ValidationFailure

    counts = tracer.counts

    def wrap(module, name, span, **hooks):
        original = getattr(module, name)
        rebind(original, tracer.span(span, original, **hooks))

    # _backend: level tables and per-nu tallies
    def table_after(note, result, error, args):
        if error is not None:
            return
        table = args[0]
        counts["table_rows"] += len(table._perms)
        counts["table_bytes"] += (
            table._perms.nbytes + table._order.nbytes + 8 * len(table._perms)
        )

    _backend.LevelTable.__init__ = tracer.span(
        "backend.table_build", _backend.LevelTable.__init__, after=table_after
    )

    def tally_before(lam, nu, n, jobs=None):
        return (tuple(lam), tuple(nu), n) not in _backend._TALLIES

    def tally_after(missed, result, error, args):
        if missed and result is not None:
            counts["tally_misses"] += 1
            counts["tally_rows"] += sum(result.values())

    wrap(_backend, "product_tally", "backend.tally",
         before=tally_before, after=tally_after)

    # hecke
    wrap(hecke, "hecke_structure_constant", "hecke.structure_constant")
    wrap(hecke, "hecke_product", "hecke.product")
    wrap(hecke, "generation_certificate", "hecke.certificate")
    wrap(hecke, "matsumoto_image", "hecke.matsumoto")

    def hnf_before(mat):
        counts["hnf_rows"] = max(counts["hnf_rows"], len(mat))
        counts["hnf_cols"] = max(counts["hnf_cols"], len(mat[0]) if mat else 0)

    wrap(hecke, "_hermite_normal_form", "hecke.hnf", before=hnf_before)

    def expand_before(a, n):
        counts["expand_K_terms"] += len(a._t)

    wrap(hecke, "expand_K", "hecke.expand_K", before=expand_before)

    # cosets: the pair-graph walk, counted without spans
    rebind(cosets.gamma_graph, tracer.counter("coset_type", cosets.gamma_graph))

    # group_algebra
    def mul_before(a, b):
        if isinstance(b, group_algebra.AlgebraElement):
            counts["mul_pairs"] += len(a._t) * len(b._t)

    def mul_after(note, result, error, args):
        if isinstance(result, group_algebra.AlgebraElement):
            counts["mul_terms_out"] += len(result._t)

    group_algebra.AlgebraElement.__mul__ = tracer.span(
        "group_algebra.mul",
        group_algebra.AlgebraElement.__mul__,
        before=mul_before,
        after=mul_after,
    )
    wrap(group_algebra, "class_structure_constant", "group_algebra.class_constant")

    # universal
    def fit_before(lam, mu, nu, sample_ns, holdout=None, basis="K"):
        counts["fit_samples"] += len(set(sample_ns))

    def fit_after(note, result, error, args):
        if isinstance(error, ValidationFailure):
            counts["fit_escalations"] += 1

    wrap(universal, "universal_structure_constant", "universal.fit",
         before=fit_before, after=fit_after)

    def triple_after(note, result, error, args):
        if result is not None and result.classification == "UNFITTED":
            counts["unfitted"] += 1

    wrap(universal, "fit_triple", "universal.fit_triple", after=triple_after)

    # cli
    wrap(cli, "parse", "cli.parse")
    wrap(cli, "_emit", "cli.emit")


def main(argv: list[str]) -> int:
    start = _clock()
    import bnhecke.cli

    import_s = _clock() - start
    tracer = Tracer()
    install(tracer)
    try:
        return bnhecke.cli.main(argv)
    finally:
        sys.stdout.flush()
        summary = {
            "import_s": import_s,
            "self_s": dict(tracer.self_s),
            "calls": dict(tracer.calls),
            "counts": dict(tracer.counts),
            "spans": tracer.spans,
        }
        sys.stderr.write(MARKER + json.dumps(summary) + "\n")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
