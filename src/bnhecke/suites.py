"""The verification suites of ``bnhecke verify``.

Each suite checks one theorem or invariant of the paper over a list of
levels and appends one {"name", "ok"[, "detail"]} entry per check;
progress goes to stderr.  The matsumoto and jm-center suites share one
check: e_{n-i} of the Jucys-Murphy alphabet is partitions.cycle_sum (H_i
in the K basis, Z_i in C).  The trichotomy suite reads the fits of
bnhecke.universal, which check the degree bound themselves, and compares
each with the counts at the requested levels.  Only the verify verb runs
this module; each suite imports the layers it runs when it runs, and
only single-cycle, graded-iso and generators load bnhecke.hecke.
backend_name, the constant that every verify payload carries, is
defined here so that verify loads no bnhecke._backend; that module
re-exports it for perfbench.
"""

from __future__ import annotations

import itertools
import sys

from .errors import InsufficientDegree, ValidationFailure
from .partitions import MAX_FIT_WEIGHT, cycle_sum, double_coset_size, enumerate_by_weight, weight

SAMPLE_SEED = 987654321


def backend_name() -> str:
    """The kernel implementation: always the pure-Python one."""
    return "pure"


def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _check(checks, name, ok, detail=None):
    entry = {"name": name, "ok": bool(ok)}
    if detail is not None and not ok:
        entry["detail"] = str(detail)
    checks.append(entry)
    _progress(f"  {'ok' if ok else 'FAIL'}  {name}")


def _cycle_sum_checks(checks, n, basis, name):
    """e_{n-i} of the Jucys-Murphy alphabet against partitions.cycle_sum in
    the basis, for i = 1..n; name is formatted with k = n - i, i and n."""
    from ._symfunc import elementary
    from .characters import matsumoto_coefficients

    for i in range(1, n + 1):
        got = matsumoto_coefficients(elementary(n - i), n, basis)
        want = cycle_sum(i, n)
        _check(checks, name.format(k=n - i, i=i, n=n), got == want, f"{got} != {want}")


def _suite_matsumoto(levels, samples, checks):
    for n in levels:
        _cycle_sum_checks(checks, n, "K", "e_{k}(J_odd) -> H_{i} at n={n}")


def _suite_jm_center(levels, samples, checks):
    from .group_algebra import jucys_murphy

    for n in levels:
        js = [jucys_murphy(k, n) for k in range(1, n + 1)]
        commuting = all(
            js[a] * js[b] == js[b] * js[a]
            for a in range(n)
            for b in range(a + 1, n)
        )
        _check(checks, f"J_1..J_{n} pairwise commute in Z[S_{n}]", commuting)
        _cycle_sum_checks(checks, n, "C", "Z_{i} = e_{k}(J_1..J_{n}) at n={n}")


def _suite_trichotomy(levels, samples, checks):
    from .characters import structure_constant
    from .universal import fit_report

    # the fits enforce the trichotomy: zero above the top degree, and
    # degree at most the drop below it, with a held-out level
    max_weight = min(MAX_FIT_WEIGHT, max(levels))
    try:
        results = fit_report(max_weight)
    except ValidationFailure as exc:
        _check(checks, f"trichotomy wt<={max_weight} over n={levels}", False, exc)
        return
    for lam, mu, nu, kind, f in results:
        name = f"fit {lam} {mu} -> {nu}: {kind}"
        if f is None:
            _check(checks, f"{name} (insufficient levels, not guessed)", True)
            continue
        low = max(map(weight, (lam, mu, nu)))
        counts = {n: structure_constant(lam, mu, nu, n, "K") for n in levels if n >= low}
        ok = all(f(n) == b for n, b in counts.items())
        _check(checks, name, ok, f"{f} against the counts {counts}")


def _lam_r_window(n):
    """(wt bound, the (lam, r) checked at level n): wt(lam) <= min(4, n)
    and 1 <= r <= min(3, n - 1), lam major."""
    top = min(4, n)
    return top, list(itertools.product(enumerate_by_weight(top), range(1, top)))


def _suite_single_cycle(levels, samples, checks):
    from .characters import _row
    from .hecke import single_cycle_expansion

    for n in levels:
        for lam, r in _lam_r_window(n)[1]:
            expansion = dict(single_cycle_expansion(lam, r, n).coeffs)
            product = _row(*sorted((lam, (r,))), n, "K")
            top = {nu: c for nu, c in product.items() if sum(nu) == sum(lam) + r}
            _check(
                checks,
                f"top part of K_{lam} K_({r}) at n={n} matches closed form",
                expansion == top,
                f"{expansion} != {top}",
            )


def _suite_graded_iso(levels, samples, checks):
    from .characters import structure_constant
    from .hecke import _admissible_terms

    for n in levels:
        max_weight, window = _lam_r_window(n)
        triples = 0
        mismatches = []
        for lam, r in window:
            for rho, nu, b in _admissible_terms(lam, r):
                triples += 1
                if weight(nu) > n:  # dead at level n: the formula alone
                    continue
                center = structure_constant(lam, (r,), nu, n, "C")
                coset = structure_constant(lam, (r,), nu, n, "K")
                if not b == center == coset:
                    entry = dict(
                        lam=list(lam), r=r, rho=list(rho), nu=list(nu), formula=b,
                        brute_center=center, brute_hecke=coset, ok=False,
                    )
                    mismatches.append(str(entry))
        name = f"graded top coefficients agree (wt<={max_weight}, n={n}, {triples} triples)"
        _check(checks, name, not mismatches, "; ".join(mismatches))


def _suite_generators(levels, samples, checks):
    from .hecke import generation_certificate

    for n in levels:
        try:
            generation_certificate(n)
            failure = None
        except InsufficientDegree as exc:
            failure = exc
        # the name predates the subring closure; perfbench/digests.json pins it
        _check(
            checks,
            f"H_1..H_{n} generate at level {n} "
            f"(HNF certificate, degree <= {n - 1})",
            failure is None,
            failure,
        )


def _suite_coset_invariants(levels, samples, checks):
    import random

    from .cosets import (
        coset_type,
        enumerate_double_coset,
        gamma_graph,
        hyperoctahedral_elements,
        modified_support,
        phi,
        stable_coset_type,
    )
    from .permutations import Permutation, cayley_degree, identity, symmetric_group

    for n in (2, 3):
        census: dict = {}
        for w in symmetric_group(2 * n):
            mu = stable_coset_type(w)
            census[mu] = census.get(mu, 0) + 1
        sizes_ok = census == {
            mu: double_coset_size(mu, n) for mu in enumerate_by_weight(n)
        }
        _check(
            checks,
            f"double cosets partition S_{2 * n} with closed-form sizes",
            sizes_ok,
            census,
        )
        fixed = {w for w in symmetric_group(2 * n) if phi(w, n) == identity()}
        b_group = set(hyperoctahedral_elements(n))
        _check(checks, f"fixed locus of the twist is B_{n} at n={n}", fixed == b_group)
        for mu in enumerate_by_weight(n):
            coset = enumerate_double_coset(mu, n)
            _check(
                checks,
                f"orbit closure of type {mu} at n={n} has the closed-form size",
                len(coset) == double_coset_size(mu, n),
            )
    rng = random.Random(SAMPLE_SEED)
    for n in levels:
        if n < 4:
            continue
        good = 0
        for _ in range(samples):
            images = list(range(1, 2 * n + 1))
            rng.shuffle(images)
            w = Permutation(tuple(images))
            mu = stable_coset_type(w)
            full = coset_type(w, n)
            ok = (
                sum(full) == n
                and stable_coset_type(w.inverse()) == mu
                and len(modified_support(w)) == weight(mu)
                and cayley_degree(phi(w, n)) == 2 * sum(mu)
                and tuple(sorted((len(c) // 2 for c in gamma_graph(w, n)), reverse=True))
                == full
            )
            good += ok
        _check(
            checks,
            f"pair-graph invariants on {samples} samples in S_{2 * n}",
            good == samples,
            f"{samples - good} violations",
        )


SUITE_RUNNERS = {
    "matsumoto": _suite_matsumoto,
    "jm-center": _suite_jm_center,
    "trichotomy": _suite_trichotomy,
    "single-cycle": _suite_single_cycle,
    "graded-iso": _suite_graded_iso,
    "generators": _suite_generators,
    "coset-invariants": _suite_coset_invariants,
}


def run_suite(suite: str, levels: list[int], samples: int | None) -> tuple[dict, int]:
    """The verify payload of one suite, and the exit status: 1 on any failed check.

    samples is None for every suite but coset-invariants, the one that samples.
    """
    _progress(f"verify {suite}: levels {levels}, backend {backend_name()}")
    checks: list[dict] = []
    SUITE_RUNNERS[suite](levels, samples, checks)
    ok = all(c["ok"] for c in checks)
    payload = {
        "suite": suite,
        "levels": levels,
        "backend": backend_name(),
        "ok": ok,
        "checks": checks,
    }
    return payload, 0 if ok else 1
