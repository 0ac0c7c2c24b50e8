"""Output checks for every invocation the benchmark runs.

The checks rest on closed forms and identities, not on the counting
path being measured:

- ``product`` and ``table``: the augmentation identity
  sum_nu c_nu |K_nu(n)| = |K_lam(n)| |K_mu(n)| / |B_n|, with the sizes
  from the closed form |B_n|^2 / (2^l(rho) z_rho), rho the completed
  type; tables must also be symmetric, b_{lam mu}^nu = b_{mu lam}^nu.
- ``matsumoto`` at level n: a*e2 + b*e1*e1 maps to
  a H_{n-2} + b K_(1)^2 = b n(n-1) K_() + b K_(1) + (a+3b) K_(2) + (a+2b) K_(1,1).
- ``verify``: exit 0 and ``"ok": true`` on every check.
- ``fit``: the degree trichotomy (zero above the top degree, constant
  on it), symmetry in lam and mu, and agreement of the top-degree
  constants between the K and C bases; a seeded sample of K polynomials
  is re-evaluated against ``structure-constant`` by the runner.
- Every invocation: the sha256 of stdout, where a digest was recorded.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import factorial

FIT_CLASSES = {"zero", "constant", "polynomial", "UNFITTED"}


def hyperoctahedral_order(n: int) -> int:
    return 2**n * factorial(n)


def double_coset_size(mu, n: int) -> int:
    """|K_mu(n)| = |B_n|^2 / (2^l(rho) z_rho), rho = mu + 1 padded with 1s to n."""
    rho = [p + 1 for p in mu]
    rho += [1] * (n - sum(rho))
    z = 1
    for part in set(rho):
        m = rho.count(part)
        z *= part**m * factorial(m)
    return hyperoctahedral_order(n) ** 2 // (2 ** len(rho) * z)


def binomial_value(coeffs, n: int) -> int:
    """An integer-valued polynomial sum_k c_k C(n, k) at n."""
    total = 0
    for k, c in enumerate(coeffs):
        if k <= n:
            total += c * factorial(n) // (factorial(k) * factorial(n - k))
    return total


def fit_value(entry: dict, n: int) -> int | None:
    kind = entry["classification"]
    if kind == "zero":
        return 0
    if kind == "constant":
        return entry["constant"]
    if kind == "polynomial":
        return binomial_value(entry["polynomial"]["binomial_coeffs"], n)
    return None


def _key(mu) -> tuple[int, ...]:
    return tuple(mu)


def _check_augmentation(n: int, lam, mu, coeffs: dict, where: str) -> list[str]:
    lhs = sum(c * double_coset_size(nu, n) for nu, c in coeffs.items())
    rhs = Fraction(
        double_coset_size(lam, n) * double_coset_size(mu, n),
        hyperoctahedral_order(n),
    )
    if lhs != rhs:
        return [f"{where}: augmentation {lhs} != {rhs}"]
    return []


def check_product(argv: list[str], payload) -> list[str]:
    n = int(argv[argv.index("--n") + 1])
    lam = json.loads(argv[argv.index("--lhs") + 1])
    mu = json.loads(argv[argv.index("--rhs") + 1])
    if payload.get("n") != n:
        return [f"product: level {payload.get('n')} != {n}"]
    coeffs = {_key(t["mu"]): Fraction(t["c"]) for t in payload["coeffs"]}
    bad = [c for c in coeffs.values() if c.denominator != 1 or c < 0]
    if bad:
        return [f"product: coefficients {bad} are not non-negative integers"]
    return _check_augmentation(n, lam, mu, coeffs, f"product {lam} {mu}")


def check_table(argv: list[str], payload) -> list[str]:
    n = int(argv[argv.index("--n") + 1])
    b = {(_key(r["lam"]), _key(r["mu"]), _key(r["nu"])): r["b"] for r in payload}
    shapes = sorted({k[0] for k in b})
    if len(b) != len(payload) or len(b) != len(shapes) ** 3:
        return [f"table: {len(payload)} rows do not cover {len(shapes)}^3 triples"]
    problems = []
    for lam in shapes:
        for mu in shapes:
            coeffs = {nu: b[lam, mu, nu] for nu in shapes}
            problems += _check_augmentation(n, lam, mu, coeffs, f"table {lam} {mu}")
            for nu in shapes:
                if b[lam, mu, nu] != b[mu, lam, nu]:
                    problems.append(f"table: b_{lam},{mu}^{nu} is not symmetric")
    return problems


def check_matsumoto(argv: list[str], payload) -> list[str]:
    n = int(argv[argv.index("--n") + 1])
    expr = argv[argv.index("--expr") + 1]
    a_text, b_text = expr.replace(" ", "").split("+")
    a = int(a_text.removesuffix("*e2"))
    b = int(b_text.removesuffix("*e1*e1"))
    want = {
        (): b * n * (n - 1),
        (1,): b,
        (2,): a + 3 * b,
        (1, 1): a + 2 * b,
    }
    got = {_key(t["mu"]): Fraction(t["c"]) for t in payload["coeffs"]}
    want = {mu: c for mu, c in want.items() if c}
    if payload.get("n") != n or got != want:
        return [f"matsumoto {expr!r} at n={n}: {got} != {want}"]
    return []


def check_verify(argv: list[str], payload) -> list[str]:
    checks = payload.get("checks") or []
    failed = [c["name"] for c in checks if not c.get("ok")]
    if payload.get("ok") is not True or not checks or failed:
        return [f"verify {payload.get('suite')}: not ok {failed}"]
    return []


def check_fit(argv: list[str], payload) -> list[str]:
    entries = payload if isinstance(payload, list) else [payload]
    fits = {}
    problems = []
    for e in entries:
        lam, mu, nu = _key(e["lam"]), _key(e["mu"]), _key(e["nu"])
        kind = e["classification"]
        fits[lam, mu, nu] = e
        top = sum(lam) + sum(mu)
        if kind not in FIT_CLASSES:
            problems.append(f"fit {lam} {mu} {nu}: unknown class {kind!r}")
        elif sum(nu) > top and kind not in ("zero", "UNFITTED"):
            problems.append(f"fit {lam} {mu} {nu}: {kind} above the top degree")
        elif sum(nu) == top and kind not in ("zero", "constant", "UNFITTED"):
            problems.append(f"fit {lam} {mu} {nu}: {kind} on the top degree")
    for (lam, mu, nu), e in fits.items():
        twin = fits.get((mu, lam, nu))
        if twin is not None and twin != {**e, "lam": e["mu"], "mu": e["lam"]}:
            problems.append(f"fit {lam} {mu} {nu}: differs from its transpose")
    return problems


def top_constants(payload) -> dict:
    """Top-degree constants of a fit, keyed by triple; UNFITTED left out."""
    out = {}
    for e in payload:
        lam, mu, nu = _key(e["lam"]), _key(e["mu"]), _key(e["nu"])
        if sum(nu) == sum(lam) + sum(mu) and e["classification"] != "UNFITTED":
            out[lam, mu, nu] = fit_value(e, 0)
    return out


def check_graded(k_payload, c_payload) -> list[str]:
    """Top-degree constants agree between the K and C bases."""
    k, c = top_constants(k_payload), top_constants(c_payload)
    return [
        f"graded: top constant of {t} is {k[t]} in K but {c[t]} in C"
        for t in sorted(k.keys() & c.keys())
        if k[t] != c[t]
    ]


def check_coset_size(argv: list[str], payload) -> list[str]:
    n = int(argv[argv.index("--n") + 1])
    mu = json.loads(argv[argv.index("--mu") + 1])
    if payload != {"mu": mu, "n": n, "size": double_coset_size(mu, n)}:
        return [f"coset-size: {payload}"]
    return []


CHECKS = {
    "product": check_product,
    "table": check_table,
    "matsumoto": check_matsumoto,
    "verify": check_verify,
    "fit": check_fit,
    "coset-size": check_coset_size,
}


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def check(argv: list[str], rc: int, stdout: bytes, stderr: bytes, recorded: dict):
    """(problems, payload) for one finished invocation."""
    if rc != 0:
        return [f"exit {rc}: {stderr.decode(errors='replace')[-300:]}"], None
    if b"Traceback" in stderr:
        return ["traceback on stderr"], None
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON ({exc})"], None
    problems = CHECKS[argv[0]](argv, payload)
    want = recorded.get(" ".join(argv))
    if want is not None and digest(stdout) != want:
        problems.append("stdout sha256 differs from the recorded digest")
    return problems, payload
