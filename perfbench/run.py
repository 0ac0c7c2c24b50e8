"""The bnhecke benchmark: real CLI invocations, checked, timed, traced.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare RESULT_A.json RESULT_B.json
    python3 perfbench/run.py --record-digests

Run from the root of a checkout; the package is imported from its
``src/`` directory.  Every invocation is a fresh ``python3 -m bnhecke.cli``
process with HECKE_JOBS=1.  Workload rounds (see workloads.py) repeat
while another round still fits in ``--seconds``; at least one runs.

``--trace 0`` prints the end-to-end metrics: medians over rounds of
round wall and child CPU time, the largest child max RSS, the median
start-up time of ``SETUP_ARGV`` over at least ``SETUP_LAUNCHES``
launches spread over the run, the share of invocations that passed
the oracle, and the number of fitted triples.  ``--trace 1`` runs one
untraced and one traced round, and prints the per-layer metrics:
totals over the traced round from traced_cli.py, the kernel's ns/row
and the level-5 pool speed-up from probe.py, and the tracing overhead
(traced minus untraced round wall).

The last stdout line is the result; the line before it is the
environment.  Both, with the spans of a traced run, are also saved
under ``.perfbench/`` for ``--compare``, which warns when two results
differ in backend.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle
import workloads
from traced_cli import MARKER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

SETUP_LAUNCHES = 15
SETUP_BETWEEN = 2
SETUP_EDGE = 3
CHILD_TIMEOUT_S = 150
FIT_SAMPLE_LEVEL = 4
FIT_SAMPLES = 4


@dataclass
class Child:
    argv: list[str]
    rc: int
    out: bytes
    err: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Round:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    fitted: int = 0
    traces: list[dict] = field(default_factory=list)


class Ledger:
    """Attempted and failed invocations, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]


def child_env(jobs: int = 1) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    env["HECKE_JOBS"] = str(jobs)
    return env


def run_child(cmd: list[str], env: dict) -> Child:
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    # a hung child is killed with any workers it forked
    watchdog = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        argv=cmd,
        rc=proc.returncode,
        out=out,
        err=err[0] if err else b"",
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
    )


def cli_cmd(argv: list[str], traced: bool = False) -> list[str]:
    if traced:
        return [sys.executable, str(HERE / "traced_cli.py"), *argv]
    return [sys.executable, "-m", "bnhecke.cli", *argv]


def probe(mode: str, env: dict) -> dict:
    child = run_child([sys.executable, str(HERE / "probe.py"), mode], env)
    if child.rc != 0:
        raise SystemExit(f"probe {mode} failed: {child.err.decode(errors='replace')}")
    return json.loads(child.out.decode().strip().splitlines()[-1])


def load_digests(backend: str) -> dict:
    recorded = json.loads(DIGESTS.read_text())
    if recorded["backend"] != backend:
        print(
            f"warning: stdout digests were recorded with the {recorded['backend']} "
            f"backend, not {backend}; digest checks are off",
            file=sys.stderr,
        )
        return {}
    return recorded["digests"]


def split_trace(err: bytes) -> tuple[bytes, dict | None]:
    head, sep, tail = err.rpartition(MARKER.encode())
    if not sep:
        return err, None
    return head, json.loads(tail)


def run_round(
    invocations, env, traced, recorded, ledger, between=lambda: None
) -> tuple[Round, dict]:
    result = Round()
    payloads: dict[str, object] = {}
    for argv in invocations:
        child = run_child(cli_cmd(argv, traced), env)
        err, trace = split_trace(child.err) if traced else (child.err, None)
        problems, payload = oracle.check(argv, child.rc, child.out, err, recorded)
        if traced and trace is None:
            problems.append("traced run left no trace summary")
        if trace is not None:
            trace["stdout_bytes"] = len(child.out)
            result.traces.append(trace)
        ledger.record(" ".join(argv), problems)
        payloads[" ".join(argv)] = payload
        result.wall_s += child.wall_s
        result.cpu_s += child.cpu_s
        result.rss_mb = max(result.rss_mb, child.rss_mb)
        if argv[0] == "fit" and isinstance(payload, list):
            result.fitted += sum(e["classification"] != "UNFITTED" for e in payload)
        between()
    k_fit = payloads.get("fit --max-weight 4")
    c_fit = payloads.get("fit --max-weight 4 --basis C")
    if k_fit and c_fit:
        ledger.record("graded K/C top constants", oracle.check_graded(k_fit, c_fit))
    return result, payloads


def check_fit_samples(payloads: dict, seed: int, env: dict, ledger: Ledger) -> None:
    """Re-evaluate a seeded sample of K-basis fits with structure-constant."""
    rng = random.Random(seed)
    for key, payload in payloads.items():
        if not key.startswith("fit ") or "--basis C" in key or not payload:
            continue
        fitted = [e for e in payload if e["classification"] != "UNFITTED"]
        polys = [e for e in fitted if e["classification"] == "polynomial"]
        others = [e for e in fitted if e["classification"] != "polynomial"]
        sample = rng.sample(polys, min(len(polys), FIT_SAMPLES // 2))
        sample += rng.sample(others, min(len(others), FIT_SAMPLES - len(sample)))
        problems = []
        for e in sample:
            argv = ["structure-constant", "--n", str(FIT_SAMPLE_LEVEL)]
            for flag in ("lam", "mu", "nu"):
                argv += [f"--{flag}", json.dumps(e[flag], separators=(",", ":"))]
            child = run_child(cli_cmd(argv), env)
            want = oracle.fit_value(e, FIT_SAMPLE_LEVEL)
            try:
                got = json.loads(child.out)["b"]
            except (json.JSONDecodeError, KeyError, TypeError):
                got = f"exit {child.rc}"
            if got != want:
                problems.append(f"{' '.join(argv)} gives {got}, the fit {want}")
        ledger.record(f"{key} re-evaluated at n={FIT_SAMPLE_LEVEL}", problems)


def environment(info: dict) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(str(path.relative_to(SRC)).encode())
            source.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": source.hexdigest(),
        "backend": info["backend"],
        "HECKE_JOBS": "1",
        "nproc": len(os.sched_getaffinity(0)),
        "python": info["python"],
        "numpy": info["numpy"],
    }


def end_to_end(rounds: list[Round], setup: list[float], ledger: Ledger) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r.wall_s for r in rounds),
        "cpu_s": statistics.median(r.cpu_s for r in rounds),
        "peak_rss_mb": max(r.rss_mb for r in rounds),
        "success_rate": (ledger.attempted - ledger.failed) / ledger.attempted,
        "fitted_triples": rounds[0].fitted,
    }


def per_layer(traced: Round, untraced: Round, kernel: dict, pool: tuple) -> dict:
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    for trace in traced.traces:
        for name, v in trace["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + v
        for name, v in trace["calls"].items():
            calls[name] = calls.get(name, 0) + v
        for name, v in trace["counts"].items():
            if name.startswith("hnf_"):
                counts[name] = max(counts.get(name, 0), v)
            else:
                counts[name] = counts.get(name, 0) + v
    s, c, k = self_s.get, calls.get, counts.get
    tally_calls = c("backend.tally", 0)
    tally_hits = tally_calls - k("tally_misses", 0)
    serial_s, parallel_s = pool
    return {
        "backend.table_builds": c("backend.table_build", 0),
        "backend.table_build_s": s("backend.table_build", 0.0),
        "backend.table_rows": k("table_rows", 0),
        "backend.table_mb_computed": k("table_bytes", 0) / 1e6,
        "backend.tally_calls": tally_calls,
        "backend.tally_misses": k("tally_misses", 0),
        "backend.tally_hit_ratio": tally_hits / tally_calls if tally_calls else 0.0,
        "backend.tally_rows": k("tally_rows", 0),
        "backend.tally_s": s("backend.tally", 0.0),
        "backend.kernel_ns_per_row": kernel["ns_per_row"],
        "backend.pool_speedup": serial_s / parallel_s,
        "hecke.structure_constant_calls": c("hecke.structure_constant", 0),
        "hecke.structure_constant_self_s": s("hecke.structure_constant", 0.0),
        "hecke.product_calls": c("hecke.product", 0),
        "hecke.product_self_s": s("hecke.product", 0.0),
        "hecke.certificate_s": s("hecke.certificate", 0.0) + s("hecke.hnf", 0.0),
        "hecke.hnf_rows": k("hnf_rows", 0),
        "hecke.hnf_cols": k("hnf_cols", 0),
        "hecke.matsumoto_s": s("hecke.matsumoto", 0.0),
        "hecke.expand_K_s": s("hecke.expand_K", 0.0),
        "hecke.expand_K_terms": k("expand_K_terms", 0),
        "cosets.coset_type_calls": k("coset_type_calls", 0),
        "cosets.coset_type_s": k("coset_type_s", 0.0),
        "group_algebra.mul_calls": c("group_algebra.mul", 0),
        "group_algebra.mul_pairs": k("mul_pairs", 0),
        "group_algebra.mul_terms_out": k("mul_terms_out", 0),
        "group_algebra.mul_s": s("group_algebra.mul", 0.0),
        "group_algebra.class_constant_calls": c("group_algebra.class_constant", 0),
        "group_algebra.class_constant_s": s("group_algebra.class_constant", 0.0),
        "universal.fits": c("universal.fit", 0),
        "universal.samples": k("fit_samples", 0),
        "universal.escalations": k("fit_escalations", 0),
        "universal.fit_self_s": s("universal.fit", 0.0),
        "universal.unfitted": k("unfitted", 0),
        "cli.import_s": sum(t["import_s"] for t in traced.traces),
        "cli.parse_s": s("cli.parse", 0.0),
        "cli.emit_s": s("cli.emit", 0.0),
        "cli.stdout_bytes": sum(t["stdout_bytes"] for t in traced.traces),
        "trace.overhead_s": traced.wall_s - untraced.wall_s,
    }


def declared_units(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def save(name: str, record: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    for earlier in sorted(RESULTS.glob("*.json")):
        env = json.loads(earlier.read_text()).get("env", {})
        if env.get("backend") not in (None, record["env"]["backend"]):
            print(
                f"warning: {earlier.name} was measured with the {env['backend']} "
                f"backend, this run with {record['env']['backend']}",
                file=sys.stderr,
            )
            break
    (RESULTS / name).write_text(json.dumps(record))


def benchmark(args) -> int:
    if not (SRC / "bnhecke" / "cli.py").is_file():
        print(f"error: no bnhecke sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    info = probe("env", env)
    if not Path(info["bnhecke_file"]).resolve().is_relative_to(SRC.resolve()):
        print(f"error: bnhecke imported from {info['bnhecke_file']}", file=sys.stderr)
        return 2
    ledger = Ledger()
    if info["kernels_agree"] is not None:
        ledger.record(
            "compiled and pure kernels agree on S_8",
            [] if info["kernels_agree"] else ["kernel outputs differ"],
        )
    recorded = load_digests(info["backend"])
    invocations = workloads.invocations(args.workload, args.seed)

    setup: list[float] = []

    def launch_setup(count: int) -> None:
        for _ in range(count):
            child = run_child(cli_cmd(workloads.SETUP_ARGV), env)
            problems, _ = oracle.check(
                workloads.SETUP_ARGV, child.rc, child.out, child.err, recorded
            )
            ledger.record("setup", problems)
            setup.append(child.wall_s)

    launch_setup(SETUP_EDGE)
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        current, payloads = run_round(
            invocations, env, False, recorded, ledger,
            between=lambda: launch_setup(SETUP_BETWEEN),
        )
        if not rounds:
            first_payloads = payloads
        rounds.append(current)
        if args.trace or time.perf_counter() - start + current.wall_s > args.seconds:
            break
    spans = None
    if args.trace:
        traced, _ = run_round(invocations, env, True, recorded, ledger)
        spans = [t.pop("spans") for t in traced.traces]
        kernel = probe("kernel", env)
        nproc = len(os.sched_getaffinity(0))
        pool = (
            probe("pool", child_env(1))["build_s"],
            probe("pool", child_env(nproc))["build_s"],
        )
        metrics = per_layer(traced, rounds[0], kernel, pool)
    launch_setup(max(SETUP_EDGE, SETUP_LAUNCHES - len(setup)))
    check_fit_samples(first_payloads, args.seed, env, ledger)
    if not args.trace:
        metrics = end_to_end(rounds, setup, ledger)

    units = declared_units(args.trace)
    if metrics.keys() != units.keys():
        print("error: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 2
    for problem in ledger.problems:
        print(f"FAIL {problem}", file=sys.stderr)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {
        "env": environment(info),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "result": result,
    }
    if spans is not None:
        record["spans"] = spans
    save(f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record)
    print(json.dumps({"env": record["env"], "rounds": len(rounds)}))
    print(json.dumps(result))
    return 0


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    for key in sorted(a["env"].keys() | b["env"].keys()):
        if a["env"].get(key) != b["env"].get(key):
            level = "warning" if key == "backend" else "note"
            print(f"{level}: {key} differs: {a['env'].get(key)} vs {b['env'].get(key)}")
    ma, mb = a["result"]["metrics"], b["result"]["metrics"]
    for name in sorted(ma.keys() & mb.keys()):
        va, vb = ma[name]["value"], mb[name]["value"]
        ratio = f"{vb / va:8.3f}x" if va else "       -"
        print(f"{name:40s} {va:14.4f} {vb:14.4f} {ratio} {ma[name]['unit']}")
    return 0


def record_digests() -> int:
    env = child_env()
    info = probe("env", env)
    digests = {}
    for argv in workloads.every_invocation():
        child = run_child(cli_cmd(argv), env)
        problems, _ = oracle.check(argv, child.rc, child.out, child.err, {})
        if problems:
            raise SystemExit(f"{' '.join(argv)}: {problems}")
        digests[" ".join(argv)] = oracle.digest(child.out)
        print(f"{child.wall_s:7.2f} s  {' '.join(argv)}", file=sys.stderr)
    DIGESTS.write_text(
        json.dumps({"backend": info["backend"], "digests": digests}, indent=1) + "\n"
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar="RESULT")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")
    return benchmark(args)


if __name__ == "__main__":
    raise SystemExit(main())
