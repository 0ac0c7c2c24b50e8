"""perfbench binds package internals by name; these tests fail when a
move or a rename in src/ would break `perfbench/run.py --trace 1`.

traced_cli.py wraps functions of _backend, hecke, cosets,
group_algebra, universal and cli when it installs its tracer, and
probe.py reads the permutation oracle through _backend.  Only the
cheap entry points run here: `probe.py kernel` and `pool` build S_10.
The four names _backend forwards to them (LevelTable, _KERNEL,
permutation_block, resolve_jobs) are checked in test_kernels.py.
The stdout of every benchmark argv, run in-process, must match the
digest that perfbench/digests.json recorded for it.
"""

import hashlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

from bnhecke import cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(PERFBENCH / script), *args],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )


def test_traced_cli_installs_and_reports():
    marker = runpy.run_path(str(PERFBENCH / "traced_cli.py"))["MARKER"]
    child = _run("traced_cli.py", "coset-size", "--n", "3", "--mu", "[1]")
    assert child.returncode == 0, child.stderr
    assert child.stderr.splitlines()[-1].startswith(marker), child.stderr


def test_probe_env_reports_the_backend():
    child = _run("probe.py", "env")
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout)["backend"] == "pure"


def test_stdout_matches_the_recorded_digests(capsys):
    workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))
    recorded = json.loads((PERFBENCH / "digests.json").read_text())["digests"]
    got = {}
    for argv in workloads["every_invocation"]():
        status = cli.main(argv)
        stdout = capsys.readouterr().out.encode()
        got[" ".join(argv)] = hashlib.sha256(stdout).hexdigest() if status == 0 else status
    wrong = {key: value for key, value in got.items() if recorded.get(key) != value}
    assert set(got) == set(recorded)
    assert not wrong, wrong
