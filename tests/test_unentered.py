"""Every function of src/bnhecke that no CLI run enters has a stated reason.

tests/trace_unentered.py runs every verb, all seven suites and two
usage errors under sys.setprofile in a fresh process and lists the
functions none of them entered.  Dunders are left out: the trace does
not require them.  Every other such function must appear below with
its reason, and every entry below must still be unentered, so that a
deletion or a new caller updates the list.
"""

import json
import os
import subprocess
import sys

import bnhecke

_REASONS = {
    "perfbench": "a file in perfbench/ binds it",
    "oracle": "a count the tests hold the character path against runs it",
}

ALLOWLIST = {
    ("_backend", "_typed_matchings"): "oracle",
    ("_backend", "_tally_level"): "oracle",
    ("_backend", "product_tally"): "perfbench",
    ("_kernels_py", "type_keys_product"): "perfbench",
    ("_kernels_py", "resolve_jobs"): "perfbench",
    ("_kernels_py", "partition_key"): "perfbench",
    ("_kernels_py", "key_partition"): "perfbench",
    ("_kernels_py", "permutation_block"): "perfbench",
    ("_kernels_py", "compute_keys"): "perfbench",
    ("_kernels_py", "compute_counts"): "perfbench",
    ("_kernels_py", "LevelTable.types"): "perfbench",
    ("_kernels_py", "LevelTable._span"): "perfbench",
    ("_kernels_py", "LevelTable.size"): "perfbench",
    ("_kernels_py", "LevelTable.rows"): "perfbench",
    ("cosets", "perfect_matchings"): "oracle",
    ("cosets", "perfect_matchings.<locals>.extend"): "oracle",
    ("group_algebra", "AlgebraElement.one"): "oracle",
    ("group_algebra", "AlgebraElement.coefficient"): "oracle",
    ("group_algebra", "_class_table"): "oracle",
    ("group_algebra", "class_sum"): "oracle",
    ("group_algebra", "_class_product"): "oracle",
    ("group_algebra", "class_structure_constant"): "perfbench",
    ("hecke", "expand_K"): "perfbench",
    ("partitions", "_expand_by_type"): "oracle",
}


def _is_dunder(qualname: str) -> bool:
    name = qualname.rsplit(".", 1)[-1]
    return name.startswith("__") and name.endswith("__")


def test_every_unentered_function_has_a_reason():
    assert set(ALLOWLIST.values()) == set(_REASONS)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(bnhecke.__file__))
    child = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(__file__), "trace_unentered.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    unentered = {
        (module, qualname)
        for module, functions in json.loads(child.stdout)["unentered"].items()
        for qualname in functions
        if not _is_dunder(qualname)
    }
    assert sorted(unentered - set(ALLOWLIST)) == [], "unentered, with no reason given"
    assert sorted(set(ALLOWLIST) - unentered) == [], "entered or gone: drop from the list"
