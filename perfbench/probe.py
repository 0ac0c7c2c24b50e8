"""Small measurements run in their own process, one JSON line on stdout.

Usage: python3 perfbench/probe.py env|kernel|pool

- ``env``: the selected backend, where ``bnhecke`` was imported from,
  the numpy version, and whether the compiled and pure kernels agree
  bit for bit on all of S_8 (null when ``bnhecke._core`` is not built).
- ``kernel``: ns per row of the selected kernel over all of S_8,
  the median of ``KERNEL_REPEATS`` timings.
- ``pool``: seconds to build the level-5 table with HECKE_JOBS workers.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

KERNEL_LEVEL = 4
KERNEL_REPEATS = 5
POOL_LEVEL = 5


def _rows_and_targets():
    from bnhecke._backend import permutation_block
    from bnhecke.cosets import coset_representative

    m = 2 * KERNEL_LEVEL
    rows = np.ascontiguousarray(permutation_block(m))
    targets = []
    for mu in [(), (1,), (1, 1)]:
        z = np.array(
            [v - 1 for v in coset_representative(mu, KERNEL_LEVEL).one_line(m)],
            dtype=np.uint8,
        )
        zinv = np.empty(m, dtype=np.uint8)
        zinv[z] = np.arange(m, dtype=np.uint8)
        targets.append((z, zinv))
    return rows, targets


def env() -> dict:
    import bnhecke
    from bnhecke import _kernels_py
    from bnhecke._backend import backend_name

    try:
        from bnhecke import _core
    except ImportError:
        _core = None
    agree = None
    if _core is not None:
        rows, targets = _rows_and_targets()
        agree = True
        for z, zinv in targets:
            pure = np.empty(len(rows), dtype=np.uint64)
            fast = np.empty(len(rows), dtype=np.uint64)
            _kernels_py.type_keys_product(rows, z, zinv, pure)
            _core.type_keys_product(rows, z, zinv, fast)
            agree = agree and bool(np.array_equal(pure, fast))
    return {
        "backend": backend_name(),
        "bnhecke_file": bnhecke.__file__,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "kernels_agree": agree,
    }


def kernel() -> dict:
    from bnhecke._backend import _KERNEL, backend_name

    rows, targets = _rows_and_targets()
    z, zinv = targets[-1]
    out = np.empty(len(rows), dtype=np.uint64)
    times = []
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        _KERNEL(rows, z, zinv, out)
        times.append(time.perf_counter() - start)
    return {
        "backend": backend_name(),
        "rows": len(rows),
        "ns_per_row": statistics.median(times) / len(rows) * 1e9,
    }


def pool() -> dict:
    from bnhecke._backend import LevelTable, resolve_jobs

    jobs = resolve_jobs()
    start = time.perf_counter()
    LevelTable(POOL_LEVEL, jobs)
    return {"jobs": jobs, "build_s": time.perf_counter() - start}


if __name__ == "__main__":
    print(json.dumps({"env": env, "kernel": kernel, "pool": pool}[sys.argv[1]]()))
