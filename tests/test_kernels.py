import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import bnhecke._backend as backend
from bnhecke._backend import clear_caches, partition_key, product_tally
from bnhecke._kernels_py import (
    LevelTable,
    compute_counts,
    compute_keys,
    key_partition,
    permutation_block,
    resolve_jobs,
    type_keys_product as pure_kernel,
)
from bnhecke import _kernels_py, group_algebra, universal
from bnhecke.cosets import (
    coset_representative,
    double_coset_size,
    gamma_graph,
    hyperoctahedral_order,
    matching_type,
    perfect_matchings,
    stable_coset_type,
)
from bnhecke.errors import UsageError, ValidationFailure, WeightExceedsLevel
from bnhecke.partitions import enumerate_by_weight, weight
from bnhecke.permutations import Permutation

nibble_partitions = st.lists(
    st.integers(min_value=1, max_value=15), max_size=16
).map(lambda parts: tuple(sorted(parts, reverse=True)))


@given(nibble_partitions)
def test_partition_key_roundtrip(mu):
    assert key_partition(partition_key(mu)) == mu


def test_partition_key_orders_by_nibbles():
    # keys sort identically to (weight-free) descending-part sequences
    assert partition_key(()) == 0
    assert partition_key((3,)) == 3
    assert partition_key((3, 1)) == 3 + (1 << 4)


def test_partition_key_rejects_wide_shapes():
    with pytest.raises(UsageError):
        partition_key((16,))
    with pytest.raises(UsageError):
        partition_key((1,) * 17)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5])
def test_permutation_block_matches_itertools(m):
    block = permutation_block(m)
    assert block.shape == (math.factorial(m), m)
    assert block.dtype == np.uint8
    expected = np.array(
        sorted(itertools.permutations(range(m))), dtype=np.uint8
    ).reshape(math.factorial(m), m)
    assert np.array_equal(block, expected)


def _row_perm(row) -> Permutation:
    return Permutation(tuple(int(v) + 1 for v in row))


def _as_row(w: Permutation, m: int) -> np.ndarray:
    return np.array([v - 1 for v in w.one_line(m)], dtype=np.uint8)


def _key_batch(kernel, rows, z):
    m = len(z)
    zinv = np.empty(m, dtype=np.uint8)
    zinv[z] = np.arange(m, dtype=np.uint8)
    out = np.empty(rows.shape[0], dtype=np.uint64)
    kernel(rows, z, zinv, out)
    return out


def test_pure_kernel_matches_reference_types(random_perm):
    n = 4
    m = 2 * n
    z_perm = random_perm(m)
    rows = np.stack([_as_row(random_perm(m), m) for _ in range(40)])
    keys = _key_batch(pure_kernel, rows, _as_row(z_perm, m))
    for row, key in zip(rows, keys):
        w = _row_perm(row).inverse() * z_perm
        assert key_partition(int(key)) == stable_coset_type(w)


def test_backend_selected():
    assert backend.backend_name() == "pure"


def test_backend_forwards_the_oracle_to_perfbench():
    # perfbench reads these four names from _backend
    forwarded = {
        "LevelTable": LevelTable,
        "permutation_block": permutation_block,
        "resolve_jobs": resolve_jobs,
        "_KERNEL": pure_kernel,
    }
    for name, obj in forwarded.items():
        assert getattr(backend, name) is obj, name
    for name in ("compute_keys", "key_partition", "_CHUNK", "MAX_TABLE_LEVEL", "nope"):
        with pytest.raises(AttributeError):
            getattr(backend, name)


def test_chunked_keys_match_one_call(monkeypatch):
    # compute_keys feeds the kernel in _CHUNK-row slices; seven rows a
    # call cuts S_6 into 103 uneven slices
    rows = permutation_block(6)
    z = np.array([3, 0, 5, 1, 2, 4], dtype=np.uint8)
    whole = _key_batch(pure_kernel, rows, z)
    zinv = np.empty(6, dtype=np.uint8)
    zinv[z] = np.arange(6, dtype=np.uint8)
    monkeypatch.setattr(_kernels_py, "_CHUNK", 7)
    assert np.array_equal(compute_keys(rows, z, zinv), whole)


class TestResolveJobs:
    def test_explicit(self, monkeypatch):
        monkeypatch.delenv("HECKE_JOBS", raising=False)
        assert resolve_jobs(3) == 3
        assert resolve_jobs() >= 1

    def test_env_overrides_explicit(self, monkeypatch):
        monkeypatch.setenv("HECKE_JOBS", "2")
        assert resolve_jobs(7) == 2

    def test_invalid_values(self, monkeypatch):
        monkeypatch.setenv("HECKE_JOBS", "many")
        with pytest.raises(UsageError):
            resolve_jobs()
        monkeypatch.delenv("HECKE_JOBS")
        with pytest.raises(UsageError):
            resolve_jobs(0)


class TestLevelTable:
    def test_types_cover_the_level(self):
        table = LevelTable(3)
        assert table.types() == enumerate_by_weight(3)

    @pytest.mark.parametrize("n", [2, 3])
    def test_sizes_match_closed_form(self, n):
        table = LevelTable(n)
        for mu in enumerate_by_weight(n):
            assert table.size(mu) == double_coset_size(mu, n)

    def test_rows_carry_the_right_type(self):
        table = LevelTable(3)
        for mu in enumerate_by_weight(3):
            rows = table.rows(mu)
            assert rows.flags["C_CONTIGUOUS"]
            assert rows.shape == (double_coset_size(mu, 3), 6)
            for row in rows[:: max(1, len(rows) // 7)]:
                assert stable_coset_type(_row_perm(row)) == mu

    def test_level_bounds(self):
        with pytest.raises(UsageError):
            LevelTable(0)
        with pytest.raises(UsageError):
            LevelTable(_kernels_py.MAX_TABLE_LEVEL + 1)

    def test_heavy_shape_rejected(self):
        with pytest.raises(WeightExceedsLevel):
            LevelTable(2).rows((2,))

    def test_cache_and_clear(self):
        product_tally((1,), (1,), 2)
        universal.fit_triple((1,), (1,), (1,))
        group_algebra.class_structure_constant((1,), (1,), (), 3)
        caches = {
            "_TALLIES": backend._TALLIES,
            "_MATCHINGS": backend._MATCHINGS,
            "_FIT_CACHE": universal._FIT_CACHE,
            "_CLASS_TABLES": group_algebra._CLASS_TABLES,
            "_CLASS_PRODUCTS": group_algebra._CLASS_PRODUCTS,
        }
        assert all(caches.values()), [k for k, v in caches.items() if not v]
        clear_caches()
        assert not any(caches.values()), [k for k, v in caches.items() if v]

    def test_size_mismatch_raises(self, monkeypatch):
        monkeypatch.setattr(_kernels_py, "double_coset_size", lambda mu, n: 0)
        with pytest.raises(ValidationFailure):
            LevelTable(2)

    def test_missing_type_raises(self):
        table = LevelTable(2)
        table._uniq = table._uniq[:-1]
        table._starts = table._starts[:-1]
        with pytest.raises(ValidationFailure):
            table.rows((1,))


class TestProductTally:
    def test_totals_count_the_coset(self):
        n = 3
        for lam in enumerate_by_weight(n):
            for nu in enumerate_by_weight(n):
                tally = product_tally(lam, nu, n)
                assert sum(tally.values()) == double_coset_size(lam, n)
                assert all(
                    weight(mu) <= n and count > 0
                    for mu, count in tally.items()
                )

    def test_counts_divide_by_group_order(self):
        n = 3
        order = hyperoctahedral_order(n)
        for nu in enumerate_by_weight(n):
            tally = product_tally((1,), nu, n)
            assert all(count % order == 0 for count in tally.values())

    def test_memoized(self):
        assert product_tally((1,), (2,), 3) is product_tally((1,), (2,), 3)

    def test_tally_against_direct_count(self):
        # brute-force the defining count for one coefficient at n = 2
        n = 2
        from bnhecke.cosets import enumerate_double_coset

        z = coset_representative((1,), n)
        direct: dict = {}
        for x in enumerate_double_coset((1,), n):
            mu = stable_coset_type(x.inverse() * z)
            direct[mu] = direct.get(mu, 0) + 1
        assert product_tally((1,), (1,), n) == direct

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_permutation_count(self, n):
        # the permutation tally over K_lam(n) rows is the oracle
        table = LevelTable(n)
        m = 2 * n
        for nu in enumerate_by_weight(n):
            z = _as_row(coset_representative(nu, n), m)
            zinv = np.empty(m, dtype=np.uint8)
            zinv[z] = np.arange(m, dtype=np.uint8)
            for lam in enumerate_by_weight(n):
                counts = compute_counts(table.rows(lam), z, zinv)
                oracle = [(key_partition(k), c) for k, c in sorted(counts.items())]
                assert list(product_tally(lam, nu, n).items()) == oracle, (lam, nu)

    def test_one_pass_fills_every_lam(self):
        clear_caches()
        product_tally((), (2,), 3)
        assert {lam for lam, nu, n in backend._TALLIES} == set(enumerate_by_weight(3))

    def test_level_check_raises(self, monkeypatch):
        clear_caches()
        monkeypatch.setattr(backend, "double_coset_size", lambda mu, n: 0)
        with pytest.raises(ValidationFailure):
            product_tally((1,), (1,), 3)
        assert not backend._MATCHINGS and not backend._TALLIES

    def test_tally_check_raises(self, monkeypatch):
        clear_caches()
        backend._typed_matchings(3)
        monkeypatch.setattr(backend, "double_coset_size", lambda mu, n: 0)
        with pytest.raises(ValidationFailure):
            product_tally((1,), (1,), 3)
        assert not backend._TALLIES

    def test_level_and_weight_errors(self):
        with pytest.raises(UsageError):
            product_tally((), (), backend.MAX_TALLY_LEVEL + 1)
        with pytest.raises(UsageError):
            product_tally((), (), 0)
        with pytest.raises(WeightExceedsLevel):
            product_tally((2,), (), 2)
        with pytest.raises(WeightExceedsLevel):
            product_tally((), (2,), 2)


class TestMatchings:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_count_and_shape(self, n):
        matchings = perfect_matchings(n)
        assert len(matchings) == math.prod(range(1, 2 * n, 2))
        assert len(set(matchings)) == len(matchings)
        assert matchings[0] == tuple(i ^ 1 for i in range(2 * n))
        for mate in matchings:
            assert all(mate[mate[i]] == i != mate[i] for i in range(2 * n))

    def test_type_walk_agrees_with_coset_type_on_s6(self):
        n = 3
        eps = perfect_matchings(n)[0]
        for images in itertools.permutations(range(2 * n)):
            w = _row_perm(images)
            winv = [0] * (2 * n)
            for i, j in enumerate(images):
                winv[j] = i
            # w^{-1}(eps): the couple {i, i ^ 1} goes to {winv[i], winv[i ^ 1]}
            pulled = [0] * (2 * n)
            for i in range(2 * n):
                pulled[winv[i]] = winv[i ^ 1]
            # the pair-graph walk is the oracle of the matching walk
            stable = tuple(p - 1 for p in gamma_graph(w, n).half_lengths() if p > 1)
            assert matching_type(eps, tuple(pulled)) == stable, images
            assert stable_coset_type(w) == stable, images


def test_identity_table_census_level_three():
    m = 6
    rows = permutation_block(m)
    z = np.arange(m, dtype=np.uint8)
    counts = compute_counts(rows, z, z)
    census = {key_partition(k): c for k, c in counts.items()}
    assert census == {(): 48, (1,): 288, (2,): 384}
