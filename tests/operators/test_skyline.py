"""Unit tests for the skyline operator substrate."""

import numpy as np
import pytest

from repro.operators.skyline import (
    KSkybandIndex,
    dominance_count,
    is_dominated,
    k_skyband,
    skyline,
)


def _brute_force_skyline(values):
    n = values.shape[0]
    out = []
    for i in range(n):
        dominated = any(
            np.all(values[j] >= values[i]) and np.any(values[j] > values[i])
            for j in range(n)
            if j != i
        )
        if not dominated:
            out.append(i)
    return np.array(out, dtype=np.intp)


class TestSkyline:
    def test_paper_toy_example(self):
        # Section 2.2.5: D = {t1(1,0), t2(.99,.99), t3(.98,.98),
        # t4(.97,.97), t5(0,1)} has skyline {t1, t2, t5}.
        values = np.array(
            [[1.0, 0.0], [0.99, 0.99], [0.98, 0.98], [0.97, 0.97], [0.0, 1.0]]
        )
        assert skyline(values).tolist() == [0, 1, 4]

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matches_brute_force(self, dim, rng_factory):
        for seed in range(5):
            values = rng_factory(seed).uniform(size=(40, dim))
            assert np.array_equal(skyline(values), _brute_force_skyline(values))

    def test_single_item(self):
        assert skyline(np.array([[0.5, 0.5]])).tolist() == [0]

    def test_empty(self):
        assert skyline(np.empty((0, 2))).size == 0

    def test_duplicates_all_kept(self):
        values = np.array([[0.9, 0.9], [0.9, 0.9], [0.1, 0.1]])
        assert skyline(values).tolist() == [0, 1]

    def test_total_order_chain(self):
        values = np.array([[0.9, 0.9], [0.5, 0.5], [0.1, 0.1]])
        assert skyline(values).tolist() == [0]

    def test_anticorrelated_large_skyline(self, rng):
        # Anti-correlated data: most items are on the skyline.
        from repro.datasets import anticorrelated_dataset, correlated_dataset

        anti = anticorrelated_dataset(300, 3, rng)
        corr = correlated_dataset(300, 3, rng)
        assert len(skyline(anti.values)) > len(skyline(corr.values))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            skyline(np.ones(4))

    def test_skyline_members_win_some_ranking(self, rng):
        # Every skyline point tops the ranking for *some* weight among a
        # dense probe set... (converse of dominance; sanity, not exact).
        from repro.core.ranking import rank_items

        values = rng.uniform(size=(15, 2))
        sky = set(skyline(values).tolist())
        winners = set()
        for t in np.linspace(0.001, np.pi / 2 - 0.001, 400):
            w = np.array([np.cos(t), np.sin(t)])
            winners.add(rank_items(values, w).order[0])
        assert winners <= sky


class TestIsDominated:
    def test_basic(self):
        values = np.array([[0.9, 0.9], [0.5, 0.5]])
        assert is_dominated(values, 1)
        assert not is_dominated(values, 0)

    def test_equal_items_not_dominated(self):
        values = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert not is_dominated(values, 0)
        assert not is_dominated(values, 1)

    def test_consistent_with_skyline(self, rng):
        values = rng.uniform(size=(30, 3))
        sky = set(skyline(values).tolist())
        for i in range(30):
            assert (i in sky) == (not is_dominated(values, i))


class TestDominanceCount:
    def test_chain(self):
        values = np.array([[0.9, 0.9], [0.5, 0.5], [0.1, 0.1]])
        assert dominance_count(values).tolist() == [2, 1, 0]

    def test_incomparable(self):
        values = np.array([[0.9, 0.1], [0.1, 0.9]])
        assert dominance_count(values).tolist() == [0, 0]

    def test_correlation_raises_dominance(self, rng):
        from repro.datasets import anticorrelated_dataset, correlated_dataset

        corr = correlated_dataset(200, 3, rng)
        anti = anticorrelated_dataset(200, 3, rng)
        assert dominance_count(corr.values).sum() > dominance_count(anti.values).sum()


def _brute_force_k_skyband(values, k):
    n = values.shape[0]
    out = []
    for i in range(n):
        dominators = sum(
            1
            for j in range(n)
            if j != i and np.all(values[j] > values[i])
        )
        if dominators < k:
            out.append(i)
    return np.array(out, dtype=np.intp)


class TestKSkyband:
    def test_matches_brute_force_2d(self, rng):
        values = rng.uniform(size=(120, 2))
        for k in (1, 3, 7):
            got = k_skyband(values, k)
            assert got.tolist() == _brute_force_k_skyband(values, k).tolist()

    def test_matches_brute_force_md(self, rng):
        values = rng.uniform(size=(90, 4))
        for k in (1, 4):
            got = k_skyband(values, k)
            assert got.tolist() == _brute_force_k_skyband(values, k).tolist()

    def test_2d_exact_under_attribute_ties(self, rng):
        # Quantised values create many exact ties in both attributes —
        # the heap sweep must stay exact (no float-sum superset slack).
        values = np.round(rng.uniform(size=(150, 2)) * 8) / 8
        for k in (1, 2, 5):
            got = k_skyband(values, k)
            assert got.tolist() == _brute_force_k_skyband(values, k).tolist()

    def test_md_is_superset_under_ties(self, rng):
        values = np.round(rng.uniform(size=(100, 3)) * 8) / 8
        for k in (2, 4):
            got = set(k_skyband(values, k).tolist())
            exact = set(_brute_force_k_skyband(values, k).tolist())
            assert exact <= got  # pruning soundness: never drop a candidate

    def test_k_of_one_is_strict_skyline_superset(self, rng):
        values = rng.uniform(size=(60, 3))
        band = set(k_skyband(values, 1).tolist())
        assert set(skyline(values).tolist()) <= band

    def test_k_at_least_n_keeps_everything(self, rng):
        values = rng.uniform(size=(15, 3))
        assert k_skyband(values, 15).tolist() == list(range(15))
        assert k_skyband(values, 40).tolist() == list(range(15))

    def test_index_caches_per_k(self, rng):
        index = KSkybandIndex(rng.uniform(size=(50, 3)))
        first = index.band(3)
        assert index.band(3) is first  # cached, not rebuilt
        assert index.built_bands == (3,)
        index.band(1)
        assert index.built_bands == (1, 3)
        assert not first.flags.writeable

    def test_index_rejects_bad_input(self):
        with pytest.raises(ValueError):
            KSkybandIndex(np.zeros(5))
        with pytest.raises(ValueError):
            KSkybandIndex(np.zeros((5, 2))).band(0)

    def test_chunk_boundaries_irrelevant(self, rng):
        values = rng.uniform(size=(200, 3))
        expected = k_skyband(values, 3).tolist()
        for chunk in (1, 7, 64, 1000):
            assert k_skyband(values, 3, chunk=chunk).tolist() == expected

    def test_large_build_is_fast_enough(self, rng):
        # The n >= 100K regression the ROADMAP names: must complete in
        # seconds, not minutes (saturating scan / heap sweep).
        import time

        values = rng.uniform(size=(100_000, 2))
        start = time.perf_counter()
        band = k_skyband(values, 10)
        assert 0 < band.size < 100_000
        assert time.perf_counter() - start < 5.0

        values_md = rng.uniform(size=(100_000, 4))
        start = time.perf_counter()
        band_md = k_skyband(values_md, 10)
        assert 0 < band_md.size < 100_000
        assert time.perf_counter() - start < 3.0


def _broadcast_band(values, k, chunk):
    """Reference md build: the index's sum order, ``chunk``-row blocks,
    saturation rule and in-block sum rule, with every dominance test
    written as one ``(rows x kept x d)`` broadcast reduced over the
    attribute axis, and the in-block test run for every row."""
    pts = np.asarray(values, dtype=np.float64)
    n = pts.shape[0]
    order = np.argsort(-pts.sum(axis=1), kind="stable")
    sorted_pts = np.ascontiguousarray(pts[order])
    sorted_sums = sorted_pts.sum(axis=1)
    kept_blocks, kept_idx = [], []
    for start in range(0, n, chunk):
        block = sorted_pts[start : start + chunk]
        block_sums = sorted_sums[start : start + chunk]
        counts = np.zeros(block.shape[0], dtype=np.int64)
        alive = np.arange(block.shape[0])
        for kb in kept_blocks:
            if alive.size == 0:
                break
            sub = block[alive]
            counts[alive] += (
                (kb[None, :, :] > sub[:, None, :]).all(axis=2).sum(axis=1)
            )
            alive = alive[counts[alive] < k]
        inner = (block[None, :, :] > block[:, None, :]).all(axis=2)
        inner &= block_sums[None, :] > block_sums[:, None]
        counts += inner.sum(axis=1)
        keep = counts < k
        if keep.any():
            kept_blocks.append(np.ascontiguousarray(block[keep]))
            kept_idx.append(order[start : start + chunk][keep])
    return np.sort(np.concatenate(kept_idx)).astype(np.intp)


def _anticorrelated(rng, n, d):
    from repro.datasets import anticorrelated_dataset

    return anticorrelated_dataset(n, d, rng).values


_BAND_DATA = {
    "uniform": lambda rng, n, d: rng.uniform(size=(n, d)),
    "anticorrelated": _anticorrelated,
    "integer_ties": lambda rng, n, d: rng.integers(0, 4, (n, d)).astype(float),
    "triplicated": lambda rng, n, d: rng.permutation(
        np.tile(rng.uniform(size=(n // 3, d)), (3, 1))
    ),
    # A dominating margin of one ulp of 1.0 vanishes in the row sum, so
    # a dominator's computed sum can equal the dominated item's: the
    # case where the md build returns a superset of the exact band.
    "sub_ulp": lambda rng, n, d: 1.0 + rng.integers(0, 4, (n, d)) * 2.0**-52,
}


class TestKSkybandMatchesBroadcastReference:
    """The md build's decisions pinned bit for bit: same band (values,
    dtype, order) as the broadcast reference on every grid cell."""

    @pytest.mark.parametrize("d", (3, 4, 6))
    @pytest.mark.parametrize("kind", sorted(_BAND_DATA))
    def test_band_is_bit_identical(self, kind, d):
        for seed, chunk in enumerate((1, 7, 64, 512)):
            # At least two blocks at every chunk size; chunk=1 runs one
            # Python-level block test per kept item, so it stays small.
            n = 40 if chunk == 1 else chunk + 100
            rng = np.random.default_rng([d, seed, sorted(_BAND_DATA).index(kind)])
            values = _BAND_DATA[kind](rng, n, d)
            index = KSkybandIndex(values, chunk=chunk)
            strict = (values[None, :, :] > values[:, None, :]).all(axis=2)
            dominators = strict.sum(axis=1)
            for k in (1, 3, 10, 25):
                got = index.band(k)
                expected = _broadcast_band(values, k, chunk)
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected), (kind, d, chunk, k)
                exact = np.flatnonzero(dominators < k)
                if kind == "integer_ties":
                    assert np.array_equal(got, exact), (d, chunk, k)
                else:
                    assert set(exact.tolist()) <= set(got.tolist())
