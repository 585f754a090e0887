"""Unit tests for the vectorized ranking kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ranking import _top_k_order
from repro.engine import kernel


class TestAutoChunkSize:
    def test_bounds(self):
        assert kernel.auto_chunk_size(1) == 8192
        assert kernel.auto_chunk_size(10_000_000) == 16

    def test_scales_inversely_with_n(self):
        assert kernel.auto_chunk_size(100) >= kernel.auto_chunk_size(100_000)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            kernel.auto_chunk_size(0)


class TestScoreBlock:
    def test_matches_matmul(self, rng):
        values = rng.uniform(size=(50, 3))
        weights = rng.uniform(size=(7, 3))
        assert np.allclose(kernel.score_block(values, weights), weights @ values.T)

    def test_single_weight_row(self, rng):
        values = rng.uniform(size=(10, 2))
        w = rng.uniform(size=2)
        out = kernel.score_block(values, w)
        assert out.shape == (1, 10)


def _three_pass_keys(scores):
    """Reference key build: invert, clear the id bits, then OR the ids."""
    n = scores.shape[1]
    id_bits = max(1, int(n - 1).bit_length())
    low_mask = np.uint64((1 << id_bits) - 1)
    s = np.ascontiguousarray(scores, dtype=np.float64)
    smin = s.min() if s.size else 0.0
    if smin <= 0.0:
        keys = (s + 0.0).view(np.uint64)
        if smin < 0.0:
            sign = np.uint64(0x8000000000000000)
            keys ^= ((keys >> np.uint64(63)) * np.uint64(0xFFFFFFFFFFFFFFFF)) | sign
        np.invert(keys, out=keys)
    else:
        keys = np.invert(s.view(np.uint64))
    keys &= ~low_mask
    keys |= np.arange(n, dtype=np.uint64)
    return keys, id_bits


SUBNORMAL = np.float64(5e-324)
KEY_BLOCKS = {
    "positive": lambda rng, n: rng.uniform(0.5, 2.0, size=(3, n)),
    "positive_ties": lambda rng, n: rng.integers(1, 4, size=(3, n)) / 4.0,
    "zero": lambda rng, n: np.zeros((3, n)),
    "negative_zero": lambda rng, n: np.full((3, n), -0.0),
    "negative": lambda rng, n: -rng.uniform(0.5, 2.0, size=(3, n)),
    "mixed_sign": lambda rng, n: rng.uniform(-1.0, 1.0, size=(3, n)),
    "subnormal": lambda rng, n: rng.integers(1, 1_000, size=(3, n)) * SUBNORMAL,
    "signed_subnormal": lambda rng, n: rng.integers(-9, 9, size=(3, n)) * SUBNORMAL,
}


class TestDescendingKeys:
    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 953, 10_000])
    @pytest.mark.parametrize("block", sorted(KEY_BLOCKS))
    def test_bit_identical_to_three_pass_build(self, rng, n, block):
        scores = KEY_BLOCKS[block](rng, n)
        keys, id_bits = kernel._descending_keys(scores)
        expected, expected_bits = _three_pass_keys(scores)
        assert id_bits == expected_bits
        assert keys.dtype == expected.dtype
        assert np.array_equal(keys, expected)


class TestFullRankingRows:
    def test_matches_stable_argsort(self, rng):
        scores = rng.uniform(-1, 1, size=(20, 37))
        expected = np.argsort(-scores, axis=1, kind="stable")
        assert np.array_equal(kernel.full_ranking_rows(scores), expected)

    def test_exact_ties_break_by_id(self):
        scores = np.array([[0.5, 0.7, 0.5, 0.7, 0.1]])
        assert kernel.full_ranking_rows(scores).tolist() == [[1, 3, 0, 2, 4]]

    def test_all_equal_scores(self):
        scores = np.zeros((3, 6))
        expected = np.tile(np.arange(6), (3, 1))
        assert np.array_equal(kernel.full_ranking_rows(scores), expected)

    def test_signed_zero(self):
        scores = np.array([[-0.0, 0.0, 1.0]])
        assert kernel.full_ranking_rows(scores).tolist() == [[2, 0, 1]]

    def test_truncation_collision_repaired(self, rng):
        # Scores that differ far below the stolen id bits must still
        # order by the exact float64 comparison.
        base = rng.uniform(0.5, 1.0, size=12)
        scores = np.tile(base, (4, 1))
        # Higher id gets the infinitesimally larger score: the truncated
        # keys collide and would order by id, so the repair must kick in.
        scores[:, 7] = scores[:, 3] + 1e-15
        expected = np.argsort(-scores, axis=1, kind="stable")
        assert np.array_equal(kernel.full_ranking_rows(scores), expected)
        ranked = kernel.topk_rows(scores, 12, ranked=True)
        assert np.array_equal(ranked, expected)

    def test_negative_scores(self, rng):
        scores = -rng.uniform(1, 2, size=(5, 9))
        expected = np.argsort(-scores, axis=1, kind="stable")
        assert np.array_equal(kernel.full_ranking_rows(scores), expected)


class TestTopkRows:
    @pytest.mark.parametrize("k", [1, 3, 8, 11, 12])
    def test_ranked_matches_scalar(self, rng, k):
        scores = rng.uniform(size=(15, 12))
        rows = kernel.topk_rows(scores, k, ranked=True)
        for i in range(15):
            assert list(rows[i]) == _top_k_order(scores[i], k)

    def test_set_is_sorted_ids(self, rng):
        scores = rng.uniform(size=(8, 20))
        rows = kernel.topk_rows(scores, 5, ranked=False)
        for i in range(8):
            assert list(rows[i]) == sorted(_top_k_order(scores[i], 5))

    def test_boundary_ties_take_lowest_ids(self):
        scores = np.array([[1.0, 0.5, 0.5, 0.5, 0.2]])
        assert kernel.topk_rows(scores, 2, ranked=True).tolist() == [[0, 1]]
        assert kernel.topk_rows(scores, 3, ranked=True).tolist() == [[0, 1, 2]]

    def test_heavy_ties_match_scalar(self, rng):
        scores = np.round(rng.uniform(size=(10, 30)), 1)
        rows = kernel.topk_rows(scores, 7, ranked=True)
        for i in range(10):
            assert list(rows[i]) == _top_k_order(scores[i], 7)

    def test_k_bounds(self, rng):
        scores = rng.uniform(size=(2, 5))
        with pytest.raises(ValueError):
            kernel.topk_rows(scores, 0, ranked=True)
        with pytest.raises(ValueError):
            kernel.topk_rows(scores, 6, ranked=True)

    def test_batch_topk_single_row(self, rng):
        scores = rng.uniform(size=40)
        assert list(kernel.batch_topk_indices(scores, 4)) == _top_k_order(scores, 4)


class TestSelectionNeverWritesScores:
    """Collision repair re-reads the caller's score block (a re-derived
    dot product could differ in the last ulp), so every selection
    routine must leave that block byte-equal."""

    @staticmethod
    def _block(rng, sign):
        if sign == "positive":
            scores, top = rng.uniform(0.5, 1.0, size=(6, 40)), 2.0
        elif sign == "signed_zero":
            scores, top = rng.uniform(0.0, 1.0, size=(6, 40)), 2.0
            scores[:, ::4] = 0.0
            scores[:, 1::4] = -0.0
        else:
            scores, top = -rng.uniform(1.0, 2.0, size=(6, 40)), -0.7
        # Row 0: item 9 beats item 2 by one ulp, so their fused keys
        # share the truncated prefix and the exact repair must run.
        scores[0, 2] = top
        scores[0, 9] = np.nextafter(top, np.inf)
        return scores

    @pytest.mark.parametrize("sign", ["positive", "signed_zero", "negative"])
    def test_score_block_is_byte_equal_after_selection(
        self, rng, sign, monkeypatch
    ):
        scores = self._block(rng, sign)
        before = scores.copy()
        repaired = []
        exact = kernel._top_k_order
        monkeypatch.setattr(
            kernel,
            "_top_k_order",
            lambda row, k: repaired.append(k) or exact(row, k),
        )
        expected = np.argsort(-scores, axis=1, kind="stable")
        for k in (1, 5, 39, 40):
            ranked = kernel.topk_rows(scores, k, ranked=True)
            assert scores.tobytes() == before.tobytes()
            assert np.array_equal(ranked, expected[:, :k])
            as_set = kernel.topk_rows(scores, k, ranked=False)
            assert scores.tobytes() == before.tobytes()
            assert np.array_equal(as_set, np.sort(expected[:, :k], axis=1))
        assert repaired, "the collision row never reached the exact repair"
        full = kernel.full_ranking_rows(scores)
        assert scores.tobytes() == before.tobytes()
        assert np.array_equal(full, expected)


class TestPackedKeys:
    def test_dtype_selection(self):
        assert kernel.key_dtype_for(200) == np.uint8
        assert kernel.key_dtype_for(60_000) == np.uint16
        assert kernel.key_dtype_for(1_000_000) == np.uint32

    def test_pack_unpack_roundtrip(self, rng):
        rows = rng.integers(0, 500, size=(6, 9))
        dtype = kernel.key_dtype_for(500)
        packed = kernel.pack_rows(rows, dtype)
        for i in range(6):
            assert kernel.unpack_key(packed[i].tobytes(), dtype) == tuple(
                int(x) for x in rows[i]
            )


class TestRankingTally:
    def test_counts_and_total(self):
        tally = kernel.RankingTally(10, 3)
        rows = np.array([[0, 1, 2], [0, 1, 2], [3, 4, 5]])
        tally.observe_rows(rows)
        assert tally.total == 3
        assert len(tally) == 2
        assert tally.count_of(tally.pack([0, 1, 2])) == 2

    def test_best_unreturned_is_most_frequent(self):
        tally = kernel.RankingTally(10, 2)
        tally.observe_rows(np.array([[0, 1]] * 3 + [[2, 3]] * 5 + [[4, 5]]))
        best = tally.best_unreturned()
        assert tally.unpack(best) == (2, 3)
        tally.mark_returned(best)
        assert tally.unpack(tally.best_unreturned()) == (0, 1)

    def test_tie_breaks_by_first_seen(self):
        tally = kernel.RankingTally(10, 2)
        tally.observe_rows(np.array([[7, 8]]))
        tally.observe_rows(np.array([[1, 2]]))
        # Both counts are 1; the first-observed key wins.
        assert tally.unpack(tally.best_unreturned()) == (7, 8)

    def test_counts_grow_across_batches(self):
        tally = kernel.RankingTally(10, 2)
        tally.observe_rows(np.array([[0, 1], [2, 3]]))
        tally.observe_rows(np.array([[2, 3], [2, 3]]))
        assert tally.count_of(tally.pack([2, 3])) == 3
        assert tally.unpack(tally.best_unreturned()) == (2, 3)

    def test_exhaustion_returns_none(self):
        tally = kernel.RankingTally(4, 2)
        tally.observe_rows(np.array([[0, 1]]))
        tally.mark_returned(tally.best_unreturned())
        assert tally.best_unreturned() is None


#: Six two-item rankings over four items, as packed tally keys.
_PAIRS = [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2), (0, 3)]
_PAIR_KEYS = [kernel.pack_rows(np.array([p]), np.dtype(np.uint8))[0].tobytes()
              for p in _PAIRS]
_TALLY_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), st.dictionaries(
            st.integers(0, len(_PAIRS) - 1), st.integers(1, 4),
            min_size=1, max_size=len(_PAIRS))),
        st.tuples(st.just("mark_best"), st.none()),
        st.tuples(st.just("mark"), st.integers(0, len(_PAIRS) - 1)),
        st.tuples(st.just("roundtrip"), st.none()),
    ),
    max_size=30,
)


class TestTallyHeapAgainstSortedReference:
    @settings(max_examples=80, deadline=None)
    @given(_TALLY_STEPS)
    def test_interleaved_observe_mark_and_restore(self, steps):
        tally = kernel.RankingTally(4, 2)
        counts: dict[bytes, int] = {}  # insertion order = first seen
        returned: set[bytes] = set()
        for action, arg in steps:
            if action == "observe":
                keys = [_PAIR_KEYS[i] for i in arg]
                freqs = list(arg.values())
                tally.observe_packed(keys, freqs, sum(freqs))
                for key, freq in zip(keys, freqs):
                    counts[key] = counts.get(key, 0) + freq
            elif action == "mark_best":
                best = tally.best_unreturned()
                if best is not None:
                    tally.mark_returned(best)
                    returned.add(best)
            elif action == "mark":
                tally.mark_returned(_PAIR_KEYS[arg])
                returned.add(_PAIR_KEYS[arg])
            else:
                nbytes = tally.nbytes
                tally = kernel.RankingTally.from_state(4, **tally.export_state())
                for key in returned:
                    tally.mark_returned(key)
                assert tally.nbytes == nbytes
            order = sorted(
                counts, key=lambda k: (-counts[k], list(counts).index(k))
            )
            unreturned = [key for key in order if key not in returned]
            assert tally.best_unreturned() == (
                unreturned[0] if unreturned else None
            )
            for m in (1, 2, len(_PAIRS) + 1):
                assert tally.top_keys(m) == order[:m]
            assert list(tally.counts.items()) == list(counts.items())
            assert tally.export_state()["keys"] == b"".join(counts)
