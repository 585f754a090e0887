"""The one chunk reduction and its byte-identity contract."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro import Dataset
from repro.core.randomized import GetNextRandomized
from repro.core.ranking import _top_k_order
from repro.engine import kernel, kernels
from repro.engine.backends import RandomizedBackend

SRC = str(Path(__file__).resolve().parents[2] / "src")

KINDS = [("full", None), ("topk_ranked", 3), ("topk_set", 3), ("topk_ranked", 1)]


def _dataset(rng, n=30, d=3):
    return Dataset(rng.uniform(0.05, 1.0, size=(n, d)))


def _reference_row(scores, kind, k):
    """The scalar ranking of one score row: descending score, exact ties
    by ascending id; a top-k set in ascending-id canonical form."""
    if kind == "full":
        return np.argsort(-scores, kind="stable").tolist()
    order = _top_k_order(scores, k)
    return order if kind == "topk_ranked" else sorted(order)


class TestNumpyBackend:
    def test_reduce_chunk_matches_hand_pipeline(self, rng):
        values = rng.uniform(size=(25, 3))
        weights = rng.uniform(0.01, 1.0, size=(40, 3))
        dtype = kernel.key_dtype_for(25)
        backend = kernels.KernelBackend()
        uniques, freqs, n_rows = backend.reduce_chunk(
            values, weights, kind="topk_set", k=4, key_dtype=dtype
        )
        rows = kernel.topk_rows(
            kernel.score_block(values, weights), 4, ranked=False
        )
        expected_u, expected_f = np.unique(
            kernel.pack_rows(rows, dtype), return_counts=True
        )
        assert n_rows == 40
        assert np.array_equal(uniques, expected_u)
        assert np.array_equal(freqs, expected_f)

    def test_out_buffer_changes_nothing(self, rng):
        values = rng.uniform(size=(25, 3))
        weights = rng.uniform(0.01, 1.0, size=(16, 3))
        dtype = kernel.key_dtype_for(25)
        backend = kernels.KernelBackend()
        plain = backend.reduce_chunk(
            values, weights, kind="topk_ranked", k=3, key_dtype=dtype
        )
        buf = np.full((32, 25), np.nan)  # oversized, poisoned
        buffered = backend.reduce_chunk(
            values, weights, kind="topk_ranked", k=3, key_dtype=dtype, out=buf
        )
        assert np.array_equal(plain[0], buffered[0])
        assert np.array_equal(plain[1], buffered[1])
        assert plain[2] == buffered[2]

    def test_candidate_map_back(self, rng):
        values = rng.uniform(size=(8, 3))
        weights = rng.uniform(0.01, 1.0, size=(10, 3))
        candidates = np.array([3, 11, 27, 40, 41, 55, 56, 90])
        dtype = kernel.key_dtype_for(91)
        backend = kernels.KernelBackend()
        uniques, _, _ = backend.reduce_chunk(
            values, weights, kind="topk_set", k=2, key_dtype=dtype,
            candidates=candidates,
        )
        for key in uniques:
            ids = kernel.unpack_key(key.tobytes(), dtype)
            assert set(ids) <= set(candidates.tolist())


class TestRankRows:
    """``KernelBackend.rank_rows`` row by row against the scalar ranking."""

    @pytest.mark.parametrize("kind,k", KINDS)
    def test_matches_scalar_reference(self, rng, kind, k):
        # One decimal: most rows hold exact ties, inside the top k and
        # across its boundary.
        scores = np.round(rng.uniform(-1, 1, size=(64, 23)), 1)
        rows = kernels.KernelBackend().rank_rows(scores, kind=kind, k=k)
        assert rows.shape == (64, 23 if kind == "full" else k)
        for row, score_row in zip(rows.tolist(), scores):
            assert row == _reference_row(score_row, kind, k)

    def test_exact_ties_break_by_ascending_id(self):
        backend = kernels.KernelBackend()
        scores = np.array([[0.5, 0.7, 0.5, 0.7, 0.1]])
        assert backend.rank_rows(scores, kind="full", k=None).tolist() == [
            [1, 3, 0, 2, 4]
        ]
        assert backend.rank_rows(scores, kind="topk_ranked", k=3).tolist() == [
            [1, 3, 0]
        ]
        assert backend.rank_rows(scores, kind="topk_set", k=4).tolist() == [
            [0, 1, 2, 3]
        ]

    def test_all_equal_scores(self):
        backend = kernels.KernelBackend()
        scores = np.zeros((3, 7))
        assert backend.rank_rows(scores, kind="full", k=None).tolist() == [
            list(range(7))
        ] * 3
        for kind in ("topk_ranked", "topk_set"):
            assert backend.rank_rows(scores, kind=kind, k=4).tolist() == [
                [0, 1, 2, 3]
            ] * 3

    def test_k_bounds(self, rng):
        backend = kernels.KernelBackend()
        scores = rng.uniform(size=(2, 5))
        for kind in ("topk_ranked", "topk_set"):
            for k in (0, 6):
                with pytest.raises(ValueError):
                    backend.rank_rows(scores, kind=kind, k=k)


class TestOperatorAgainstReference:
    @pytest.mark.parametrize("sampling", ["mc", "qmc"])
    @pytest.mark.parametrize(
        "kind,k", [("full", None), ("topk_ranked", 3), ("topk_set", 4)]
    )
    def test_counts_match_scalar_reference(self, rng_factory, kind, k, sampling):
        """A chunked observe pass (a partial last chunk included) counts
        exactly the scalar rankings of the functions it samples: a twin
        operator draws the same stream chunk by chunk, and each row of
        its score block is ranked on its own."""
        def make():
            return GetNextRandomized(
                _dataset(rng_factory(3)),
                kind=kind,
                k=k,
                rng=rng_factory(99),
                scoring_chunk=64,
                sampling=sampling,
            )

        op, twin = make(), make()
        op.observe(700)
        expected = Counter()
        for batch in twin.plan_chunks(700):
            weights = twin.sample_weights(batch)
            for scores in kernel.score_block(twin.dataset.values, weights):
                ids = _reference_row(scores, kind, k)
                expected[frozenset(ids) if kind == "topk_set" else tuple(ids)] += 1
        assert op.total_samples == 700
        assert op.counts == expected
        assert op.rng.bit_generator.state == twin.rng.bit_generator.state


class TestOperatorKernelWiring:
    def test_every_operator_shares_the_numpy_reduction(self, rng_factory):
        ops = [
            GetNextRandomized(_dataset(rng_factory(seed)), rng=rng_factory(1))
            for seed in (0, 1)
        ]
        assert ops[0].kernel_backend is ops[1].kernel_backend
        assert isinstance(ops[0].kernel_backend, kernels.KernelBackend)
        assert ops[0].kernel_backend.name == "numpy"

    def test_chunk_plan_invariance_with_shared_buffer(self, rng_factory):
        """Many tiny chunks through one reused ``out=`` buffer must count
        exactly what one big chunk counts.

        First-seen *order* is plan-dependent by design (``np.unique``
        sorts within each chunk), so the invariant is the count map and
        the rng stream, not the key byte order.
        """
        def counts(op):
            state = op._tally.export_state()
            width = state["key_length"] * np.dtype(state["dtype"]).itemsize
            keys = [
                state["keys"][i * width : (i + 1) * width]
                for i in range(state["n_keys"])
            ]
            return dict(zip(keys, state["counts"].tolist()))

        tiny = GetNextRandomized(
            _dataset(rng_factory(2)),
            kind="topk_ranked",
            k=3,
            rng=rng_factory(11),
            scoring_chunk=7,
        )
        big = GetNextRandomized(
            _dataset(rng_factory(2)),
            kind="topk_ranked",
            k=3,
            rng=rng_factory(11),
            scoring_chunk=10_000,
        )
        tiny.observe(500)
        big.observe(500)
        assert counts(tiny) == counts(big)
        assert tiny.rng.bit_generator.state == big.rng.bit_generator.state


class TestChunking:
    def test_operator_chunk_is_auto_chunk_size(self, rng_factory):
        op = GetNextRandomized(
            _dataset(rng_factory(0), n=5_000), rng=rng_factory(1)
        )
        assert op.scoring_chunk == kernel.auto_chunk_size(5_000)

    @pytest.mark.parametrize(
        "n_items,chunk", [(1, 8192), (2_000, 1_048), (10_000, 209), (10**7, 16)]
    )
    def test_auto_chunk_size_bounds_the_score_block(self, n_items, chunk):
        assert kernel.auto_chunk_size(n_items) == chunk

    def test_removed_dials_are_type_errors(self, rng_factory):
        """The backend scale and the per-operator backend choice are
        gone: passing either fails loudly instead of being ignored."""
        dataset = _dataset(rng_factory(0))
        with pytest.raises(TypeError):
            kernel.auto_chunk_size(5_000, scale=4.0)
        with pytest.raises(TypeError):
            GetNextRandomized(dataset, kernel_backend="numpy")
        with pytest.raises(TypeError):
            RandomizedBackend(dataset, kernel_backend="numpy")

    def test_retired_environment_variables_change_no_tally(self):
        """``REPRO_KERNEL`` and ``REPRO_SCORING_CHUNK`` once chose the
        reduction and pinned the chunk plan; nothing reads them now, so
        a top-k pool tallies the same bytes (keys, counts, first-seen
        order) in a fresh interpreter with or without them set."""
        probe = """
import hashlib, json
import numpy as np
from repro import Dataset
from repro.core.randomized import GetNextRandomized

values = np.random.default_rng(3).uniform(size=(3_000, 4))
op = GetNextRandomized(Dataset(values), kind="topk_ranked", k=5,
                       rng=np.random.default_rng(4))
op.observe(2_000)
state = op.tally.export_state()
print(json.dumps({
    "chunk": op.scoring_chunk,
    "tally": hashlib.sha256(
        state["keys"] + state["counts"].tobytes()
        + b"".join(op.tally.counts)
    ).hexdigest(),
}))
"""
        base = {
            key: value for key, value in os.environ.items()
            if key not in ("REPRO_KERNEL", "REPRO_SCORING_CHUNK")
        }
        results = []
        for extra in ({}, {"REPRO_KERNEL": "numba", "REPRO_SCORING_CHUNK": "37"}):
            out = subprocess.run(
                [sys.executable, "-c", probe],
                env={**base, **extra, "PYTHONPATH": SRC},
                capture_output=True, text=True, timeout=120, check=True,
            ).stdout
            results.append(json.loads(out.splitlines()[-1]))
        assert results[0]["chunk"] == kernel.auto_chunk_size(3_000)
        assert results[1] == results[0]


class TestPackBoundaries:
    """Round-trips at the dtype-width fenceposts."""

    @pytest.mark.parametrize("n_items", [255, 256, 257, 65535, 65536, 65537])
    def test_key_dtype_widths(self, n_items):
        dtype = kernel.key_dtype_for(n_items)
        # Ids run 0..n-1: 256 ids still fit uint8, 65536 still fit uint16.
        if n_items <= 256:
            assert dtype == np.dtype("<u1")
        elif n_items <= 65536:
            assert dtype == np.dtype("<u2")
        else:
            assert dtype == np.dtype("<u4")

    @pytest.mark.parametrize("n_items", [255, 256, 257, 65535, 65536, 65537])
    def test_pack_rows_roundtrip_at_extremes(self, n_items):
        dtype = kernel.key_dtype_for(n_items)
        rows = np.array(
            [
                [0, 1, n_items - 2, n_items - 1],
                [n_items - 1, n_items - 2, 1, 0],
            ]
        )
        packed = kernel.pack_rows(rows, dtype)
        for key, row in zip(packed, rows):
            assert kernel.unpack_key(key.tobytes(), dtype) == tuple(row)

    @pytest.mark.parametrize("n_items", [255, 256, 65535, 65536])
    def test_tally_pack_prefix_boundary_ids(self, n_items):
        tally = kernel.RankingTally(n_items, 3)
        ids = [n_items - 1, 0, n_items - 2]
        packed = tally.pack(ids)
        assert kernel.unpack_key(packed, tally.dtype) == tuple(ids)
        prefix = tally.pack_prefix(ids[:2])
        assert packed.startswith(prefix)
        # A boundary id must occupy exactly one dtype-width cell.
        assert len(packed) == 3 * tally.dtype.itemsize
