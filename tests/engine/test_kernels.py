"""The pluggable kernel-backend registry and its byte-identity contract."""

import importlib.util

import numpy as np
import pytest

from repro import Dataset
from repro.core.randomized import GetNextRandomized
from repro.engine import kernel, kernels

HAVE_NUMBA = importlib.util.find_spec("numba") is not None

KINDS = [("full", None), ("topk_ranked", 3), ("topk_set", 3), ("topk_ranked", 1)]


def _dataset(rng, n=30, d=3):
    return Dataset(rng.uniform(0.05, 1.0, size=(n, d)))


def _tally_fingerprint(op):
    tally = op._tally
    state = dict(tally.export_state())
    counts = state.pop("counts")
    return (
        state,
        counts.tobytes(),
        list(tally.counts),
        op.rng.bit_generator.state,
    )


class TestRegistry:
    def test_numpy_always_available(self):
        table = kernels.available_kernels()
        assert table["numpy"] is True
        assert "numba" in table

    def test_get_kernel_unknown_name(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.get_kernel("cuda")

    def test_get_kernel_returns_shared_instance(self):
        assert kernels.get_kernel("numpy") is kernels.get_kernel("numpy")

    def test_get_kernel_unavailable_is_strict(self):
        if HAVE_NUMBA:
            pytest.skip("numba importable here: nothing is unavailable")
        with pytest.raises(ValueError, match="not available"):
            kernels.get_kernel("numba")


class TestResolvePrecedence:
    def test_auto_without_env(self, monkeypatch):
        monkeypatch.delenv(kernels.KERNEL_ENV_VAR, raising=False)
        backend = kernels.resolve_kernel(None)
        assert backend.name == ("numba" if HAVE_NUMBA else "numpy")

    def test_auto_name_matches_default(self, monkeypatch):
        monkeypatch.delenv(kernels.KERNEL_ENV_VAR, raising=False)
        assert kernels.resolve_kernel("auto") is kernels.resolve_kernel(None)

    def test_env_beats_auto(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "numpy")
        assert kernels.resolve_kernel(None).name == "numpy"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "nonsense")
        assert kernels.resolve_kernel("numpy").name == "numpy"

    def test_empty_env_is_auto(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "")
        assert kernels.resolve_kernel(None) is kernels.resolve_kernel("auto")

    def test_instance_passthrough(self):
        backend = kernels.get_kernel("numpy")
        assert kernels.resolve_kernel(backend) is backend

    def test_unknown_name_errors(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.resolve_kernel("cuda")

    def test_named_unavailable_degrades_with_warning(self):
        if HAVE_NUMBA:
            pytest.skip("numba importable here: nothing degrades")
        with pytest.warns(RuntimeWarning, match="falling back to 'numpy'"):
            backend = kernels.resolve_kernel("numba")
        assert backend.name == "numpy"


class TestNumpyBackend:
    def test_reduce_chunk_matches_hand_pipeline(self, rng):
        values = rng.uniform(size=(25, 3))
        weights = rng.uniform(0.01, 1.0, size=(40, 3))
        dtype = kernel.key_dtype_for(25)
        backend = kernels.get_kernel("numpy")
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
        backend = kernels.get_kernel("numpy")
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
        backend = kernels.get_kernel("numpy")
        uniques, _, _ = backend.reduce_chunk(
            values, weights, kind="topk_set", k=2, key_dtype=dtype,
            candidates=candidates,
        )
        for key in uniques:
            ids = kernel.unpack_key(key.tobytes(), dtype)
            assert set(ids) <= set(candidates.tolist())


class TestNumbaFallbackPaths:
    """The parts of NumbaKernel that run without numba installed."""

    def test_full_kind_uses_reference(self, rng):
        backend = kernels.NumbaKernel()
        scores = rng.uniform(-1, 1, size=(6, 9))
        assert np.array_equal(
            backend.rank_rows(scores, kind="full", k=None),
            kernel.full_ranking_rows(scores),
        )

    def test_chunk_scale_is_larger(self):
        assert kernels.NumbaKernel.chunk_scale > kernels.KernelBackend.chunk_scale


@pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
class TestNumbaParity:
    """The jitted selection must match the reference bit for bit."""

    @pytest.mark.parametrize("kind,k", KINDS)
    def test_rank_rows_matches_reference(self, rng, kind, k):
        numba_backend = kernels.get_kernel("numba")
        numpy_backend = kernels.get_kernel("numpy")
        scores = rng.uniform(-1, 1, size=(64, 23))
        assert np.array_equal(
            numba_backend.rank_rows(scores, kind=kind, k=k),
            numpy_backend.rank_rows(scores, kind=kind, k=k),
        )

    def test_exact_ties_break_by_ascending_id(self):
        backend = kernels.get_kernel("numba")
        scores = np.array([[0.5, 0.7, 0.5, 0.7, 0.1]])
        assert backend.rank_rows(scores, kind="topk_ranked", k=3).tolist() == [
            [1, 3, 0]
        ]
        assert backend.rank_rows(scores, kind="topk_set", k=4).tolist() == [
            [0, 1, 2, 3]
        ]

    def test_all_equal_scores(self):
        backend = kernels.get_kernel("numba")
        scores = np.zeros((3, 7))
        assert backend.rank_rows(scores, kind="topk_ranked", k=4).tolist() == [
            [0, 1, 2, 3]
        ] * 3

    def test_k_bounds(self, rng):
        backend = kernels.get_kernel("numba")
        scores = rng.uniform(size=(2, 5))
        with pytest.raises(ValueError):
            backend.rank_rows(scores, kind="topk_set", k=0)
        with pytest.raises(ValueError):
            backend.rank_rows(scores, kind="topk_set", k=6)

    @pytest.mark.parametrize("kind,k", [("topk_ranked", 3), ("topk_set", 4)])
    @pytest.mark.parametrize("budget", [100, 1000])
    def test_operator_tallies_byte_identical(self, rng_factory, kind, k, budget):
        ops = []
        for name in ("numpy", "numba"):
            op = GetNextRandomized(
                _dataset(rng_factory(3)),
                kind=kind,
                k=k,
                rng=rng_factory(99),
                kernel_backend=name,
            )
            op.observe(budget)
            ops.append(op)
        assert _tally_fingerprint(ops[0]) == _tally_fingerprint(ops[1])


class TestOperatorKernelWiring:
    def test_default_backend_resolves(self, rng_factory, monkeypatch):
        monkeypatch.delenv(kernels.KERNEL_ENV_VAR, raising=False)
        op = GetNextRandomized(_dataset(rng_factory(0)), rng=rng_factory(1))
        assert op.kernel_backend is kernels.resolve_kernel(None)

    def test_env_selects_operator_backend(self, rng_factory, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "numpy")
        op = GetNextRandomized(_dataset(rng_factory(0)), rng=rng_factory(1))
        assert op.kernel_backend.name == "numpy"

    def test_explicit_backend_matches_default_tallies(self, rng_factory):
        """The kernel dial is a pure speed knob: same bytes out."""
        reference = GetNextRandomized(
            _dataset(rng_factory(5)), kind="topk_set", k=4, rng=rng_factory(7)
        )
        explicit = GetNextRandomized(
            _dataset(rng_factory(5)),
            kind="topk_set",
            k=4,
            rng=rng_factory(7),
            kernel_backend="numpy",
        )
        reference.observe(600)
        explicit.observe(600)
        assert _tally_fingerprint(reference) == _tally_fingerprint(explicit)

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


class TestBackendAwareChunking:
    def test_scale_grows_chunk_and_cap(self, monkeypatch):
        monkeypatch.delenv(kernel.CHUNK_ENV_VAR, raising=False)
        base = kernel.auto_chunk_size(5_000)
        scaled = kernel.auto_chunk_size(5_000, scale=4.0)
        assert scaled >= base
        # The ceiling scales too: tiny datasets may use bigger blocks.
        assert kernel.auto_chunk_size(1, scale=4.0) >= kernel.auto_chunk_size(1)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            kernel.auto_chunk_size(100, scale=0.0)

    def test_env_pin_overrides_scale(self, monkeypatch):
        monkeypatch.setenv(kernel.CHUNK_ENV_VAR, "123")
        assert kernel.auto_chunk_size(100, scale=4.0) == 123
        assert kernel.auto_chunk_size(1_000_000, scale=0.25) == 123

    def test_operator_chunk_uses_backend_scale(self, rng_factory, monkeypatch):
        monkeypatch.delenv(kernel.CHUNK_ENV_VAR, raising=False)
        op = GetNextRandomized(
            _dataset(rng_factory(0), n=5_000),
            rng=rng_factory(1),
            kernel_backend="numpy",
        )
        expected = kernel.auto_chunk_size(
            5_000, scale=op.kernel_backend.chunk_scale
        )
        assert op.scoring_chunk == expected


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
