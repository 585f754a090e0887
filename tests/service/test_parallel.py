"""Parallel-vs-serial observe equality, property-tested.

The service's shard-parallel observe must be an *optimisation*, not an
approximation: given the same seed, the tally after a parallel pass is
byte-identical to the serial tally — counts, totals, and first-seen
tie-break order — across ranking kinds, chunk sizes (including the
``REPRO_SCORING_CHUNK`` environment override), and split passes.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import Dataset, parallel_observe
from repro.core.randomized import GetNextRandomized
from repro.engine import kernel
from repro.service.parallel import (
    default_workers,
    resolve_executor_mode,
    should_parallelize,
)


def _pair(seed, n=300, d=3, *, kind="full", k=None, scoring_chunk=None):
    dataset = Dataset(np.random.default_rng(seed).uniform(size=(n, d)))
    make = lambda: GetNextRandomized(  # noqa: E731
        dataset,
        kind=kind,
        k=k,
        rng=np.random.default_rng([seed, 7]),
        scoring_chunk=scoring_chunk,
    )
    return make(), make()


def _assert_identical(serial, sharded):
    assert sharded.total_samples == serial.total_samples
    assert sharded.tally.counts == serial.tally.counts
    assert sharded.tally._first_seen == serial.tally._first_seen


class TestParallelObserveEquality:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "kind,k", [("full", None), ("topk_ranked", 4), ("topk_set", 4)]
    )
    def test_property_identical_tallies(self, seed, kind, k):
        serial, sharded = _pair(seed, kind=kind, k=k, scoring_chunk=64)
        serial.observe(500)
        with ThreadPoolExecutor(max_workers=3) as pool:
            chunks = parallel_observe(sharded, 500, executor=pool, force=True)
        assert chunks > 0
        _assert_identical(serial, sharded)

    def test_split_passes_match_one_pass(self):
        serial, sharded = _pair(5, scoring_chunk=50)
        serial.observe(400)
        with ThreadPoolExecutor(max_workers=2) as pool:
            parallel_observe(sharded, 150, executor=pool, force=True)
            parallel_observe(sharded, 250, executor=pool, force=True)
        _assert_identical(serial, sharded)

    def test_chunk_env_override_pins_decomposition(self, monkeypatch):
        monkeypatch.setenv(kernel.CHUNK_ENV_VAR, "37")
        assert kernel.auto_chunk_size(10) == 37
        assert kernel.auto_chunk_size(10_000_000) == 37
        serial, sharded = _pair(6)  # scoring_chunk=None -> env-pinned 37
        assert serial.scoring_chunk == 37
        serial.observe(300)
        with ThreadPoolExecutor(max_workers=2) as pool:
            parallel_observe(sharded, 300, executor=pool, force=True)
        _assert_identical(serial, sharded)

    def test_chunk_env_override_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(kernel.CHUNK_ENV_VAR, "0")
        with pytest.raises(ValueError):
            kernel.auto_chunk_size(100)

    def test_auto_chunk_is_deterministic(self):
        assert kernel.auto_chunk_size(10_000) == kernel.auto_chunk_size(10_000)

    def test_pruning_state_matches_serial(self):
        # Force the k-skyband pruning index on both sides: the parallel
        # pass must trigger the same prepare_observe transitions.
        dataset = Dataset(np.random.default_rng(9).uniform(size=(600, 3)))
        make = lambda: GetNextRandomized(  # noqa: E731
            dataset,
            kind="topk_set",
            k=3,
            rng=np.random.default_rng(13),
            prune_topk=True,
            scoring_chunk=64,
        )
        serial, sharded = make(), make()
        serial.observe(300)
        with ThreadPoolExecutor(max_workers=2) as pool:
            parallel_observe(sharded, 300, executor=pool, force=True)
        assert (sharded._candidates is None) == (serial._candidates is None)
        _assert_identical(serial, sharded)

    def test_interleaves_with_get_next(self):
        serial, sharded = _pair(10, kind="topk_set", k=3, scoring_chunk=64)
        a = serial.get_next(budget=400)
        serial.observe(200)
        with ThreadPoolExecutor(max_workers=2) as pool:
            parallel_observe(sharded, 400, executor=pool, force=True)
            b = sharded.next_from_pool()
            parallel_observe(sharded, 200, executor=pool, force=True)
        assert a.top_k_set == b.top_k_set
        assert a.stability == b.stability
        _assert_identical(serial, sharded)


class TestFallbacks:
    def test_serial_fallback_below_threshold(self):
        serial, auto = _pair(20, n=100)
        serial.observe(200)
        # n=100 is far below PARALLEL_MIN_ITEMS: auto path must fall
        # back to serial observe (returns 0 chunks) and still match.
        assert parallel_observe(auto, 200, max_workers=8) == 0
        _assert_identical(serial, auto)

    def test_single_worker_falls_back(self):
        serial, auto = _pair(21, n=5000)
        serial.observe(64)
        assert parallel_observe(auto, 64, max_workers=1) == 0
        _assert_identical(serial, auto)

    def test_zero_samples_noop(self):
        op, _ = _pair(22)
        assert parallel_observe(op, 0) == 0
        assert op.total_samples == 0

    def test_rejects_non_randomized(self, paper_dataset):
        from repro import StabilityEngine

        engine = StabilityEngine(paper_dataset)  # twod_exact
        with pytest.raises(TypeError):
            parallel_observe(engine.backend, 100)

    def test_should_parallelize_thresholds(self):
        assert should_parallelize(10_000, 8, 4)
        assert not should_parallelize(10_000, 1, 4)  # one chunk
        assert not should_parallelize(100, 8, 4)  # tiny dataset
        assert not should_parallelize(10_000, 8, 1)  # one worker

    def test_injected_executor_short_circuits_tiny_passes(self):
        # A caller-owned pool no longer forces sharding: below the
        # item threshold the pass runs serially (0 chunks) — the warm
        # session pool must not pay chunk handoff for tiny top-ups.
        serial, sharded = _pair(30, n=300, scoring_chunk=64)
        serial.observe(300)
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert parallel_observe(sharded, 300, executor=pool) == 0
        _assert_identical(serial, sharded)

    def test_force_overrides_short_circuit(self):
        serial, sharded = _pair(31, n=300, scoring_chunk=64)
        serial.observe(300)
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert parallel_observe(sharded, 300, executor=pool, force=True) > 0
        _assert_identical(serial, sharded)


class TestDefaultWorkers:
    def test_respects_affinity_when_available(self):
        workers = default_workers()
        assert workers >= 1
        try:
            available = len(__import__("os").sched_getaffinity(0))
        except (AttributeError, OSError):
            available = __import__("os").cpu_count() or 1
        assert workers <= max(available - 1, 1)


class TestResolveExecutorMode:
    def test_small_work_serial(self):
        assert resolve_executor_mode(100, 8, 4) == "serial"
        assert resolve_executor_mode(100_000, 1, 4) == "serial"
        assert resolve_executor_mode(100_000, 8, 1) == "serial"

    def test_mid_size_threads(self):
        assert resolve_executor_mode(10_000, 8, 4) == "thread"

    def test_large_narrow_keys_process(self):
        assert resolve_executor_mode(100_000, 8, 4, key_bytes=40) == "process"

    def test_wide_keys_stay_on_threads(self):
        # Full-ranking keys at n=100K are ~400KB per sample: IPC would
        # drown the process win, so auto keeps them on threads.
        assert (
            resolve_executor_mode(100_000, 8, 4, key_bytes=400_000) == "thread"
        )
