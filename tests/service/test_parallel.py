"""Parallel-vs-serial observe equality, property-tested.

The service's shard-parallel observe must be an *optimisation*, not an
approximation: given the same seed, the tally after a thread pass of
:class:`ObserveExecutor` is byte-identical to the serial tally —
counts, totals, first-seen tie-break order, and the rng stream — across
ranking kinds, sampling schemes, chunk sizes, split passes, and
sessions.
"""

import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro import Dataset, StabilitySession
from repro.core.randomized import GetNextRandomized
from repro.engine import kernel
from repro.service.parallel import ObserveExecutor, default_workers


def _pair(seed, n=300, d=3, *, kind="full", k=None, scoring_chunk=None, **kw):
    dataset = Dataset(np.random.default_rng(seed).uniform(size=(n, d)))
    make = lambda: GetNextRandomized(  # noqa: E731
        dataset,
        kind=kind,
        k=k,
        rng=np.random.default_rng([seed, 7]),
        scoring_chunk=scoring_chunk,
        **kw,
    )
    return make(), make()


def _assert_identical(serial, sharded):
    assert sharded.total_samples == serial.total_samples
    assert sharded.tally.counts == serial.tally.counts
    assert list(sharded.tally.counts) == list(serial.tally.counts)
    assert sharded.rng.bit_generator.state == serial.rng.bit_generator.state


def _sized(n_items):
    """Just enough of an operator for :meth:`ObserveExecutor.resolve`."""
    return SimpleNamespace(dataset=SimpleNamespace(n_items=n_items))


class TestParallelObserveEquality:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "kind,k", [("full", None), ("topk_ranked", 4), ("topk_set", 4)]
    )
    def test_property_identical_tallies(self, seed, kind, k):
        serial, sharded = _pair(seed, kind=kind, k=k, scoring_chunk=64)
        serial.observe(500)
        with ObserveExecutor("thread", max_workers=3) as executor:
            assert executor.observe(sharded, 500) == "thread"
            assert executor.last_pass["chunks"] > 0
        _assert_identical(serial, sharded)

    def test_split_passes_match_one_pass(self):
        serial, sharded = _pair(5, scoring_chunk=50)
        serial.observe(400)
        with ObserveExecutor("thread", max_workers=2) as executor:
            executor.observe(sharded, 150)
            executor.observe(sharded, 250)
        _assert_identical(serial, sharded)

    def test_explicit_chunk_pins_decomposition(self):
        serial, sharded = _pair(6, scoring_chunk=37)
        assert serial.scoring_chunk == 37
        serial.observe(300)
        with ObserveExecutor("thread", max_workers=2) as executor:
            executor.observe(sharded, 300)
            assert executor.last_pass["chunks"] == len(serial.plan_chunks(300))
        _assert_identical(serial, sharded)

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
        with ObserveExecutor("thread", max_workers=2) as executor:
            executor.observe(sharded, 300)
        assert (sharded._candidates is None) == (serial._candidates is None)
        _assert_identical(serial, sharded)

    def test_interleaves_with_get_next(self):
        serial, sharded = _pair(10, kind="topk_set", k=3, scoring_chunk=64)
        a = serial.get_next(budget=400)
        serial.observe(200)
        with ObserveExecutor("thread", max_workers=2) as executor:
            executor.observe(sharded, 400)
            b = sharded.next_from_pool()
            executor.observe(sharded, 200)
        assert a.top_k_set == b.top_k_set
        assert a.stability == b.stability
        _assert_identical(serial, sharded)


class TestFallbacks:
    def test_serial_fallback_below_threshold(self):
        serial, auto = _pair(20, n=100)
        serial.observe(200)
        # n=100 is far below PARALLEL_MIN_ITEMS: auto must fall back to
        # the serial observe and still match.
        with ObserveExecutor("auto", max_workers=8) as executor:
            assert executor.observe(auto, 200) == "serial"
        _assert_identical(serial, auto)

    def test_single_worker_falls_back(self):
        serial, auto = _pair(21, n=5000)
        serial.observe(64)
        with ObserveExecutor("auto", max_workers=1) as executor:
            assert executor.observe(auto, 64) == "serial"
        _assert_identical(serial, auto)

    def test_zero_samples_noop(self):
        op, _ = _pair(22)
        with ObserveExecutor("auto") as executor:
            assert executor.observe(op, 0) == "serial"
        assert op.total_samples == 0

    def test_rejects_non_randomized(self, paper_dataset):
        from repro import StabilityEngine

        engine = StabilityEngine(paper_dataset)  # twod_exact
        with ObserveExecutor("thread", max_workers=2) as executor:
            with pytest.raises(TypeError):
                executor.observe(engine.backend, 100)

    def test_should_parallelize_thresholds(self):
        executor = ObserveExecutor("auto", max_workers=4)
        assert executor.resolve(_sized(10_000), 8) == "thread"
        assert executor.resolve(_sized(10_000), 1) == "serial"  # one chunk
        assert executor.resolve(_sized(100), 8) == "serial"  # tiny dataset
        one_worker = ObserveExecutor("auto", max_workers=1)
        assert one_worker.resolve(_sized(10_000), 8) == "serial"

    def test_injected_executor_short_circuits_tiny_passes(self):
        # Auto mode with a warm pool still runs tiny passes serially:
        # below the item threshold a top-up must not pay chunk handoff.
        serial, sharded = _pair(30, n=300, scoring_chunk=64)
        serial.observe(300)
        with ObserveExecutor("auto", max_workers=2) as executor:
            assert executor.observe(sharded, 300) == "serial"
        _assert_identical(serial, sharded)

    def test_force_overrides_short_circuit(self):
        serial, sharded = _pair(31, n=300, scoring_chunk=64)
        serial.observe(300)
        with ObserveExecutor("thread", max_workers=2) as executor:
            assert executor.observe(sharded, 300) == "thread"
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
        four = ObserveExecutor("auto", max_workers=4)
        assert four.resolve(_sized(100), 8) == "serial"
        assert four.resolve(_sized(100_000), 1) == "serial"
        one = ObserveExecutor("auto", max_workers=1)
        assert one.resolve(_sized(100_000), 8) == "serial"

    def test_mid_size_threads(self):
        four = ObserveExecutor("auto", max_workers=4)
        assert four.resolve(_sized(10_000), 8) == "thread"
        assert four.resolve(_sized(100_000), 8) == "thread"
        assert four.resolve(_sized(2_048), 2) == "thread"  # both floors

    def test_explicit_modes_ignore_the_work_size(self):
        for mode in ("serial", "thread"):
            assert ObserveExecutor(mode).resolve(_sized(1), 1) == mode


class TestObserveExecutor:
    def test_modes_agree_byte_for_byte(self):
        ops = {}
        for mode in ("serial", "thread"):
            op, _ = _pair(20, n=3_000, kind="topk_set", k=4, scoring_chunk=64)
            with ObserveExecutor(mode, max_workers=2) as executor:
                assert executor.observe(op, 500) == mode
            ops[mode] = op
        _assert_identical(ops["serial"], ops["thread"])

    def test_auto_picks_serial_on_tiny_dataset(self):
        op, _ = _pair(21, n=200)
        with ObserveExecutor("auto", max_workers=2) as executor:
            assert executor.observe(op, 100) == "serial"

    @pytest.mark.parametrize("mode", ["thread", "auto"])
    @pytest.mark.parametrize(
        "kind,k,prune",
        [
            ("full", None, False),
            ("topk_ranked", 4, False),
            ("topk_set", 4, False),
            ("topk_set", 3, True),
        ],
    )
    def test_sharded_modes_match_serial(self, mode, kind, k, prune):
        # n=3_000 clears PARALLEL_MIN_ITEMS and 500 samples make 8
        # chunks, so auto resolves to the thread pool at two workers.
        serial, sharded = _pair(
            23, n=3_000, kind=kind, k=k, scoring_chunk=64, prune_topk=prune
        )
        serial.observe(500)
        with ObserveExecutor(mode, max_workers=2) as executor:
            assert executor.observe(sharded, 500) == "thread"
        assert (sharded._candidates is None) == (serial._candidates is None)
        _assert_identical(serial, sharded)

    def test_split_passes_match_one_pass(self):
        # Budgets are multiples of the chunk, so the split passes share
        # the one-pass chunk boundaries.
        serial, sharded = _pair(24, n=3_000, scoring_chunk=50)
        serial.observe(400)
        with ObserveExecutor("thread", max_workers=2) as executor:
            executor.observe(sharded, 150)
            executor.observe(sharded, 250)
        _assert_identical(serial, sharded)

    def test_get_next_cursor_matches_serial(self):
        serial, sharded = _pair(
            25, n=3_000, kind="topk_set", k=3, scoring_chunk=64
        )
        a = serial.get_next(budget=400)
        serial.observe(200)
        with ObserveExecutor("thread", max_workers=2) as executor:
            executor.observe(sharded, 400)
            b = sharded.next_from_pool()
            executor.observe(sharded, 200)
        assert a.top_k_set == b.top_k_set
        assert a.stability == b.stability
        _assert_identical(serial, sharded)

    @pytest.mark.parametrize("mode", ["serial", "thread"])
    def test_last_pass_records_the_backend_that_ran(self, mode):
        op, _ = _pair(26, n=3_000, scoring_chunk=64)
        with ObserveExecutor(mode, max_workers=2) as executor:
            assert executor.last_pass is None
            executor.observe(op, 300)
            assert executor.last_pass["executor"] == mode
            assert executor.last_pass["n"] == 300
            assert executor.last_pass["kernel"] == op.kernel_backend.name
            if mode == "thread":
                assert executor.last_pass["chunks"] == len(op.plan_chunks(300))

    @pytest.mark.parametrize("mode", ["serial", "thread", "auto"])
    def test_zero_samples_run_nothing(self, mode):
        op, _ = _pair(27, n=3_000)
        with ObserveExecutor(mode, max_workers=2) as executor:
            assert executor.observe(op, 0) == "serial"
            assert executor._thread_pool is None  # no pool spun up
            assert executor.last_pass is None
        assert op.total_samples == 0

    def test_close_is_idempotent_and_joins_workers(self):
        op, _ = _pair(28, n=3_000, scoring_chunk=64)
        before = set(threading.enumerate())
        executor = ObserveExecutor("thread", max_workers=2)
        executor.observe(op, 300)
        workers = {
            t for t in set(threading.enumerate()) - before
            if t.name.startswith("repro-observe")
        }
        assert workers
        executor.close()
        executor.close()
        assert not any(t.is_alive() for t in workers)
        with pytest.raises(RuntimeError):
            executor.observe(op, 100)

    @pytest.mark.parametrize("mode", ["process", "sometimes"])
    def test_rejects_unknown_modes(self, mode):
        with pytest.raises(ValueError, match="executor mode"):
            ObserveExecutor(mode)


class TestQuasiSamplingParity:
    """QMC streams sample on the caller in plan order, so the sharded
    path stays byte-identical to serial — same contract as mc."""

    @pytest.mark.parametrize("kind,k", [("full", None), ("topk_set", 4)])
    def test_qmc_thread_serial(self, kind, k):
        serial, threaded = _pair(
            11, n=1_500, kind=kind, k=k, scoring_chunk=64, sampling="qmc"
        )
        serial.observe(500)
        with ObserveExecutor("thread", max_workers=2) as executor:
            assert executor.observe(threaded, 500) == "thread"
        _assert_identical(serial, threaded)
        assert serial._qmc.index == threaded._qmc.index


class TestSessionIntegration:
    def test_session_thread_executor_matches_serial(self):
        dataset = Dataset(np.random.default_rng(30).uniform(size=(2_500, 3)))
        query = dict(kind="topk_set", k=4, backend="randomized", budget=600)
        with StabilitySession(dataset, seed=3, executor="serial") as serial:
            expected = serial.top_stable(3, **query)
            expected_next = serial.get_next(**query)
        with StabilitySession(
            dataset, seed=3, executor="thread", max_workers=2
        ) as session:
            assert session.observer.mode == "thread"
            got = session.top_stable(3, **query)
            got_next = session.get_next(**query)
        assert [r.stability for r in got] == [r.stability for r in expected]
        assert [r.ranking.order for r in got] == [
            r.ranking.order for r in expected
        ]
        assert got_next.stability == expected_next.stability
        assert got_next.ranking.order == expected_next.ranking.order

    @pytest.mark.parametrize(
        "grown,restored",
        [("serial", "thread"), ("thread", "serial"), ("thread", "thread")],
    )
    def test_snapshot_restore_across_executors(self, grown, restored, tmp_path):
        # A pool grown on one executor and restored onto another must
        # continue exactly like the uninterrupted session.
        dataset = Dataset(np.random.default_rng(32).uniform(size=(2_500, 3)))
        query = dict(kind="topk_ranked", k=4, backend="randomized", budget=500)
        path = tmp_path / "grown.snap"
        with StabilitySession(
            dataset, seed=5, executor=grown, max_workers=2
        ) as session:
            session.get_next(**query)
            session.save(path)
            expected = session.get_next(**{**query, "budget": 900})
        with StabilitySession.restore(
            path, dataset, executor=restored, max_workers=2
        ) as session:
            assert session.observer.mode == restored
            got = session.get_next(**{**query, "budget": 900})
        assert got.stability == expected.stability
        assert got.ranking.order == expected.ranking.order
        assert got.sample_count == expected.sample_count

    def test_session_close_joins_observe_threads(self):
        dataset = Dataset(np.random.default_rng(31).uniform(size=(2_500, 3)))
        before = set(threading.enumerate())
        session = StabilitySession(
            dataset, seed=4, executor="thread", max_workers=2
        )
        session.observe(400, kind="topk_set", k=4, backend="randomized")
        workers = {
            t for t in set(threading.enumerate()) - before
            if t.name.startswith("repro-observe")
        }
        assert workers
        session.close()
        assert not any(t.is_alive() for t in workers)

    @pytest.mark.parametrize("mode", ["serial", "thread"])
    def test_stats_reports_executor_mode(self, mode):
        dataset = Dataset(np.random.default_rng(33).uniform(size=(300, 3)))
        with StabilitySession(dataset, seed=6, executor=mode) as session:
            assert session.stats()["executor"] == mode
