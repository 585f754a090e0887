"""StabilitySession: state reuse, caching, invalidation, exact configs."""

import numpy as np
import pytest

from repro import Dataset, StabilityEngine, StabilitySession
from repro.errors import ExhaustedError
from repro.service.cache import ResultCache


@pytest.fixture
def ds_md(rng_factory):
    return Dataset(rng_factory(30).uniform(size=(300, 3)))


@pytest.fixture
def session(ds_md):
    with StabilitySession(ds_md, seed=7, budget=1_500, executor="serial") as s:
        yield s


class TestSessionReuse:
    def test_repeated_query_hits_cache_without_resampling(self, session):
        first = session.top_stable(3, kind="topk_set", k=4, backend="randomized")
        raw = session.engine_for("topk_set", 4, "randomized").backend.raw
        pool_after_first = raw.total_samples
        hits_before = session.cache.stats.hits
        second = session.top_stable(3, kind="topk_set", k=4, backend="randomized")
        assert session.cache.stats.hits == hits_before + 1
        assert raw.total_samples == pool_after_first  # no resampling
        assert [r.stability for r in second] == [r.stability for r in first]

    def test_pool_is_cumulative_across_queries(self, session):
        session.top_stable(1, kind="topk_set", k=4, backend="randomized",
                           budget=1_000)
        raw = session.engine_for("topk_set", 4, "randomized").backend.raw
        assert raw.total_samples == 1_000
        # A larger target only draws the difference.
        session.top_stable(1, kind="topk_set", k=4, backend="randomized",
                           budget=1_600)
        assert raw.total_samples == 1_600
        # A smaller target is already satisfied: pool untouched.
        session.stability_of(
            sorted(session.top_stable(
                1, kind="topk_set", k=4, backend="randomized", budget=1_600
            )[0].top_k_set),
            kind="topk_set", k=4, backend="randomized", min_samples=500,
        )
        assert raw.total_samples == 1_600

    def test_skyband_index_shared_across_configs(self, session):
        set_raw = session.engine_for("topk_set", 4, "randomized").backend.raw
        ranked_raw = session.engine_for("topk_ranked", 4, "randomized").backend.raw
        assert set_raw._skyband is session.skyband_index
        assert ranked_raw._skyband is session.skyband_index

    def test_get_next_is_a_cursor_over_the_pool(self, session):
        a = session.get_next(kind="topk_set", k=4, backend="randomized",
                             budget=2_000)
        b = session.get_next(kind="topk_set", k=4, backend="randomized",
                             budget=2_000)
        assert a.stability >= b.stability
        key_a = a.top_k_set
        assert key_a != b.top_k_set
        raw = session.engine_for("topk_set", 4, "randomized").backend.raw
        assert raw.total_samples == 2_000  # one shared pool fill

    def test_top_stable_does_not_consume_get_next(self, session):
        top = session.top_stable(2, kind="topk_set", k=4, backend="randomized")
        nxt = session.get_next(kind="topk_set", k=4, backend="randomized")
        assert nxt.top_k_set == top[0].top_k_set

    def test_seeded_sessions_reproduce(self, ds_md):
        results = []
        for _ in range(2):
            with StabilitySession(ds_md, seed=99, executor="serial") as s:
                r = s.top_stable(3, kind="topk_set", k=4, backend="randomized",
                                 budget=1_000)
                results.append([(x.top_k_set, x.stability) for x in r])
        assert results[0] == results[1]

    def test_config_rng_streams_independent_of_creation_order(self, ds_md):
        with StabilitySession(ds_md, seed=5, executor="serial") as a, \
             StabilitySession(ds_md, seed=5, executor="serial") as b:
            # a touches ranked first, b touches set first.
            a.top_stable(1, kind="topk_ranked", k=3, backend="randomized",
                         budget=500)
            ra = a.top_stable(1, kind="topk_set", k=3, backend="randomized",
                              budget=500)
            rb = b.top_stable(1, kind="topk_set", k=3, backend="randomized",
                              budget=500)
            assert ra[0].top_k_set == rb[0].top_k_set
            assert ra[0].stability == rb[0].stability


class TestExactConfigs:
    def test_2d_top_stable_matches_engine(self, paper_dataset):
        with StabilitySession(paper_dataset, seed=1) as session:
            via_session = session.top_stable(3)
            via_engine = StabilityEngine(paper_dataset).top_stable(3)
            assert [r.stability for r in via_session] == [
                r.stability for r in via_engine
            ]

    def test_2d_top_stable_idempotent_despite_get_next(self, paper_dataset):
        with StabilitySession(paper_dataset, seed=1) as session:
            first = session.top_stable(2)
            session.get_next()
            session.get_next()
            assert [r.stability for r in session.top_stable(2)] == [
                r.stability for r in first
            ]

    def test_2d_get_next_exhausts(self):
        tiny = Dataset(np.array([[0.9, 0.9], [0.1, 0.1]]))
        with StabilitySession(tiny) as session:
            session.get_next()
            with pytest.raises(ExhaustedError):
                session.get_next()

    def test_2d_topk_exact_via_session(self, paper_dataset):
        with StabilitySession(paper_dataset, seed=1) as session:
            results = session.top_stable(10, kind="topk_set", k=2)
            assert session.engine_for("topk_set", 2).backend_name == "twod_topk"
            assert abs(sum(r.stability for r in results) - 1.0) < 1e-9

    def test_min_stability_cut(self, paper_dataset):
        with StabilitySession(paper_dataset, seed=1) as session:
            all_results = session.top_stable(10)
            cut = session.top_stable(10, min_stability=0.2)
            assert cut == [r for r in all_results[: len(cut)]]
            assert all(r.stability >= 0.2 for r in cut)

    def test_observe_rejected_for_exact_config(self, paper_dataset):
        with StabilitySession(paper_dataset) as session:
            with pytest.raises(ValueError):
                session.observe(1_000)


class TestInvalidation:
    def test_invalidate_clears_state_and_cache(self, session):
        session.top_stable(2, kind="topk_set", k=4, backend="randomized")
        assert len(session.cache) > 0
        dropped = session.invalidate()
        assert dropped > 0
        assert session.stats()["configs"] == {}
        # Next query misses and resamples.
        misses_before = session.cache.stats.misses
        session.top_stable(2, kind="topk_set", k=4, backend="randomized")
        assert session.cache.stats.misses == misses_before + 1

    def test_refresh_detects_mutation(self, rng_factory):
        values = rng_factory(31).uniform(size=(50, 3))
        ds = Dataset(values)
        with StabilitySession(ds, seed=3, executor="serial") as session:
            session.top_stable(1, backend="randomized", budget=500)
            assert session.refresh() is False  # untouched
            # Simulate out-of-band mutation of the underlying buffer.
            ds.values.flags.writeable = True
            ds.values[0, 0] += 0.5
            assert session.refresh() is True
            assert session.stats()["configs"] == {}

    def test_replace_dataset_invalidates_and_refingerprints(
        self, session, rng_factory
    ):
        old_fp = session.fingerprint
        session.top_stable(1, kind="topk_set", k=4, backend="randomized")
        session.replace_dataset(Dataset(rng_factory(32).uniform(size=(40, 4))))
        assert session.fingerprint != old_fp
        assert session.stats()["configs"] == {}
        assert session.region.dim == 4

    def test_shared_cache_across_sessions(self, ds_md):
        shared = ResultCache(64)
        with StabilitySession(ds_md, seed=7, cache=shared, executor="serial") as a:
            a.top_stable(2, kind="topk_set", k=4, backend="randomized",
                         budget=800)
        with StabilitySession(ds_md, seed=7, cache=shared, executor="serial") as b:
            hits_before = shared.stats.hits
            b.top_stable(2, kind="topk_set", k=4, backend="randomized",
                         budget=800)
            assert shared.stats.hits == hits_before + 1
            # The hit answered without drawing a single sample in b.
            raw = b.engine_for("topk_set", 4, "randomized").backend.raw
            assert raw.total_samples == 0


class TestValidation:
    def test_bad_parallel_flag(self, ds_md):
        with pytest.raises(ValueError):
            StabilitySession(ds_md, executor="sometimes")

    def test_bad_m(self, session):
        with pytest.raises(ValueError):
            session.top_stable(0)

    def test_stats_shape(self, session):
        session.top_stable(1, kind="topk_set", k=4, backend="randomized")
        stats = session.stats()
        assert set(stats) == {
            "fingerprint", "uptime_seconds", "cache", "cache_session",
            "cost", "executor", "executor_workers", "kernel", "sampling",
            "pool_bytes", "cache_bytes", "configs", "skyband_bands",
        }
        (label,) = stats["configs"]
        assert label == "topk_set:k=4@randomized"


class TestCacheKeyPoolDepth:
    def test_key_tracks_actual_pool_not_target(self, ds_md):
        # A pool that outgrew the target must not serve (or poison)
        # target-depth entries across sessions (code-review fix).
        shared = ResultCache(64)
        with StabilitySession(ds_md, seed=44, cache=shared,
                              executor="serial") as deep:
            deep.observe(8_000, kind="topk_set", k=4, backend="randomized")
            from_deep = deep.top_stable(
                1, kind="topk_set", k=4, backend="randomized", budget=1_000
            )[0]
            assert from_deep.sample_count <= 8_000
            raw = deep.engine_for("topk_set", 4, "randomized").backend.raw
            assert raw.total_samples == 8_000  # answered from the deep pool
        with StabilitySession(ds_md, seed=44, cache=shared,
                              executor="serial") as shallow:
            from_shallow = shallow.top_stable(
                1, kind="topk_set", k=4, backend="randomized", budget=1_000
            )[0]
            raw = shallow.engine_for("topk_set", 4, "randomized").backend.raw
            # Miss (different pool depth): computed from its own 1K pool.
            assert raw.total_samples == 1_000
            assert from_shallow.stability != from_deep.stability or (
                from_shallow.sample_count != from_deep.sample_count
            )

    def test_repeat_at_same_depth_still_hits(self, ds_md):
        with StabilitySession(ds_md, seed=45, executor="serial") as session:
            session.observe(3_000, kind="topk_set", k=4, backend="randomized")
            first = session.top_stable(
                1, kind="topk_set", k=4, backend="randomized", budget=1_000
            )
            assert session.last_query_cached is False
            second = session.top_stable(
                1, kind="topk_set", k=4, backend="randomized", budget=1_000
            )
            assert session.last_query_cached is True
            assert [r.stability for r in first] == [r.stability for r in second]

    def test_stability_of_keyed_by_depth(self, ds_md):
        with StabilitySession(ds_md, seed=46, executor="serial") as session:
            top = session.top_stable(
                1, kind="topk_set", k=4, backend="randomized", budget=1_000
            )[0]
            ids = tuple(sorted(top.top_k_set))
            shallow = session.stability_of(
                ids, kind="topk_set", k=4, backend="randomized",
                min_samples=1_000,
            )
            session.observe(4_000, kind="topk_set", k=4, backend="randomized")
            deeper = session.stability_of(
                ids, kind="topk_set", k=4, backend="randomized",
                min_samples=1_000,
            )
            # Depth changed: recomputed (no stale hit), more samples.
            assert session.last_query_cached is False
            assert deeper.sample_count >= shallow.sample_count


class TestThreadLocalCachedFlag:
    def test_last_query_cached_is_per_thread(self):
        """Concurrent read-locked queries must not cross-attribute
        cache hits: the TCP server reports 'cached' per request from
        executor threads sharing one session."""
        import threading

        import numpy as np

        from repro import Dataset, StabilitySession

        dataset = Dataset(np.random.default_rng(31).uniform(size=(50, 3)))
        with StabilitySession(dataset, seed=32, executor="serial") as session:
            # Warm the pool and the cache for one query identity.
            session.top_stable(1, kind="topk_set", k=3,
                               backend="randomized", budget=200)
            errors = []
            ready = threading.Barrier(2)

            def guarded(worker):
                def run():
                    try:
                        ready.wait(timeout=30)
                        worker()
                    except BaseException as exc:  # re-raised on the main thread
                        errors.append(exc)
                return run

            def hitter():
                for _ in range(200):
                    session.top_stable(1, kind="topk_set", k=3,
                                       backend="randomized", budget=200)
                    assert session.last_query_cached is True

            def misser():
                for m in range(2, 202):
                    # A new m each time: always a cache miss.
                    session.top_stable(m, kind="topk_set", k=3,
                                       backend="randomized", budget=200)
                    assert session.last_query_cached is False

            threads = [threading.Thread(target=guarded(hitter)),
                       threading.Thread(target=guarded(misser))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not errors, errors
            # The main thread never queried: its view stays False.
            assert session.last_query_cached is False
