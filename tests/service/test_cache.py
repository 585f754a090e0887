"""Unit tests for the keyed LRU result cache."""

import numpy as np
import pytest

from repro import Dataset, StabilitySession
from repro.service.cache import (
    MISS,
    ResultCache,
    dataset_fingerprint,
    make_key,
)
from repro.service.parallel import EXECUTOR_MODES


class TestFingerprint:
    def test_identical_values_same_fingerprint(self, rng_factory):
        values = rng_factory(1).uniform(size=(20, 3))
        a = Dataset(values, item_labels=[f"a{i}" for i in range(20)])
        b = Dataset(values.copy())
        # Labels are display-only: they cannot change any result.
        assert dataset_fingerprint(a) == dataset_fingerprint(b)

    def test_value_change_changes_fingerprint(self, rng_factory):
        values = rng_factory(2).uniform(size=(20, 3))
        mutated = values.copy()
        mutated[7, 1] += 1e-12
        assert dataset_fingerprint(Dataset(values)) != dataset_fingerprint(
            Dataset(mutated)
        )

    def test_nan_payloads_fingerprint_identically(self, rng_factory):
        """Value equality, not bit equality: any NaN is *the* NaN.

        IEEE-754 has ~2^52 distinct NaN bit patterns and arithmetic can
        produce payload-carrying ones; a fingerprint that hashed raw
        bits would see a 'mutation' between value-identical matrices.
        """
        values = rng_factory(3).uniform(size=(12, 3))
        a, b = values.copy(), values.copy()
        a[4, 2] = np.float64("nan")
        # A different NaN bit pattern (payload bit set) in the same cell.
        b[4, 2] = np.frombuffer(
            np.uint64(0x7FF8000000000001).tobytes(), dtype=np.float64
        )[0]
        assert np.isnan(b[4, 2])
        assert dataset_fingerprint(a) == dataset_fingerprint(b)
        # And NaN still differs from any real value.
        assert dataset_fingerprint(a) != dataset_fingerprint(values)

    def test_negative_zero_fingerprints_like_positive_zero(self, rng_factory):
        values = rng_factory(4).uniform(size=(12, 3))
        a, b = values.copy(), values.copy()
        a[0, 0], b[0, 0] = 0.0, -0.0
        assert dataset_fingerprint(a) == dataset_fingerprint(b)

    def test_nan_position_still_detected(self, rng_factory):
        values = rng_factory(5).uniform(size=(12, 3))
        a, b = values.copy(), values.copy()
        a[1, 1] = np.nan
        b[2, 1] = np.nan
        assert dataset_fingerprint(a) != dataset_fingerprint(b)


class TestRefreshWithNaN:
    """session.refresh() mutation detection over NaN-containing buffers.

    :class:`Dataset` rejects NaN at construction, but refresh() exists
    precisely because a service handing out array views cannot trust
    immutability — an upstream writer can push NaN into the buffer
    later.  Detection must fire once on the real mutation and must not
    flap when the same cell is rewritten with a different NaN payload.
    """

    def _writable(self, session):
        values = session.dataset.values
        values.setflags(write=True)
        return values

    def test_mutation_to_nan_detected_once_then_stable(self, rng_factory):
        from repro import StabilitySession

        ds = Dataset(rng_factory(6).uniform(size=(30, 3)))
        with StabilitySession(ds, seed=1, executor="serial") as session:
            session.top_stable(1, kind="topk_set", k=3, budget=200)
            values = self._writable(session)
            values[3, 1] = np.nan
            assert session.refresh() is True  # mutation detected, state dropped
            assert session.refresh() is False  # fingerprint is NaN-stable
            # Same cell, different NaN payload: still no spurious mutation.
            values[3, 1] = np.frombuffer(
                np.uint64(0xFFF8000000000F00).tobytes(), dtype=np.float64
            )[0]
            assert np.isnan(values[3, 1])
            assert session.refresh() is False
            # A genuine further change is still caught.
            values[5, 0] += 0.25
            assert session.refresh() is True

    def test_shape_disambiguated(self):
        flat = np.arange(12, dtype=np.float64)
        assert dataset_fingerprint(flat.reshape(3, 4)) != dataset_fingerprint(
            flat.reshape(4, 3)
        )

    def test_accepts_plain_arrays(self, rng_factory):
        values = rng_factory(3).uniform(size=(5, 2))
        assert dataset_fingerprint(values) == dataset_fingerprint(Dataset(values))


class TestRefreshAnswersFromMutatedValues:
    """After an in-place mutation, refresh() must leave no executor
    scoring the old values: the next answer equals, byte for byte, a
    fresh serial session's over the mutated matrix."""

    QUERY = dict(kind="topk_set", k=3, backend="randomized", budget=2_000)

    def _answers(self, session):
        return [
            (r.ranking.order, r.top_k_set, r.stability, r.confidence_error,
             r.sample_count)
            for r in session.top_stable(3, **self.QUERY)
        ]

    @pytest.mark.parametrize("executor", EXECUTOR_MODES)
    def test_refresh_answers_like_a_fresh_session(self, executor):
        ds = Dataset(np.random.default_rng(5).uniform(size=(3_000, 3)))
        with StabilitySession(
            ds, seed=5, executor=executor, max_workers=2
        ) as session:
            before = self._answers(session)
            values = session.dataset.values
            values.setflags(write=True)
            values[:] = values[::-1].copy()  # item i becomes 2999 - i
            assert session.refresh() is True
            got = self._answers(session)
            mutated = values.copy()
        with StabilitySession(
            Dataset(mutated), seed=5, executor="serial"
        ) as fresh:
            expected = self._answers(fresh)
        assert got == expected
        assert got != before


class TestMakeKey:
    def test_param_order_irrelevant(self):
        assert make_key("fp", "op", a=1, b=2) == make_key("fp", "op", b=2, a=1)

    def test_sequence_forms_normalised(self):
        assert make_key("fp", "op", ids=[1, 2, 3]) == make_key(
            "fp", "op", ids=(1, 2, 3)
        )

    def test_distinct_budgets_distinct_keys(self):
        assert make_key("fp", "op", budget=1000) != make_key(
            "fp", "op", budget=2000
        )

    def test_distinct_ops_distinct_keys(self):
        assert make_key("fp", "top_stable") != make_key("fp", "stability_of")

    def test_frozenset_canonical(self):
        assert make_key("fp", "op", s=frozenset({3, 1})) == make_key(
            "fp", "op", s=frozenset({1, 3})
        )

    def test_region_keyed_by_repr(self):
        from repro import Cone, FullSpace

        full = make_key("fp", "op", region=FullSpace(2))
        cone = make_key("fp", "op", region=Cone(np.array([1.0, 1.0]), 0.1))
        assert full != cone

    def test_keys_are_hashable(self):
        key = make_key("fp", "op", ids=(1, 2), arr=np.arange(3.0), x=None)
        assert hash(key) is not None


class TestResultCache:
    def test_get_put_roundtrip(self):
        cache = ResultCache(4)
        key = make_key("fp", "op", m=1)
        assert cache.get(key) is MISS
        cache.put(key, "value")
        assert cache.get(key) == "value"
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_lru_eviction_order(self):
        cache = ResultCache(2)
        cache.put(("fp", "a", ()), 1)
        cache.put(("fp", "b", ()), 2)
        cache.get(("fp", "a", ()))  # refresh a; b becomes LRU
        cache.put(("fp", "c", ()), 3)
        assert cache.get(("fp", "b", ())) is MISS
        assert cache.get(("fp", "a", ())) == 1
        assert cache.stats.evictions == 1

    def test_invalidate_drops_only_one_fingerprint(self):
        cache = ResultCache(8)
        cache.put(("fp1", "op", ("a",)), 1)
        cache.put(("fp1", "op", ("b",)), 2)
        cache.put(("fp2", "op", ("a",)), 3)
        assert cache.invalidate("fp1") == 2
        assert cache.get(("fp1", "op", ("a",))) is MISS
        assert cache.get(("fp2", "op", ("a",))) == 3
        assert cache.stats.invalidations == 2

    def test_zero_capacity_disables_storage(self):
        cache = ResultCache(0)
        cache.put(("fp", "op", ()), 1)
        assert cache.get(("fp", "op", ())) is MISS
        assert len(cache) == 0

    def test_clear_resets_stats(self):
        cache = ResultCache(4)
        cache.put(("fp", "op", ()), 1)
        cache.get(("fp", "op", ()))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.requests == 0

    def test_hit_rate(self):
        cache = ResultCache(4)
        assert cache.stats.hit_rate == 0.0
        cache.put(("fp", "op", ()), 1)
        cache.get(("fp", "op", ()))
        cache.get(("fp", "other", ()))
        assert cache.stats.hit_rate == pytest.approx(0.5)
