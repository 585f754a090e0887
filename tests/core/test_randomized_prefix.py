"""The ranked-prefix fast path on the randomized backend.

``stability_of`` over a ``kind="full"`` pool accepts rankings shorter
than the dataset and answers by prefix-counting the existing tally —
no dedicated top-k pool is sampled.  The correctness anchor: a sampled
function's ranked top-``p`` prefix *is* the prefix of its full
ranking, so against the same sample stream the fast path must agree
**exactly** (same counts, not just statistically) with a dedicated
``topk_ranked`` operator — which is what these property tests pin.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Dataset, StabilitySession
from repro.core.randomized import GetNextRandomized


def _dataset(n: int, d: int, seed: int) -> Dataset:
    return Dataset(np.random.default_rng(seed).uniform(size=(n, d)))


class TestPrefixCountKernel:
    def test_prefix_count_matches_manual_scan(self):
        op = GetNextRandomized(
            _dataset(30, 3, seed=1), rng=np.random.default_rng(2)
        )
        op.observe(400)
        tally = op.tally
        prefix = list(tally.unpack(next(iter(tally.counts)))[:3])
        expected = sum(
            count
            for key, count in tally.counts.items()
            if list(tally.unpack(key)[:3]) == prefix
        )
        assert tally.prefix_count(prefix) == expected > 0

    def test_full_length_prefix_equals_count_of(self):
        op = GetNextRandomized(
            _dataset(8, 2, seed=3), rng=np.random.default_rng(4)
        )
        op.observe(300)
        tally = op.tally
        for key in list(tally.counts)[:5]:
            ids = list(tally.unpack(key))
            assert tally.prefix_count(ids) == tally.count_of(key)

    def test_prefix_length_validation(self):
        op = GetNextRandomized(
            _dataset(10, 2, seed=5), rng=np.random.default_rng(6)
        )
        op.observe(50)
        with pytest.raises(ValueError):
            op.tally.prefix_count([])
        with pytest.raises(ValueError):
            op.tally.prefix_count(list(range(11)))


class TestPrefixFastPath:
    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(6, 40),
        d=st.integers(2, 4),
        p=st.integers(1, 5),
        seed=st.integers(0, 2**20),
        budget=st.sampled_from([200, 500]),
    )
    def test_agrees_exactly_with_dedicated_topk_ranked_pool(
        self, n, d, p, seed, budget
    ):
        """Same rng stream => byte-identical estimate, by construction."""
        p = min(p, n - 1)
        dataset = _dataset(n, d, seed=seed % 1000)
        full = GetNextRandomized(
            dataset, kind="full", rng=np.random.default_rng(seed)
        )
        dedicated = GetNextRandomized(
            dataset, kind="topk_ranked", k=p, rng=np.random.default_rng(seed)
        )
        full.observe(budget)
        dedicated.observe(budget)
        probe = list(dedicated.top_from_pool(1)[0].ranking.order)
        fast = full.stability_of(probe, min_samples=budget)
        slow = dedicated.stability_of(probe, min_samples=budget)
        assert fast.stability == slow.stability
        assert fast.sample_count == slow.sample_count
        assert fast.confidence_error == slow.confidence_error
        assert list(fast.ranking.order) == probe

    def test_agrees_with_current_path_at_full_length(self):
        """A full-length 'prefix' degrades to the exact-key estimate."""
        dataset = _dataset(7, 3, seed=9)
        op = GetNextRandomized(dataset, rng=np.random.default_rng(10))
        op.observe(600)
        ranking = list(op.top_from_pool(1)[0].ranking.order)
        by_key = op.stability_of(ranking, min_samples=600)
        by_prefix_count = op.tally.prefix_count(ranking)
        assert by_key.sample_count == by_prefix_count

    def test_unseen_prefix_reports_zero_without_sampling(self):
        dataset = _dataset(200, 3, seed=11)
        op = GetNextRandomized(dataset, rng=np.random.default_rng(12))
        op.observe(500)
        before = op.total_samples
        # The *reverse* of the most stable prefix is (essentially
        # always) never observed; the estimate is 0 with no new draws.
        probe = list(op.top_from_pool(1)[0].ranking.order[:4])
        result = op.stability_of(probe[::-1], min_samples=500)
        assert op.total_samples == before
        assert result.sample_count in (0, op.tally.prefix_count(probe[::-1]))

    def test_monotone_in_prefix_depth(self):
        """P(prefix of length p) >= P(prefix of length p+1), exactly."""
        dataset = _dataset(50, 3, seed=13)
        op = GetNextRandomized(dataset, rng=np.random.default_rng(14))
        op.observe(800)
        probe = list(op.top_from_pool(1)[0].ranking.order)
        counts = [
            op.stability_of(probe[:depth], min_samples=800).sample_count
            for depth in range(1, 6)
        ]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] > 0

    def test_topk_kinds_still_reject_wrong_lengths(self):
        dataset = _dataset(12, 3, seed=15)
        op = GetNextRandomized(
            dataset, kind="topk_ranked", k=4, rng=np.random.default_rng(16)
        )
        op.observe(100)
        with pytest.raises(ValueError):
            op.stability_of([0, 1], min_samples=100)


class TestSessionPrefixDispatch:
    def test_full_prefix_routes_to_randomized_and_is_cached(self):
        dataset = _dataset(60, 3, seed=17)
        with StabilitySession(dataset, seed=18, executor="serial") as session:
            result = session.stability_of([0, 1, 2], kind="full",
                                          min_samples=300)
            assert session.last_query_cached is False
            configs = session.stats()["configs"]
            assert list(configs) == ["full@randomized"]
            assert configs["full@randomized"]["total_samples"] == 300
            again = session.stability_of([0, 1, 2], kind="full",
                                         min_samples=300)
            assert session.last_query_cached is True
            assert again.stability == result.stability

    def test_warm_full_pool_answers_prefixes_without_growth(self):
        """The serving win: an existing pool answers prefix queries."""
        dataset = _dataset(60, 3, seed=19)
        with StabilitySession(dataset, seed=20, executor="serial") as session:
            best = session.top_stable(1, kind="full", backend="randomized",
                                      budget=500)[0]
            assert (
                session.stats()["configs"]["full@randomized"]["total_samples"]
                == 500
            )
            prefix = list(best.ranking.order[:3])
            result = session.stability_of(prefix, kind="full",
                                          min_samples=400)
            # Answered from the warm pool — no second configuration,
            # no extra sampling.
            configs = session.stats()["configs"]
            assert list(configs) == ["full@randomized"]
            assert configs["full@randomized"]["total_samples"] == 500
            assert result.sample_count > 0

    def test_batch_planner_plans_prefix_queries_on_the_full_pool(self):
        dataset = _dataset(60, 3, seed=21)
        requests = [
            {"op": "top_stable", "m": 1, "kind": "full",
             "backend": "randomized", "budget": 400},
            {"op": "stability_of", "kind": "full", "ranking": [0, 1],
             "min_samples": 400},
        ]
        with StabilitySession(dataset, seed=22, executor="serial") as session:
            outcomes = session.run_batch(requests)
            assert all(outcome.ok for outcome in outcomes)
            configs = session.stats()["configs"]
            # One shared configuration, prefilled exactly once.
            assert list(configs) == ["full@randomized"]
            assert configs["full@randomized"]["total_samples"] == 400

    def test_full_length_rankings_still_use_the_exact_backends(self):
        """The dispatch rule only fires for true prefixes."""
        dataset = _dataset(12, 2, seed=23)
        with StabilitySession(dataset, seed=24, executor="serial") as session:
            ranking = session.top_stable(1)[0].ranking
            session.stability_of(list(ranking.order), kind="full")
            configs = session.stats()["configs"]
            assert "full@twod_exact" in configs


class TestPrefixValidation:
    def test_out_of_range_prefix_ids_are_a_value_error(self):
        dataset = _dataset(50, 3, seed=25)
        op = GetNextRandomized(dataset, rng=np.random.default_rng(26))
        op.observe(100)
        for bad in ([70_000], [-1], [0, 50]):
            with pytest.raises(ValueError, match="prefix ids"):
                op.stability_of(bad, min_samples=100)

    def test_out_of_range_ids_classify_as_bad_request(self):
        from repro import StabilitySession
        from repro.server import protocol

        dataset = _dataset(50, 3, seed=27)
        with StabilitySession(dataset, seed=28, executor="serial") as session:
            handled = protocol.dispatch(
                session,
                dataset,
                {"op": "stability_of", "kind": "full", "ranking": [70_000],
                 "min_samples": 100},
            )
        assert handled.response["error"]["code"] == "bad_request"
