"""Query cost attribution through the session and batch layers, the
extended ``stats()`` surface, ``explain()``, and the trace-coverage
acceptance floor across executors."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Dataset, StabilitySession, execute_batch, obs

BUDGET = 1_200
K = 5


@pytest.fixture
def dataset():
    return Dataset(np.random.default_rng(20180905).uniform(size=(250, 3)))


def _session(dataset, **fields):
    return StabilitySession(dataset, seed=7, executor="serial", **fields)


class TestQueryCost:
    def test_cold_query_draws_the_budget(self, dataset):
        with _session(dataset) as session:
            session.top_stable(3, kind="topk_set", k=K, budget=BUDGET)
            cost = session.last_query_cost
        assert cost["op"] == "top_stable"
        assert cost["backend"] == "randomized"
        assert cost["cached"] is False
        assert cost["samples_before"] == 0
        assert cost["samples_drawn"] == cost["samples_after"] > 0
        assert cost["pool_reused_fraction"] == 0.0
        assert cost["executor"] == "serial"
        assert cost["chunks"] == 0  # serial passes do not shard
        assert cost["kernel"] == "numpy"
        assert cost["sampling"] in ("mc", "qmc")

    def test_warm_repeat_is_a_cache_hit_with_zero_draw(self, dataset):
        with _session(dataset) as session:
            session.top_stable(3, kind="topk_set", k=K, budget=BUDGET)
            session.top_stable(3, kind="topk_set", k=K, budget=BUDGET)
            cost = session.last_query_cost
        assert cost["cached"] is True
        assert cost["samples_drawn"] == 0
        assert cost["pool_reused_fraction"] == 1.0
        assert cost["executor"] == "none"

    def test_exact_backend_reports_minimal_cost(self):
        dataset = Dataset(
            np.random.default_rng(3).uniform(size=(40, 2))
        )
        with _session(dataset) as session:
            session.top_stable(2, kind="full")  # d=2 -> exact sweep
            cost = session.last_query_cost
        assert cost["op"] == "top_stable"
        assert cost["backend"] == "twod_exact"
        assert cost["cached"] is False
        assert "samples_drawn" not in cost

    def test_precision_budget_reports_target_and_ci_width(self, dataset):
        with _session(dataset) as session:
            session.top_stable(2, kind="topk_set", k=K, budget="ci:0.2@2000")
            cost = session.last_query_cost
        assert cost["target"] == "ci:0.2@2000"
        assert 0.0 < cost["ci_width"] <= 1.0

    def test_totals_accumulate_across_queries(self, dataset):
        with _session(dataset) as session:
            session.top_stable(3, kind="topk_set", k=K, budget=BUDGET)
            session.top_stable(3, kind="topk_set", k=K, budget=BUDGET)
            totals = session.stats()["cost"]
        assert totals["queries"] == 2
        assert totals["cache_hits"] == 1
        assert totals["cache_misses"] == 1
        assert totals["samples_drawn"] > 0


class TestBatchCost:
    def test_prefill_is_attributed_to_the_first_request(self, dataset):
        """The planner grows pools *before* answering; the drawn samples
        must land on the first request of that configuration, not vanish
        as pre-existing pool."""
        requests = [
            {"op": "top_stable", "m": 3, "kind": "topk_set", "k": K,
             "backend": "randomized", "budget": BUDGET},
            {"op": "top_stable", "m": 2, "kind": "topk_set", "k": K,
             "backend": "randomized", "budget": BUDGET},
        ]
        with _session(dataset) as session:
            outcomes = execute_batch(session, requests)
            assert all(o.ok for o in outcomes)
            first, second = (o.cost for o in outcomes)
            totals = dict(session.stats()["cost"])
        assert first["samples_drawn"] > 0
        assert first["samples_before"] == 0
        assert first["executor"] != "none"
        # The second request rides the shared pool entirely.
        assert second["samples_drawn"] == 0
        assert second["pool_reused_fraction"] == 1.0
        # Conservation: session totals match the per-request records.
        assert totals["samples_drawn"] == first["samples_drawn"]

    def test_batch_outcomes_carry_cost_records(self, dataset):
        requests = [
            {"op": "get_next", "kind": "topk_set", "k": K,
             "backend": "randomized", "budget": BUDGET},
        ]
        with _session(dataset) as session:
            (outcome,) = execute_batch(session, requests)
        assert outcome.ok and outcome.cost["op"] == "get_next"


class TestStatsAndExplain:
    def test_stats_extended_surface(self, dataset):
        with _session(dataset) as session:
            session.top_stable(3, kind="topk_set", k=K, budget=BUDGET)
            session.top_stable(3, kind="topk_set", k=K, budget=BUDGET)
            stats = session.stats()
        assert stats["uptime_seconds"] >= 0.0
        assert stats["executor"] == "serial"
        assert stats["executor_workers"] >= 1
        assert stats["kernel"] == "numpy"
        assert stats["sampling"] == "mc"
        assert stats["cache_session"] == {
            "hits": 1, "misses": 1, "hit_rate": 0.5,
        }
        assert stats["pool_bytes"] > 0
        assert stats["cache_bytes"] > 0
        (pool,) = stats["configs"].values()
        assert pool["kernel"] == "numpy"
        assert pool["pool_bytes"] > 0
        assert pool["total_samples"] == BUDGET

    def test_explain_cold_config_is_a_pure_read(self, dataset):
        query = {"op": "top_stable", "m": 3, "kind": "topk_set", "k": K,
                 "backend": "randomized", "budget": BUDGET}
        with _session(dataset) as session:
            plan = session.explain(query)
            assert plan["materialized"] is False
            assert plan["randomized"] is True
            assert plan["pool_samples"] == 0
            assert plan["warm_read"] is False
            # Explaining must not have built the engine or pool.
            assert session.stats()["configs"] == {}

    def test_explain_warm_config_reports_pool_and_warm_read(self, dataset):
        query = {"op": "top_stable", "m": 3, "kind": "topk_set", "k": K,
                 "backend": "randomized", "budget": BUDGET}
        with _session(dataset) as session:
            session.top_stable(3, kind="topk_set", k=K, budget=BUDGET)
            plan = session.explain(query)
        assert plan["materialized"] is True
        assert plan["pool_samples"] == BUDGET
        assert plan["warm_read"] is True
        assert plan["kernel"] == "numpy"


class TestTraceCoverage:
    """Acceptance floor: a traced cold ``top_stable`` accounts for
    >= 90% of its wall-clock, on every executor."""

    def _coverage(self, dataset, **fields) -> dict:
        with StabilitySession(dataset, seed=7, **fields) as session:
            with obs.trace("query") as t:
                session.top_stable(3, kind="topk_set", k=K, budget=6_000)
        return obs.stage_report(t)

    def test_serial(self, dataset):
        report = self._coverage(dataset, executor="serial")
        assert report["coverage"] >= 0.9, report

    def test_thread(self, dataset):
        report = self._coverage(dataset, executor="thread", max_workers=2)
        assert report["coverage"] >= 0.9, report
        names = {s["name"] for s in report["stages"]}
        assert "observe.pass" in names

    def test_auto(self, dataset):
        report = self._coverage(dataset, executor="auto", max_workers=2)
        assert report["coverage"] >= 0.9, report
        names = {s["name"] for s in report["stages"]}
        assert "observe.pass" in names
