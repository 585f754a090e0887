"""Precision budgets: the spec grammar, the controller, and the session."""

import numpy as np
import pytest

from repro import Dataset
from repro.core.randomized import GetNextRandomized
from repro.errors import BudgetExceededError
from repro.sampling.montecarlo import confidence_error
from repro.service.batch import BatchPlanner, StabilityRequest, execute_batch
from repro.service.budget import (
    DEFAULT_PRECISION_CAP,
    PrecisionBudget,
    ensure_precision,
    parse_budget,
    precision_satisfied,
)
from repro.service.session import StabilitySession


def _dataset(seed=0, n=25, d=3):
    rng = np.random.default_rng(seed)
    return Dataset(rng.uniform(0.05, 1.0, size=(n, d)))


class TestParseBudget:
    def test_none_and_instances_pass_through(self):
        assert parse_budget(None) is None
        budget = PrecisionBudget(0.05)
        assert parse_budget(budget) is budget

    def test_plain_ints(self):
        assert parse_budget(5_000) == 5_000
        assert parse_budget("5000") == 5_000

    @pytest.mark.parametrize("bad", [0, -3, "0", True, False, 2.5, [5]])
    def test_bad_values_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_budget(bad)

    def test_ci_spec(self):
        budget = parse_budget("ci:0.02")
        assert budget == PrecisionBudget(0.02)
        assert budget.max_samples == DEFAULT_PRECISION_CAP

    def test_ci_spec_with_cap(self):
        assert parse_budget("ci:0.02@200000") == PrecisionBudget(0.02, 200_000)

    def test_spec_roundtrip(self):
        for budget in (PrecisionBudget(0.02), PrecisionBudget(0.1, 50_000)):
            assert parse_budget(budget.spec) == budget
            assert parse_budget(str(budget)) == budget

    @pytest.mark.parametrize(
        "bad", ["ci:", "ci:zero", "ci:0.02@", "ci:0.02@many", "soon", ""]
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_budget(bad)

    @pytest.mark.parametrize("width", [0.0, 1.0, -0.5, 1.5])
    def test_width_bounds(self, width):
        with pytest.raises(ValueError):
            PrecisionBudget(width)

    def test_cap_bounds(self):
        with pytest.raises(ValueError):
            PrecisionBudget(0.1, 0)


class TestController:
    def test_converges_to_width(self):
        op = GetNextRandomized(_dataset(3), rng=np.random.default_rng(1))
        budget = PrecisionBudget(0.03)
        total = ensure_precision(op, budget, op.observe, confidence=0.95)
        assert total == op.total_samples
        assert precision_satisfied(op, budget, confidence=0.95)
        keys = op._tally.top_keys(1)
        stability = op._tally.count_of(keys[0]) / op.total_samples
        assert confidence_error(stability, op.total_samples) <= budget.width

    def test_satisfied_budget_observes_nothing(self):
        op = GetNextRandomized(_dataset(3), rng=np.random.default_rng(1))
        budget = PrecisionBudget(0.05)
        total = ensure_precision(op, budget, op.observe, confidence=0.95)

        def forbidden(n):
            raise AssertionError("a satisfied budget must not observe")

        assert (
            ensure_precision(op, budget, forbidden, confidence=0.95) == total
        )

    def test_cap_raises_budget_exceeded(self):
        op = GetNextRandomized(_dataset(3), rng=np.random.default_rng(1))
        with pytest.raises(BudgetExceededError):
            ensure_precision(
                op,
                PrecisionBudget(0.0001, max_samples=2_000),
                op.observe,
                confidence=0.95,
            )
        assert op.total_samples <= 2_000

    def test_empty_pool_not_satisfied(self):
        op = GetNextRandomized(_dataset(3), rng=np.random.default_rng(1))
        assert not precision_satisfied(
            op, PrecisionBudget(0.5), confidence=0.95
        )


class TestSessionPrecision:
    def test_top_stable_meets_width(self):
        with StabilitySession(_dataset(5), seed=3) as session:
            results = session.top_stable(
                2, kind="topk_set", k=3, budget="ci:0.04"
            )
            assert results[0].confidence_error <= 0.04

    def test_session_default_budget_spec(self):
        with StabilitySession(_dataset(5), seed=3, budget="ci:0.05") as session:
            result = session.top_stable(1, kind="topk_set", k=3)[0]
            assert result.confidence_error <= 0.05

    def test_precision_query_is_idempotent_and_cached(self):
        with StabilitySession(_dataset(5), seed=3) as session:
            first = session.top_stable(2, kind="topk_set", k=3, budget="ci:0.05")
            assert not session.last_query_cached
            pool = session.stats()["configs"]["topk_set:k=3@randomized"][
                "total_samples"
            ]
            second = session.top_stable(2, kind="topk_set", k=3, budget="ci:0.05")
            assert session.last_query_cached
            assert [r.stability for r in second] == [r.stability for r in first]
            assert (
                session.stats()["configs"]["topk_set:k=3@randomized"][
                    "total_samples"
                ]
                == pool
            )

    def test_tighter_width_grows_pool(self):
        with StabilitySession(_dataset(5), seed=3) as session:
            session.top_stable(1, kind="topk_set", k=3, budget="ci:0.1")
            loose = session.stats()["configs"]["topk_set:k=3@randomized"][
                "total_samples"
            ]
            session.top_stable(1, kind="topk_set", k=3, budget="ci:0.02")
            tight = session.stats()["configs"]["topk_set:k=3@randomized"][
                "total_samples"
            ]
            assert tight > loose

    def test_warm_read_classification(self):
        with StabilitySession(_dataset(5), seed=3) as session:
            assert not session.query_is_warm_read(
                "top_stable", kind="topk_set", k=3, budget="ci:0.05"
            )
            session.top_stable(1, kind="topk_set", k=3, budget="ci:0.05")
            assert session.query_is_warm_read(
                "top_stable", kind="topk_set", k=3, budget="ci:0.05"
            )
            # A tighter target over the same pool is a pool-growing write.
            assert not session.query_is_warm_read(
                "top_stable", kind="topk_set", k=3, budget="ci:0.001"
            )

    def test_observe_accepts_spec(self):
        with StabilitySession(_dataset(5), seed=3) as session:
            session.observe("ci:0.06", kind="topk_set", k=3)
            assert session.query_is_warm_read(
                "top_stable", kind="topk_set", k=3, budget="ci:0.06"
            )

    def test_budget_exceeded_surfaces(self):
        with StabilitySession(_dataset(5), seed=3) as session:
            with pytest.raises(BudgetExceededError):
                session.top_stable(
                    1, kind="topk_set", k=3, budget="ci:0.0001@1500"
                )


class TestBatchPrecision:
    def test_requests_parse_specs_eagerly(self):
        request = StabilityRequest(
            op="top_stable", kind="topk_set", k=3, budget="ci:0.05"
        )
        assert request.budget == PrecisionBudget(0.05)
        with pytest.raises(ValueError):
            StabilityRequest(op="top_stable", budget="ci:huh")

    def test_planner_separates_precision_targets(self):
        with StabilitySession(_dataset(5), seed=3) as session:
            planner = BatchPlanner(session)
            plan = planner.plan(
                [
                    StabilityRequest(
                        op="top_stable", kind="topk_set", k=3, budget=2_000
                    ),
                    StabilityRequest(
                        op="top_stable", kind="topk_set", k=3, budget="ci:0.08"
                    ),
                    StabilityRequest(
                        op="top_stable", kind="topk_set", k=3, budget="ci:0.05"
                    ),
                ]
            )
            key = ("topk_set", 3, "randomized")
            assert plan == {key: 2_000}
            # Tightest width wins the precision prefill.
            assert planner.precision_targets == {key: PrecisionBudget(0.05)}

    def test_mixed_batch_executes(self):
        with StabilitySession(_dataset(5), seed=3) as session:
            outcomes = execute_batch(
                session,
                [
                    {"op": "top_stable", "kind": "topk_set", "k": 3, "m": 1,
                     "budget": 1_500},
                    {"op": "top_stable", "kind": "topk_set", "k": 3, "m": 1,
                     "budget": "ci:0.05"},
                ],
            )
            assert all(outcome.ok for outcome in outcomes)
            assert outcomes[1].value[0].confidence_error <= 0.05

    def test_unreachable_precision_fails_only_its_request(self):
        with StabilitySession(_dataset(5), seed=3) as session:
            outcomes = execute_batch(
                session,
                [
                    {"op": "top_stable", "kind": "topk_set", "k": 3, "m": 1,
                     "budget": "ci:0.0001@1500"},
                    {"op": "top_stable", "kind": "topk_set", "k": 3, "m": 1,
                     "budget": 1_000},
                ],
            )
            assert not outcomes[0].ok
            assert isinstance(outcomes[0].error, BudgetExceededError)
            assert outcomes[1].ok


class TestSnapshotPrecisionHint:
    def test_budget_hint_roundtrips(self, tmp_path):
        path = tmp_path / "precision.snap"
        ds = _dataset(5)
        with StabilitySession(ds, seed=3, budget="ci:0.05") as session:
            session.top_stable(1, kind="topk_set", k=3)
            session.save(path)
        with StabilitySession.restore(path, ds) as restored:
            assert restored.config.budget == PrecisionBudget(0.05)
            result = restored.top_stable(1, kind="topk_set", k=3)
            assert restored.last_query_cached
            assert result[0].confidence_error <= 0.05
