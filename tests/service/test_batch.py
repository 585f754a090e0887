"""Batch planner: amortization and batch-vs-sequential equivalence."""

import numpy as np
import pytest

from repro import Dataset, StabilityRequest, StabilitySession, execute_batch
from repro.service.batch import BatchPlanner


@pytest.fixture
def ds_md(rng_factory):
    return Dataset(rng_factory(40).uniform(size=(250, 3)))


def _mixed(budget=1_000):
    return [
        StabilityRequest(op="top_stable", m=2, kind="topk_set", k=4,
                         backend="randomized", budget=budget),
        StabilityRequest(op="get_next", kind="topk_set", k=4,
                         backend="randomized", budget=budget),
        StabilityRequest(op="top_stable", m=3, kind="topk_ranked", k=3,
                         backend="randomized", budget=budget),
        StabilityRequest(op="get_next", kind="topk_ranked", k=3,
                         backend="randomized", budget=budget),
    ]


def _flatten(outcomes):
    out = []
    for o in outcomes:
        assert o.ok, o.error
        values = o.value if isinstance(o.value, list) else [o.value]
        out.extend(
            (r.ranking.order, r.stability, r.sample_count) for r in values
        )
    return out


class TestEquivalence:
    def test_batch_matches_sequential_execution(self, ds_md):
        requests = _mixed()
        with StabilitySession(ds_md, seed=11, executor="serial") as batched:
            batch_out = execute_batch(batched, requests)
        with StabilitySession(ds_md, seed=11, executor="serial") as sequential:
            seq_out = []
            for req in requests:
                if req.op == "top_stable":
                    value = sequential.top_stable(
                        req.m, kind=req.kind, k=req.k,
                        backend=req.backend, budget=req.budget,
                    )
                else:
                    value = sequential.get_next(
                        kind=req.kind, k=req.k,
                        backend=req.backend, budget=req.budget,
                    )
                seq_out.append(value)
        flat_batch = _flatten(batch_out)
        flat_seq = []
        for value in seq_out:
            values = value if isinstance(value, list) else [value]
            flat_seq.extend(
                (r.ranking.order, r.stability, r.sample_count) for r in values
            )
        assert flat_batch == flat_seq

    def test_stability_of_in_batch_matches_direct(self, ds_md):
        with StabilitySession(ds_md, seed=12, executor="serial") as session:
            top = session.top_stable(
                1, kind="topk_set", k=4, backend="randomized", budget=1_000
            )[0]
            ids = tuple(sorted(top.top_k_set))
        with StabilitySession(ds_md, seed=12, executor="serial") as direct:
            expected = direct.stability_of(
                ids, kind="topk_set", k=4, backend="randomized",
                min_samples=1_000,
            )
        with StabilitySession(ds_md, seed=12, executor="serial") as batched:
            (outcome,) = execute_batch(
                batched,
                [StabilityRequest(op="stability_of", kind="topk_set", k=4,
                                  backend="randomized", ranking=ids,
                                  min_samples=1_000)],
            )
        assert outcome.ok
        assert outcome.value.stability == expected.stability
        assert outcome.value.sample_count == expected.sample_count


class TestAmortization:
    def test_one_pool_fill_per_configuration(self, ds_md):
        requests = _mixed(budget=1_200)
        with StabilitySession(ds_md, seed=13, executor="serial") as session:
            execute_batch(session, requests)
            stats = session.stats()["configs"]
        # Two configurations, each filled once to the group maximum —
        # not once per request.
        assert stats["topk_set:k=4@randomized"]["total_samples"] == 1_200
        assert stats["topk_ranked:k=3@randomized"]["total_samples"] == 1_200

    def test_planner_groups_by_config_with_max_target(self, ds_md):
        with StabilitySession(ds_md, seed=14, executor="serial") as session:
            planner = BatchPlanner(session)
            targets = planner.plan([
                StabilityRequest(op="get_next", kind="topk_set", k=4,
                                 backend="randomized", budget=500),
                StabilityRequest(op="top_stable", m=2, kind="topk_set", k=4,
                                 backend="randomized", budget=2_000),
                StabilityRequest(op="top_stable", m=1, kind="full",
                                 backend="randomized", budget=800),
            ])
        assert targets == {
            ("topk_set", 4, "randomized"): 2_000,
            ("full", None, "randomized"): 800,
        }

    def test_exact_configs_excluded_from_prefill(self, paper_dataset):
        with StabilitySession(paper_dataset, seed=15) as session:
            planner = BatchPlanner(session)
            targets = planner.plan([
                StabilityRequest(op="top_stable", m=2),  # twod_exact
                StabilityRequest(op="top_stable", m=2, kind="topk_set", k=2),
            ])
            assert targets == {}
            outcomes = planner.execute([
                StabilityRequest(op="top_stable", m=2),
                StabilityRequest(op="top_stable", m=2, kind="topk_set", k=2),
            ])
        assert all(o.ok for o in outcomes)
        assert len(outcomes[0].value) == 2

    def test_default_budget_schedule_used_without_explicit_budget(self, ds_md):
        with StabilitySession(
            ds_md, seed=16, budget=1_000, executor="serial"
        ) as session:
            execute_batch(session, [
                StabilityRequest(op="top_stable", m=3, kind="topk_set", k=4,
                                 backend="randomized"),
            ])
            raw = session.engine_for("topk_set", 4, "randomized").backend.raw
            # first + (m-1) * first/5 = 1000 + 2*200
            assert raw.total_samples == 1_400


class TestRobustness:
    def test_request_validation(self):
        with pytest.raises(ValueError):
            StabilityRequest(op="teleport")
        with pytest.raises(ValueError):
            StabilityRequest(op="stability_of")  # no ranking
        with pytest.raises(ValueError):
            StabilityRequest(op="top_stable", m=0)
        with pytest.raises(ValueError):
            StabilityRequest.from_dict({"op": "get_next", "bogus": 1})

    def test_dict_requests_accepted(self, ds_md):
        with StabilitySession(ds_md, seed=17, executor="serial") as session:
            outcomes = execute_batch(session, [
                {"op": "top_stable", "m": 1, "kind": "topk_set", "k": 3,
                 "backend": "randomized", "budget": 500},
            ])
        assert outcomes[0].ok

    def test_failures_isolated_per_request(self, ds_md):
        with StabilitySession(ds_md, seed=18, executor="serial") as session:
            outcomes = execute_batch(session, [
                StabilityRequest(op="top_stable", m=1, kind="topk_set", k=3,
                                 backend="randomized", budget=500),
                # Wrong key length for the configuration: fails alone.
                StabilityRequest(op="stability_of", kind="topk_set", k=3,
                                 backend="randomized", ranking=(0, 1),
                                 min_samples=500),
                StabilityRequest(op="get_next", kind="topk_set", k=3,
                                 backend="randomized", budget=500),
            ])
        assert outcomes[0].ok and outcomes[2].ok
        assert not outcomes[1].ok
        assert isinstance(outcomes[1].error, ValueError)

    def test_cached_flag_reported(self, ds_md):
        request = StabilityRequest(op="top_stable", m=1, kind="topk_set", k=3,
                                   backend="randomized", budget=500)
        with StabilitySession(ds_md, seed=19, executor="serial") as session:
            first = execute_batch(session, [request])
            second = execute_batch(session, [request])
        assert first[0].cached is False
        assert second[0].cached is True
        assert second[0].value[0].stability == first[0].value[0].stability

    def test_parseable_but_invalid_config_isolated(self, ds_md):
        # k=None is a legal *field* value but an invalid top-k config;
        # engine creation fails in the planner, which must skip it and
        # let execute() report the error per-request (code-review fix).
        with StabilitySession(ds_md, seed=23, executor="serial") as session:
            outcomes = execute_batch(session, [
                StabilityRequest(op="get_next", kind="full",
                                 backend="randomized", budget=300),
                StabilityRequest(op="top_stable", m=2, kind="topk_set",
                                 backend="randomized", budget=300),  # no k
            ])
        assert outcomes[0].ok
        assert not outcomes[1].ok
        assert isinstance(outcomes[1].error, ValueError)

    def test_unparseable_request_isolated(self, ds_md):
        with StabilitySession(ds_md, seed=24, executor="serial") as session:
            outcomes = execute_batch(session, [
                {"op": "teleport"},
                {"op": "top_stable", "m": 1, "kind": "topk_set", "k": 3,
                 "backend": "randomized", "budget": 300},
            ])
        assert not outcomes[0].ok and outcomes[0].request == {"op": "teleport"}
        assert outcomes[1].ok
