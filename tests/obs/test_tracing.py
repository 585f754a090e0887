"""Tracing core: span trees, merge records, the disabled fast path,
and the two acceptance properties the subsystem ships with — traced
answers are byte-identical to untraced ones, and the disabled-path
instrumentation cost stays under 2% of a 10K-item observe.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro import Dataset, obs
from repro.core.randomized import GetNextRandomized
from repro.obs import tracing as obs_trace


def _operator(n: int = 400, seed: int = 11) -> GetNextRandomized:
    dataset = Dataset(np.random.default_rng(20180905).uniform(size=(n, 3)))
    return GetNextRandomized(
        dataset, kind="topk_set", k=5, rng=np.random.default_rng(seed)
    )


class TestSpanTree:
    def test_nested_spans_build_a_tree(self):
        with obs.trace("root") as t:
            with obs.span("outer", n=10) as outer:
                outer.set(extra="yes")
                with obs.span("inner"):
                    pass
        assert [c.name for c in t.root.children] == ["outer"]
        outer = t.root.children[0]
        assert outer.fields == {"n": 10, "extra": "yes"}
        assert [c.name for c in outer.children] == ["inner"]
        assert outer.seconds >= outer.children[0].seconds >= 0.0

    def test_record_merges_same_name_under_one_parent(self):
        with obs.trace("root") as t:
            obs.record("observe.reduce", 0.25, count=3, kernel="numpy")
            obs.record("observe.reduce", 0.75, count=2)
            obs.record("observe.sample", 0.5)
        stages = {s["name"]: s for s in t.stages()}
        assert stages["observe.reduce"]["seconds"] == 1.0
        assert stages["observe.reduce"]["count"] == 5
        assert stages["observe.sample"]["count"] == 1

    def test_stages_flatten_in_first_seen_order(self):
        with obs.trace("root") as t:
            with obs.span("a"):
                obs.record("b", 0.1)
            obs.record("b", 0.1)
        assert [s["name"] for s in t.stages()] == ["a", "b"]
        assert {s["name"]: s["count"] for s in t.stages()}["b"] == 2

    def test_add_stage_grafts_external_timings(self):
        with obs.trace("root") as t:
            time.sleep(0.001)
        t.add_stage("server.lock_wait", 0.002)
        assert any(s["name"] == "server.lock_wait" for s in t.stages())

    def test_stage_report_schema(self):
        with obs.trace("root") as t:
            obs.record("stage", 0.01)
        report = obs.stage_report(t)
        assert set(report) == {"total_seconds", "coverage", "stages"}
        assert report["total_seconds"] > 0
        assert 0.0 <= report["coverage"] <= 1.0
        (stage,) = report["stages"]
        assert set(stage) == {"name", "seconds", "count"}

    def test_explicit_trace_id_is_kept(self):
        with obs.trace("root", trace_id="abc123") as t:
            pass
        assert t.trace_id == "abc123"
        assert t.as_dict()["trace_id"] == "abc123"

    def test_coverage_clamps_to_one(self):
        with obs.trace("root") as t:
            pass
        t.add_stage("overlapping", t.root.seconds * 10 + 1.0)
        assert t.coverage() == 1.0


class TestDisabledFastPath:
    def test_disabled_span_is_the_shared_null_singleton(self):
        assert not obs.tracing_enabled()
        assert obs.span("anything", n=1) is obs_trace._NULL_SPAN
        assert obs.span("other") is obs_trace._NULL_SPAN
        with obs.span("noop") as s:
            s.set(ignored=True)  # no-op, no error
        assert obs.current_trace() is None
        obs.record("noop", 1.0)  # swallowed

    def test_enabled_only_inside_context(self):
        assert not obs.tracing_enabled()
        with obs.trace("root") as t:
            assert obs.tracing_enabled()
            assert obs.current_trace() is t
        assert not obs.tracing_enabled()
        assert obs.current_trace() is None

    def test_other_threads_stay_untraced(self):
        """A trace is scoped to the opening thread: concurrent threads
        get the null span even while the trace is globally active."""
        seen: list[object] = []

        def probe() -> None:
            seen.append(obs.span("cross-thread"))
            seen.append(obs.current_trace())

        with obs.trace("root") as t:
            worker = threading.Thread(target=probe)
            worker.start()
            worker.join()
        assert seen[0] is obs_trace._NULL_SPAN
        assert seen[1] is None
        assert t.root.children == []


class TestAnswersUnchanged:
    def test_traced_observe_is_byte_identical(self):
        untraced = _operator(seed=7)
        traced = _operator(seed=7)
        untraced.observe(1_500)
        with obs.trace("observe"):
            traced.observe(1_500)
        assert traced.total_samples == untraced.total_samples
        assert traced.tally.counts == untraced.tally.counts
        assert list(traced.tally.counts) == list(untraced.tally.counts)
        assert (
            traced.rng.bit_generator.state
            == untraced.rng.bit_generator.state
        )

    def test_traced_observe_covers_its_wall_clock(self):
        op = _operator(n=2_000, seed=3)
        with obs.trace("observe") as t:
            op.observe(4_000)
        report = obs.stage_report(t)
        assert report["coverage"] >= 0.9, report
        names = {s["name"] for s in report["stages"]}
        assert {"observe.sample", "observe.reduce", "observe.fold"} <= names


def test_disabled_overhead_within_budget():
    """Instrumentation with tracing off must cost <= 2% of a 10K-item
    observe.  Measured structurally: the per-call price of the disabled
    fast path (min over batches, so scheduler noise cannot inflate it)
    times a generous bound on calls per pass, against the pass itself.
    """
    op = _operator(n=10_000, seed=5)
    start = time.perf_counter()
    op.observe(2_048)  # 4 chunks at the default 512 chunk size
    observe_seconds = time.perf_counter() - start

    calls = 10_000
    per_call = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(calls):
            obs.span("observe.pass")
            obs.record("observe.reduce", 0.0)
            obs_trace.tracing_enabled()
        per_call = min(
            per_call, (time.perf_counter() - start) / (3 * calls)
        )
    # The instrumented pass makes ~3 guarded calls per chunk plus a
    # handful of per-pass spans; 100 is an order of magnitude above it.
    overhead = 100 * per_call
    assert overhead <= 0.02 * observe_seconds, (
        f"disabled-path instrumentation {overhead * 1e6:.1f} us vs "
        f"observe {observe_seconds * 1e3:.1f} ms"
    )
