"""Diagnosability over the wire: the ``diag`` and ``profile`` ops, the
slow-query/trace join, SLO surfacing in ``stats`` and ``/metrics``,
file-based diag dumps, and gauge re-registration across server cycles."""

from __future__ import annotations

import json
import threading
import time

from server_testlib import make_dataset, running_server

from repro.obs.flight import DIAG_SCHEMA
from repro.obs.promlint import lint
from repro.server import (
    ServeClient,
    ServerConfig,
    SessionRegistry,
    serve_in_thread,
)
from repro.server.metrics import ServerMetrics

QUERY = {
    "op": "top_stable", "m": 3, "kind": "topk_set", "k": 5,
    "backend": "randomized", "budget": 800,
}


class TestDiagOp:
    def test_bundle_carries_all_rings_and_a_metrics_snapshot(self, dataset):
        with running_server(dataset, flight_metrics_interval=0.2) as handle:
            with ServeClient(host=handle.host, port=handle.port) as client:
                client.request(dict(QUERY))
                response = client.diag()
        assert response["ok"] is True
        assert response["flight"] is True
        bundle = response["diag"]
        assert bundle["schema"] == DIAG_SCHEMA
        assert bundle["reason"] == "wire"
        # The diag handler injects the live metrics snapshot, so even a
        # bundle taken before the periodic sampler ticks has >= 1.
        assert len(bundle["metrics"]) >= 1
        assert bundle["metrics"][-1]["requests_total"]["top_stable"] >= 1
        assert "slo" not in bundle  # no --slo configured
        json.dumps(bundle)

    def test_slow_query_ring_joins_with_the_wire_trace(self, dataset):
        """With a zero slow-query threshold every request is 'slow';
        a traced request's ring record must carry its trace_id."""
        with running_server(dataset, slow_query_seconds=0.0) as handle:
            with ServeClient(host=handle.host, port=handle.port) as client:
                traced = client.request(
                    dict(QUERY, trace=True, trace_id="join-me")
                )
                bundle = client.diag()["diag"]
        assert traced["trace"]["trace_id"] == "join-me"
        slow = bundle["slow_queries"]
        assert slow, "zero threshold but no slow-query records"
        record = next(r for r in slow if r.get("trace_id") == "join-me")
        assert record["op"] == "top_stable"
        assert record["threshold"] == 0.0
        assert record["dataset"] == "default"
        # The same trace's stage report landed in the traces ring too.
        assert any(
            t.get("trace_id") == "join-me" for t in bundle["traces"]
        )

    def test_diag_without_flight_reports_disabled(self, dataset):
        with running_server(dataset, flight=False) as handle:
            with ServeClient(host=handle.host, port=handle.port) as client:
                response = client.diag()
        assert response["ok"] is True
        assert response["flight"] is False
        assert response["diag"] is None


class TestProfileOp:
    def test_start_work_stop_yields_stacks(self, dataset):
        with running_server(dataset) as handle:
            with ServeClient(host=handle.host, port=handle.port) as client:
                started = client.profile("start", hz=250)
                assert started["ok"] is True
                assert started["profile"]["running"] is True
                deadline = time.monotonic() + 5.0
                budget = 2_000
                while time.monotonic() < deadline:
                    client.request(dict(QUERY, budget=budget))
                    budget += 100  # cache-busting: keep the server busy
                    if client.profile("status")["profile"]["samples"] >= 5:
                        break
                stopped = client.profile("stop")
                bundle = client.diag()["diag"]
        profile = stopped["profile"]
        assert profile["running"] is False
        assert profile["samples"] >= 5
        assert profile["stacks"], "busy server produced no stacks"
        # The stopped profiler's stacks persist into later diag bundles.
        assert bundle["profile"]["stacks"] == profile["stacks"]

    def test_bad_profile_requests_are_rejected(self, dataset):
        with running_server(dataset) as handle:
            with ServeClient(host=handle.host, port=handle.port) as client:
                for payload in (
                    {"op": "profile", "action": "dance"},
                    {"op": "profile", "action": "start", "hz": "fast"},
                    {"op": "profile", "action": "start", "hz": True},
                    {"op": "profile", "action": "start", "hz": 1e9},
                ):
                    response = client.request(payload)
                    assert response["ok"] is False
                    assert response["error"]["code"] == "bad_request"
                assert client.ping()["ok"] is True

    def test_status_when_never_started(self, dataset):
        with running_server(dataset) as handle:
            with ServeClient(host=handle.host, port=handle.port) as client:
                response = client.profile("status")
        assert response["ok"] is True
        assert response["profile"]["running"] is False


class TestSloSurface:
    def test_stats_and_metrics_carry_slo_scores(self, dataset):
        with running_server(
            dataset, slo="p99:10s,err:50%", metrics_port=0
        ) as handle:
            with ServeClient(host=handle.host, port=handle.port) as client:
                client.request(dict(QUERY))
                stats = client.stats()
            text = handle.server.metrics.render_text()
        slo = stats["server"]["metrics"]["slo"]
        assert slo["spec"]["source"] == "p99:10s,err:50%"
        score = slo["datasets"]["default"]
        assert score["requests"] >= 1
        assert score["compliant"] is True  # generous objectives
        assert slo["compliant"] is True
        assert lint(text) == [], lint(text)
        assert 'repro_slo_burn_rate{dataset="default",objective="p99"}' in text
        assert 'repro_slo_compliant{dataset="default"} 1' in text

    def test_diag_bundle_embeds_the_slo_section(self, dataset):
        with running_server(dataset, slo="p99:10s") as handle:
            with ServeClient(host=handle.host, port=handle.port) as client:
                client.request(dict(QUERY))
                bundle = client.diag()["diag"]
        assert bundle["slo"]["datasets"]["default"]["compliant"] is True


class TestDumpDiag:
    def test_dump_writes_a_valid_bundle_file(self, dataset, tmp_path):
        """The path SIGUSR2 takes, minus the signal plumbing (the CI
        server-smoke job exercises the actual signal end to end)."""
        with running_server(dataset, diag_dir=str(tmp_path)) as handle:
            with ServeClient(host=handle.host, port=handle.port) as client:
                client.request(dict(QUERY))
            path = handle.server.dump_diag("test-dump")
        assert path is not None and path.startswith(str(tmp_path))
        bundle = json.loads(open(path).read())
        assert bundle["schema"] == DIAG_SCHEMA
        assert bundle["reason"] == "test-dump"
        assert len(bundle["metrics"]) >= 1
        # The dump itself logs diag.dump; flight captured it or an
        # earlier event — either way the ring is live.
        assert isinstance(bundle["events"], list)

    def test_dump_without_flight_returns_none(self, dataset, tmp_path):
        with running_server(
            dataset, flight=False, diag_dir=str(tmp_path)
        ) as handle:
            assert handle.server.dump_diag("nope") is None
        assert list(tmp_path.iterdir()) == []


class TestGaugeReRegistration:
    def test_two_server_cycles_share_one_metrics_object_cleanly(self):
        """Regression: resource gauges re-register idempotently, so a
        second serve_in_thread cycle against the same ServerMetrics
        renders each gauge once and lints clean."""
        metrics = ServerMetrics()
        for _ in range(2):
            registry = SessionRegistry(seed=7, executor="serial")
            registry.add_dataset("default", make_dataset())
            handle = serve_in_thread(
                registry, config=ServerConfig(), metrics=metrics
            )
            try:
                with ServeClient(
                    host=handle.host, port=handle.port
                ) as client:
                    assert client.ping()["ok"] is True
            finally:
                handle.stop()
        text = metrics.render_text()
        assert lint(text) == [], lint(text)
        for gauge in ("repro_process_rss_bytes", "repro_pool_bytes",
                      "repro_cache_bytes"):
            samples = [
                line for line in text.splitlines()
                if line.startswith(f"{gauge} ")
            ]
            assert len(samples) == 1, samples
