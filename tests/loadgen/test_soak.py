"""Soak harness: short in-test soak plus the metrics-scrape plumbing.

The CI ``soak-smoke`` job runs the real 60-second / 32-connection soak
via ``python -m repro.loadgen.soak``; here a few-second soak exercises
the same code path end to end (warmup, baseline scrape, rounds, final
invariant checks) so regressions fail fast in the tier-1 suite.
"""

from __future__ import annotations

import pytest

from repro.loadgen import runner
from repro.loadgen.soak import (
    RSS_GAUGE,
    SoakReport,
    build_soak_spec,
    main,
    run_soak,
)


class TestParseExposition:
    def test_parses_gauges_and_skips_comments(self):
        text = (
            "# HELP repro_process_rss_bytes Resident set size.\n"
            "# TYPE repro_process_rss_bytes gauge\n"
            "repro_process_rss_bytes 123456789\n"
            'repro_requests_total{op="ping"} 7\n'
            "\n"
        )
        parsed = runner.parse_exposition(text)
        assert parsed[RSS_GAUGE] == 123456789.0
        assert parsed['repro_requests_total{op="ping"}'] == 7.0

    def test_scrape_round_trips_against_a_live_server(self):
        from repro.loadgen import WorkloadSpec, generate_plan

        plan = generate_plan(WorkloadSpec(requests=1, dataset_items=120))
        with runner.hosted_server(plan, metrics_port=0) as handle:
            metrics = runner.scrape_metrics(
                handle.metrics_port, host=handle.host
            )
        assert RSS_GAUGE in metrics


class TestSoak:
    @pytest.mark.slow
    def test_short_soak_passes_invariants(self):
        """A bounded version of the CI acceptance run: sustained skewed
        load, then flat RSS asserted from the live scrape."""
        report = run_soak(seconds=3.0, connections=32, seed=0)
        assert report.passed, report.failures
        assert report.rounds >= 2  # warmup round is not counted alone
        assert report.requests >= 32 * 12 * 2
        assert report.rss_baseline > 0
        assert report.connections == 32

    def test_build_soak_spec_scales_with_connections(self):
        spec = build_soak_spec(connections=32)
        assert spec.connections == 32
        assert spec.requests >= 32 * 12
        small = build_soak_spec(connections=2)
        assert small.requests >= 200

    def test_report_shape_and_growth_math(self):
        report = SoakReport(seconds=1.0, connections=4)
        report.rss_baseline, report.rss_final = 100.0, 107.0
        assert report.rss_growth == pytest.approx(0.07)
        assert report.passed
        report.failures.append("boom")
        doc = report.to_dict()
        assert doc["passed"] is False
        assert doc["failures"] == ["boom"]
        assert doc["rss_growth"] == pytest.approx(0.07)
        # Failure-evidence fields always ship, even when empty.
        assert doc["metrics_final"] == {}
        assert doc["profile"] is None
        assert doc["diag_bundle"] is None

    @pytest.mark.slow
    def test_injected_failure_leaves_a_diag_bundle(self, tmp_path):
        """The acceptance path: a failing soak with the profiler on
        writes a diag bundle holding a metrics snapshot, the event
        ring, and non-empty collapsed stacks — and still embeds the
        final scrape in the report."""
        import json

        diag = tmp_path / "SOAK_DIAG.json"
        report = run_soak(
            seconds=1.5,
            connections=4,
            profile_hz=100.0,
            inject_failure=True,
            diag_path=str(diag),
        )
        assert report.passed is False
        assert "injected failure (--inject-failure)" in report.failures
        # Evidence in the report itself.
        assert report.metrics_final.get(RSS_GAUGE, 0) > 0
        assert "repro_slo_compliant{dataset=\"default\"}" in report.metrics_final
        assert report.profile is not None
        assert report.profile["stacks"], "profiler ran but caught nothing"
        # Evidence on disk.
        assert report.diag_bundle == str(diag)
        bundle = json.loads(diag.read_text())
        assert bundle["reason"] == "soak-failure"
        assert bundle["soak_failures"] == report.failures
        assert len(bundle["metrics"]) >= 1
        assert bundle["events"], "event ring empty in the bundle"
        assert bundle["profile"]["stacks"]
        assert bundle["slo"]["datasets"]["default"]["requests"] > 0

    @pytest.mark.slow
    def test_passing_soak_writes_no_diag_bundle(self, tmp_path):
        diag = tmp_path / "SOAK_DIAG.json"
        report = run_soak(
            seconds=1.0, connections=4, diag_path=str(diag)
        )
        assert report.passed, report.failures
        assert report.diag_bundle is None
        assert not diag.exists()
        assert report.metrics_final.get(RSS_GAUGE, 0) > 0

    def test_growth_with_no_baseline_is_zero(self):
        report = SoakReport(seconds=1.0, connections=4)
        assert report.rss_growth == 0.0

    @pytest.mark.slow
    def test_main_exit_codes_and_json_artifact(self, tmp_path, capsys):
        """The CLI entry point CI calls: exit 0 on pass, report JSON on
        stdout and at --json."""
        import json

        artifact = tmp_path / "soak.json"
        code = main(
            ["--seconds", "1.5", "--connections", "8",
             "--json", str(artifact)]
        )
        printed = json.loads(capsys.readouterr().out)
        saved = json.loads(artifact.read_text())
        assert code == 0
        assert printed == saved
        assert saved["passed"] is True
        assert saved["connections"] == 8
