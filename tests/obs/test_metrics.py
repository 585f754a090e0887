"""MetricsRegistry, resource gauges, and the exposition linter the CI
smoke job runs against the live ``--metrics-port`` endpoint."""

from __future__ import annotations

import math

import pytest

from repro.obs import MetricsRegistry, register_resource_gauges, rss_bytes
from repro.obs.promlint import lint


class TestRegistry:
    def test_gauge_and_counter_collect(self):
        registry = MetricsRegistry()
        registry.register_gauge("g", lambda: 41.5, help="a gauge")
        counter = registry.counter("c_total", help="a counter")
        counter.inc()
        counter.inc(2)
        assert registry.collect() == {"g": 41.5, "c_total": 3}

    def test_counter_is_idempotent_per_name(self):
        registry = MetricsRegistry()
        a = registry.counter("c_total", help="a counter")
        b = registry.counter("c_total", help="ignored")
        a.inc()
        assert b is a and b.value == 1

    def test_name_collisions_raise(self):
        registry = MetricsRegistry()
        registry.register_gauge("x", lambda: 0, help="h")
        with pytest.raises(ValueError):
            registry.counter("x", help="h")
        registry.counter("y_total", help="h")
        with pytest.raises(ValueError):
            registry.register_gauge("y_total", lambda: 0, help="h")

    def test_failing_gauge_is_nan_in_collect_skipped_in_text(self):
        registry = MetricsRegistry()

        def boom() -> float:
            raise RuntimeError("scrape-time failure")

        registry.register_gauge("bad", boom, help="h")
        registry.register_gauge("good", lambda: 1.0, help="h")
        assert math.isnan(registry.collect()["bad"])
        text = registry.render_text()
        assert "bad" not in text and "good 1" in text

    def test_render_text_lints_clean(self):
        registry = MetricsRegistry()
        registry.register_gauge("repro_g", lambda: 2.5, help="gauge help")
        registry.counter("repro_c_total", help="counter help").inc(7)
        text = registry.render_text()
        assert lint(text) == []
        assert "# TYPE repro_g gauge" in text
        assert "# TYPE repro_c_total counter" in text

    def test_unregister(self):
        registry = MetricsRegistry()
        registry.register_gauge("g", lambda: 1, help="h")
        registry.unregister("g")
        assert registry.collect() == {}


class TestResourceGauges:
    def test_standard_names_and_live_values(self):
        registry = MetricsRegistry()
        register_resource_gauges(
            registry, pool_bytes=lambda: 123, cache_bytes=lambda: 456
        )
        values = registry.collect()
        assert set(values) == {
            "repro_process_rss_bytes", "repro_pool_bytes", "repro_cache_bytes",
        }
        assert values["repro_process_rss_bytes"] > 0
        assert values["repro_pool_bytes"] == 123
        assert values["repro_cache_bytes"] == 456
        assert lint(registry.render_text()) == []

    def test_optional_gauges_are_omitted_not_zero(self):
        registry = MetricsRegistry()
        register_resource_gauges(registry)
        values = registry.collect()
        assert "repro_pool_bytes" not in values
        assert "repro_cache_bytes" not in values

    def test_rss_bytes_is_positive_here(self):
        assert rss_bytes() > 0


class TestPromlint:
    def test_clean_histogram_passes(self):
        text = (
            "# HELP h Request latency.\n"
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 1\n'
            'h_bucket{le="+Inf"} 2\n'
            "h_sum 0.3\n"
            "h_count 2\n"
        )
        assert lint(text) == []

    def test_missing_help_and_type_flagged(self):
        problems = lint("orphan 1\n")
        assert any("no TYPE" in p for p in problems)
        assert any("no HELP" in p for p in problems)

    def test_duplicate_series_flagged(self):
        text = (
            "# HELP g h\n# TYPE g gauge\n"
            'g{a="1",b="2"} 1\n'
            'g{b="2",a="1"} 2\n'  # same label set, reordered
        )
        assert any("duplicate series" in p for p in lint(text))

    def test_duplicate_help_flagged(self):
        text = "# HELP g h\n# HELP g again\n# TYPE g gauge\ng 1\n"
        assert any("duplicate HELP" in p for p in lint(text))

    def test_non_numeric_value_flagged(self):
        assert any(
            "non-numeric" in p
            for p in lint("# HELP g h\n# TYPE g gauge\ng pizza\n")
        )

    def test_decreasing_buckets_flagged(self):
        text = (
            "# HELP h x\n# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\n'
            'h_bucket{le="0.2"} 3\n'
            'h_bucket{le="+Inf"} 5\n'
            "h_count 5\n"
        )
        assert any("decreases" in p for p in lint(text))

    def test_missing_inf_bucket_flagged(self):
        text = (
            "# HELP h x\n# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\n'
        )
        assert any('le="+Inf"' in p for p in lint(text))

    def test_inf_bucket_count_mismatch_flagged(self):
        text = (
            "# HELP h x\n# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 4\n'
            "h_count 5\n"
        )
        assert any("!= count" in p for p in lint(text))
