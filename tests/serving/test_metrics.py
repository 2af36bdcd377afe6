"""Latency histograms and the serving metrics aggregator."""

from __future__ import annotations

import pytest

from repro.obs.metrics import LatencyHistogram, format_seconds
from repro.serving.metrics import ServingMetrics


class TestLatencyHistogram:
    def test_empty(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.quantile(0.5) == 0.0
        assert hist.mean == 0.0

    def test_quantiles_bracket_observations(self):
        hist = LatencyHistogram()
        for _ in range(90):
            hist.record(100e-6)  # 100 us
        for _ in range(10):
            hist.record(50e-3)  # 50 ms
        p50 = hist.quantile(0.5)
        p99 = hist.quantile(0.99)
        # Geometric buckets report the upper bound: within 2x of truth.
        assert 100e-6 <= p50 <= 200e-6
        assert 50e-3 <= p99 <= 100e-3
        assert p50 <= p99 <= hist.max

    def test_quantiles_are_monotone(self):
        hist = LatencyHistogram()
        for value in (1e-5, 2e-4, 3e-3, 4e-2, 0.5):
            hist.record(value)
        quantiles = [hist.quantile(q) for q in (0.1, 0.5, 0.9, 0.99, 1.0)]
        assert quantiles == sorted(quantiles)

    def test_negative_clamped_and_bad_quantile_rejected(self):
        hist = LatencyHistogram()
        hist.record(-1.0)
        assert hist.count == 1
        assert hist.max == 0.0
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_merge(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record(1e-4)
        b.record(1e-2)
        a.merge(b)
        assert a.count == 2
        assert a.max == pytest.approx(1e-2)


class TestServingMetrics:
    def test_query_accounting(self):
        metrics = ServingMetrics()
        metrics.record_query("shot", 1e-3, comparisons=40, cache_hit=False)
        metrics.record_query("shot", 1e-5, cache_hit=True)
        metrics.record_query("event", 2e-4, comparisons=0, cache_hit=False)
        view = metrics.snapshot()
        assert view["queries_total"] == 3
        assert view["queries_shot"] == 2
        assert view["executed_queries"] == 2
        assert "cache_hits" not in view and "cache_hit_rate" not in view  # the cache's
        # Comparisons average over executed (non-cached) queries only.
        assert view["comparisons_per_query"] == pytest.approx(20.0)
        assert view["qps"] > 0

    def test_rejections_timeouts_errors(self):
        metrics = ServingMetrics()
        metrics.record_rejection()
        metrics.record_timeout()
        metrics.record_timeout()
        metrics.record_error()
        assert metrics.counter("rejected_overload") == 1
        assert metrics.counter("deadline_timeouts") == 2
        assert metrics.counter("errors") == 1

    def test_reset(self):
        metrics = ServingMetrics()
        metrics.record_query("shot", 1e-3)
        metrics.reset()
        assert metrics.counter("queries_total") == 0

    def test_render_is_a_plain_text_dump(self):
        metrics = ServingMetrics()
        metrics.record_query("shot", 1.5e-3, comparisons=12)
        metrics.record_query("scene", 4e-4, cache_hit=True)
        metrics.record_generation_swap()
        text = metrics.render()
        assert "serving metrics" in text
        assert "p50" in text and "p95" in text and "p99" in text
        assert "shot" in text and "scene" in text
        assert "generation swaps 1" in text


class TestFormatSeconds:
    def test_units(self):
        assert format_seconds(5e-6) == "5us"
        assert format_seconds(2.5e-3) == "2.50ms"
        assert format_seconds(1.2) == "1.20s"

    def test_minutes_beyond_sixty_seconds(self):
        assert format_seconds(75.0) == "1m15.0s"
        assert format_seconds(312.4) == "5m12.4s"


class TestRegistryIntegration:
    def test_metrics_publish_through_a_shared_registry(self):
        from repro.obs import MetricsRegistry, render_prometheus

        registry = MetricsRegistry()
        metrics = ServingMetrics(registry=registry)
        metrics.record_query("shot", 1e-3, comparisons=10)
        view = registry.snapshot()
        assert view["serving_events_total{event=queries_total}"] == 1.0
        assert view["serving_latency_seconds_count"] == 1.0
        assert view["serving_kind_latency_seconds_count{kind=shot}"] == 1.0
        text = render_prometheus(registry)
        assert 'serving_events_total{event="queries_total"} 1.0' in text

    def test_independent_servers_do_not_share_counts(self):
        a, b = ServingMetrics(), ServingMetrics()
        a.record_query("shot", 1e-3)
        assert b.counter("queries_total") == 0
