"""Prometheus and JSON exporters, plus the line-format validator."""

from __future__ import annotations


import pytest

from repro.obs import (
    MetricsRegistry,
    render_prometheus,
    validate_prometheus_text,
)


def _sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("jobs_total", "Jobs processed.").inc(3)
    registry.counter(
        "events_total", "Events by kind.", labelnames=("kind",)
    ).labels(kind="done").inc(2)
    registry.histogram("latency_seconds", "Query latency.").record(1.5e-3)
    registry.gauge("inflight", "In-flight jobs.").set(1)
    registry.register_collector(lambda: {"hot_total": 9.0})
    return registry


class TestPrometheus:
    def test_render_has_help_type_and_samples(self):
        text = render_prometheus(_sample_registry())
        assert "# HELP jobs_total Jobs processed." in text
        assert "# TYPE jobs_total counter" in text
        assert "jobs_total 3.0" in text
        assert 'events_total{kind="done"} 2.0' in text
        assert "# TYPE latency_seconds histogram" in text
        assert "latency_seconds_count 1" in text
        assert "latency_seconds_sum 0.0015" in text
        assert 'latency_seconds_bucket{le="+Inf"} 1' in text
        assert "hot_total 9.0" in text

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_seconds")
        histogram.record(1e-6)
        histogram.record(1.0)
        text = render_prometheus(registry)
        bucket_values = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("h_seconds_bucket")
        ]
        assert bucket_values == sorted(bucket_values)
        assert bucket_values[-1] == 2

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labelnames=("title",)).labels(
            title='say "hi"\nplease'
        ).inc()
        text = render_prometheus(registry)
        assert '\\"hi\\"' in text
        assert "\\n" in text
        assert validate_prometheus_text(text) == []

    def test_render_validates(self):
        text = render_prometheus(_sample_registry())
        assert validate_prometheus_text(text) == []

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""


class TestValidator:
    def test_accepts_canonical_lines(self):
        text = (
            "# HELP x_total A counter.\n"
            "# TYPE x_total counter\n"
            'x_total{a="b"} 1.0\n'
            "y_ratio +Inf\n"
        )
        assert validate_prometheus_text(text) == []

    @pytest.mark.parametrize(
        "line",
        [
            "9bad_name 1.0",
            "name{unclosed=\"x\" 1.0",
            "name 1.0 extra",
            "name notanumber",
            "# TYPE x_total banana",
            "# HELP missing_text",
        ],
    )
    def test_rejects_malformed_lines(self, line):
        assert validate_prometheus_text(line + "\n")

    def test_check_raises_with_line_numbers(self):
        (error,) = validate_prometheus_text("bad line here\n")
        assert error.startswith("line 1:")
