"""Merged Prometheus exposition of several registry dumps."""

from __future__ import annotations

from repro.obs import (
    LatencyHistogram,
    MetricsRegistry,
    render_prometheus,
    render_prometheus_dumps,
    validate_prometheus_text,
)


def _worker_registry(requests: int, latency: float) -> MetricsRegistry:
    registry = MetricsRegistry()
    counter = registry.counter(
        "net_worker_requests_total", "Requests handled.", labelnames=("op",)
    )
    counter.labels(op="probe").inc(requests)
    registry.histogram("net_worker_op_seconds", "Op latency.").record(latency)
    return registry


class TestDumpRoundTrip:
    def test_dump_carries_families_and_collectors(self):
        registry = _worker_registry(3, 0.01)
        registry.register_collector(lambda: {"worker_up": 1.0})
        dump = registry.dump()
        names = {fam["name"] for fam in dump["families"]}
        assert names == {"net_worker_requests_total", "net_worker_op_seconds"}
        assert dump["collected"] == {"worker_up": 1.0}

    def test_dump_is_json_plain(self):
        import json

        json.dumps(_worker_registry(1, 0.5).dump())

    def test_histogram_state_round_trips(self):
        histogram = LatencyHistogram()
        for value in (0.001, 0.5, 120.0):
            histogram.record(value)
        rebuilt = LatencyHistogram.from_state(histogram.state())
        assert rebuilt.bucket_counts() == histogram.bucket_counts()
        assert rebuilt.total == histogram.total
        assert rebuilt.count == histogram.count


class TestMergedRender:
    def test_shard_labels_prefix_every_sample(self):
        text = render_prometheus_dumps(
            [
                ({"shard": "0"}, _worker_registry(2, 0.1).dump()),
                ({"shard": "1"}, _worker_registry(5, 0.2).dump()),
            ]
        )
        assert 'net_worker_requests_total{shard="0",op="probe"} 2.0' in text
        assert 'net_worker_requests_total{shard="1",op="probe"} 5.0' in text
        # One TYPE header per family, not per source.
        assert text.count("# TYPE net_worker_requests_total counter") == 1
        assert validate_prometheus_text(text) == []

    def test_unlabelled_source_merges_with_labelled(self):
        coordinator = MetricsRegistry()
        coordinator.counter("net_shard_failures_total", "Failures.").inc(4)
        text = render_prometheus_dumps(
            [
                ({}, coordinator.dump()),
                ({"shard": "0"}, _worker_registry(1, 0.1).dump()),
            ]
        )
        assert "net_shard_failures_total 4.0" in text
        assert 'net_worker_requests_total{shard="0",op="probe"} 1.0' in text

    def test_colliding_counters_sum_and_histograms_merge(self):
        a, b = _worker_registry(2, 0.01), _worker_registry(3, 10.0)
        text = render_prometheus_dumps([({}, a.dump()), ({}, b.dump())])
        assert 'net_worker_requests_total{op="probe"} 5.0' in text
        assert "net_worker_op_seconds_count 2" in text
        assert "net_worker_op_seconds_sum 10.01" in text

    def test_kind_conflict_is_skipped_not_corrupted(self):
        gauge_reg = MetricsRegistry()
        gauge_reg.gauge("ambiguous_metric", "As a gauge.").set(7.0)
        counter_reg = MetricsRegistry()
        counter_reg.counter("ambiguous_metric", "As a counter.").inc(1)
        text = render_prometheus_dumps(
            [({}, gauge_reg.dump()), ({"shard": "0"}, counter_reg.dump())]
        )
        assert "# TYPE ambiguous_metric gauge" in text
        assert "ambiguous_metric 7.0" in text
        assert 'ambiguous_metric{shard="0"}' not in text
        assert validate_prometheus_text(text) == []

    def test_collected_gauges_carry_source_labels(self):
        registry = MetricsRegistry()
        registry.register_collector(lambda: {"worker_cache_entries": 12.0})
        text = render_prometheus_dumps([({"shard": "3"}, registry.dump())])
        assert 'worker_cache_entries{shard="3"} 12.0' in text
        assert "# TYPE worker_cache_entries gauge" in text

    def test_single_unlabelled_dump_matches_direct_render(self):
        # ``render_prometheus`` is the one-source case of the merged
        # renderer; GOLDEN is what the separate direct renderer it
        # replaced printed for this registry, byte for byte.
        registry = MetricsRegistry()
        registry.counter("requests_total", "Requests served.").inc(3)
        depth = registry.gauge("queue_depth", 'Pending "items".', labelnames=("pool",))
        depth.labels(pool="a\\b").set(2.5)
        depth.labels(pool="z").set(-1)
        latency = registry.histogram("latency_seconds", "Latency.", labelnames=("op",))
        for value in (0.0001, 0.003, 0.2, 7.5, 1e6):
            latency.labels(op="probe").record(value)
        registry.histogram("empty_seconds", "Never observed.")
        registry.register_collector(lambda: {"kernel_chunks_total": 12.0, "a_gauge": 0.5})
        assert render_prometheus(registry) == GOLDEN
        assert render_prometheus_dumps([({}, registry.dump())]) == GOLDEN
        assert validate_prometheus_text(GOLDEN) == []

    def test_empty_input_renders_empty(self):
        assert render_prometheus_dumps([]) == ""


GOLDEN = """\
# HELP latency_seconds Latency.
# TYPE latency_seconds histogram
latency_seconds_bucket{op="probe",le="1e-06"} 0
latency_seconds_bucket{op="probe",le="2e-06"} 0
latency_seconds_bucket{op="probe",le="4e-06"} 0
latency_seconds_bucket{op="probe",le="8e-06"} 0
latency_seconds_bucket{op="probe",le="1.6e-05"} 0
latency_seconds_bucket{op="probe",le="3.2e-05"} 0
latency_seconds_bucket{op="probe",le="6.4e-05"} 0
latency_seconds_bucket{op="probe",le="0.000128"} 1
latency_seconds_bucket{op="probe",le="0.000256"} 1
latency_seconds_bucket{op="probe",le="0.000512"} 1
latency_seconds_bucket{op="probe",le="0.001024"} 1
latency_seconds_bucket{op="probe",le="0.002048"} 1
latency_seconds_bucket{op="probe",le="0.004096"} 2
latency_seconds_bucket{op="probe",le="0.008192"} 2
latency_seconds_bucket{op="probe",le="0.016384"} 2
latency_seconds_bucket{op="probe",le="0.032768"} 2
latency_seconds_bucket{op="probe",le="0.065536"} 2
latency_seconds_bucket{op="probe",le="0.131072"} 2
latency_seconds_bucket{op="probe",le="0.262144"} 3
latency_seconds_bucket{op="probe",le="0.524288"} 3
latency_seconds_bucket{op="probe",le="1.048576"} 3
latency_seconds_bucket{op="probe",le="2.097152"} 3
latency_seconds_bucket{op="probe",le="4.194304"} 3
latency_seconds_bucket{op="probe",le="8.388608"} 4
latency_seconds_bucket{op="probe",le="16.777216"} 4
latency_seconds_bucket{op="probe",le="33.554432"} 4
latency_seconds_bucket{op="probe",le="67.108864"} 4
latency_seconds_bucket{op="probe",le="+Inf"} 5
latency_seconds_sum{op="probe"} 1000007.7031
latency_seconds_count{op="probe"} 5
# HELP queue_depth Pending "items".
# TYPE queue_depth gauge
queue_depth{pool="a\\\\b"} 2.5
queue_depth{pool="z"} -1.0
# HELP requests_total Requests served.
# TYPE requests_total counter
requests_total 3.0
# collected gauges (read-time collectors)
# TYPE a_gauge gauge
a_gauge 0.5
# TYPE kernel_chunks_total gauge
kernel_chunks_total 12.0
"""
