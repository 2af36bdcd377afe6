"""Metric families, the registry, collectors and the global instance."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ObservabilityError
from repro.obs import MetricsRegistry, get_registry


class TestCountersAndGauges:
    def test_counter_counts_up_only(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ObservabilityError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("inflight")
        gauge.set(4)
        gauge.inc(-1)
        assert gauge.value == 3.0

    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        assert registry.counter("a_total") is registry.counter("a_total")

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a_total")
        with pytest.raises(ObservabilityError):
            registry.gauge("a_total")

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            registry.counter("bad name")
        with pytest.raises(ObservabilityError):
            registry.counter("9starts_with_digit")


class TestLabels:
    def test_labeled_children_are_distinct(self):
        registry = MetricsRegistry()
        family = registry.counter("events_total", labelnames=("kind",))
        family.labels(kind="a").inc()
        family.labels(kind="b").inc(2)
        assert family.labels(kind="a").value == 1
        assert family.labels(kind="b").value == 2
        assert len(family.samples()) == 2

    def test_wrong_labels_rejected(self):
        registry = MetricsRegistry()
        family = registry.counter("events_total", labelnames=("kind",))
        with pytest.raises(ObservabilityError):
            family.labels(other="x")
        with pytest.raises(ObservabilityError):
            family.inc()  # labeled family has no unlabeled child

    def test_labelname_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("events_total", labelnames=("kind",))
        with pytest.raises(ObservabilityError):
            registry.counter("events_total", labelnames=("other",))


class TestSnapshotAndReset:
    def test_snapshot_flattens_families_and_histograms(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total").inc(2)
        registry.gauge("inflight").set(1)
        registry.counter("events_total", labelnames=("kind",)).labels(
            kind="done"
        ).inc()
        registry.histogram("latency_seconds").record(2e-3)
        view = registry.snapshot()
        assert view["jobs_total"] == 2.0
        assert view["inflight"] == 1.0
        assert view["events_total{kind=done}"] == 1.0
        assert view["latency_seconds_count"] == 1.0
        assert view["latency_seconds_sum"] == pytest.approx(2e-3)
        assert view["latency_seconds_p50"] >= 2e-3

    def test_reset_zeroes_values_but_keeps_families(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total")
        counter.inc(5)
        registry.reset()
        assert counter.value == 0.0
        assert registry.counter("jobs_total") is counter

    def test_registry_metrics_share_one_lock(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency_seconds")._solo()
        assert histogram.lock is registry.lock
        # Re-entrant: snapshot while holding the lock must not deadlock.
        with registry.lock:
            registry.snapshot()


class TestCollectors:
    def test_collectors_merge_into_snapshot(self):
        registry = MetricsRegistry()
        registry.register_collector(lambda: {"hot_path_total": 7.0})
        assert registry.snapshot()["hot_path_total"] == 7.0
        assert registry.collect() == {"hot_path_total": 7.0}


class TestGlobalRegistry:
    def test_singleton_with_default_collectors(self):
        registry = get_registry()
        assert get_registry() is registry
        view = registry.snapshot()
        # The kernel and index hot-path collectors are pre-registered.
        assert "kernel_packs_total" in view
        assert "index_descents_total" in view

    def test_concurrent_increments_are_consistent(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total")

        def hammer():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 4000.0
