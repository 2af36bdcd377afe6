"""Latency histograms and the metric families a query front registers."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from repro.errors import DeadlineExpiredError, FaultInjectedError, OverloadedError
from repro.obs.metrics import LatencyHistogram, format_seconds
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.serving.server import QueryRequest, QueryServer, ServerConfig
from repro.types import EventKind

from .test_server import _block_execution


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
    def test_query_accounting(self, serving_db, demo_features):
        with QueryServer(serving_db) as server:
            shot = QueryRequest(kind="shot", features=demo_features(0), k=5)
            cold = server.query(shot)
            assert server.query(shot).cache_hit
            server.query(QueryRequest(kind="event", event=EventKind.DIALOG))
            assert server.count("queries_total") == 3
            assert server.count("queries_shot") == 2
            assert server.count("executed_queries") == 2
            # Comparisons add up over executed (non-cached) queries only.
            assert server.count("comparisons_total") == cold.comparisons > 0
            events = {labels[0][1] for labels, _ in server._events.samples()}
            assert "cache_hits" not in events  # the cache counts its own lookups

    def test_rejections_timeouts_errors(self, serving_db, demo_features):
        config = ServerConfig(queue_depth=1)
        with QueryServer(serving_db, config) as server:
            request = QueryRequest(kind="shot", features=demo_features(1))
            for _ in range(2):
                with pytest.raises(DeadlineExpiredError):
                    server.query(replace(request, timeout=0.0))
            with inject(FaultPlan([FaultSpec(point="serve.query", kind="error", limit=1)])):
                with pytest.raises(FaultInjectedError):
                    server.query(request)
            gate, entered = _block_execution(server)
            with ThreadPoolExecutor(max_workers=1) as pool:
                answer = pool.submit(server.query, request)
                assert entered.wait(5.0)
                with pytest.raises(OverloadedError):
                    server.query(request)
                gate.set()
                assert answer.result(timeout=5.0).hits
            assert server.count("rejected_overload") == 1
            assert server.count("deadline_timeouts") == 2
            assert server.count("errors") == 1

    def test_render_is_a_plain_text_dump(self, serving_db, demo_features):
        with QueryServer(serving_db) as server:
            server.query(QueryRequest(kind="shot", features=demo_features(0)))
            server.query(QueryRequest(kind="scene", features=demo_features(0)))
            swaps = server.count("generation_swaps")
            server.refresh()
            text = server.describe()
        assert "serving metrics" in text
        assert "p50" in text and "p95" in text and "p99" in text
        assert "    shot " in text and "    scene " in text
        assert "queries          2 (" in text
        assert f"generation swaps {swaps + 1}" in text


class TestFormatSeconds:
    def test_units(self):
        assert format_seconds(5e-6) == "5us"
        assert format_seconds(2.5e-3) == "2.50ms"
        assert format_seconds(1.2) == "1.20s"

    def test_minutes_beyond_sixty_seconds(self):
        assert format_seconds(75.0) == "1m15.0s"
        assert format_seconds(312.4) == "5m12.4s"


class TestRegistryIntegration:
    def test_metrics_publish_through_a_shared_registry(self, serving_db, demo_features):
        from repro.obs import MetricsRegistry, render_prometheus

        registry = MetricsRegistry()
        with QueryServer(serving_db, registry=registry) as server:
            server.query(QueryRequest(kind="shot", features=demo_features(0)))
        view = registry.snapshot()
        assert view["serving_events_total{event=queries_total}"] == 1.0
        assert view["serving_latency_seconds_count"] == 1.0
        assert view["serving_kind_latency_seconds_count{kind=shot}"] == 1.0
        text = render_prometheus(registry)
        assert 'serving_events_total{event="queries_total"} 1.0' in text

    def test_a_health_probe_changes_no_exposition(self, serving_db):
        # Reading a count (the health ``history`` check reads ``errors``)
        # must not create the sample it reads.
        from repro.obs import MetricsRegistry, render_prometheus

        registry = MetricsRegistry()
        with QueryServer(serving_db, registry=registry) as server:
            before = render_prometheus(registry)
            assert server.health_report().status == "ok"
            assert server.count("errors") == 0
            assert render_prometheus(registry) == before
            assert 'event="errors"' not in before

    def test_independent_servers_do_not_share_counts(self, serving_db, demo_features):
        with QueryServer(serving_db) as a, QueryServer(serving_db) as b:
            a.query(QueryRequest(kind="shot", features=demo_features(0)))
            assert (a.count("queries_total"), b.count("queries_total")) == (1, 0)
