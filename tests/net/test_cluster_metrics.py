"""Cluster-wide /metrics: per-shard scrape, merge, degradation, respawn."""

from __future__ import annotations

import time

import pytest

from repro.net.cluster import ShardCluster
from repro.net.coordinator import ShardedQueryService
from repro.net.gateway import GatewayConfig, HttpGateway
from repro.net.shard import build_shards
from repro.obs.export import render_prometheus_dumps, validate_prometheus_text
from repro.serving.server import QueryRequest

from .conftest import coordinator_constants
from .test_gateway import request


def _query(service, probes):
    """A shot (its leaves' owners answer) and a flat scan (every shard does)."""
    result = service.query(QueryRequest(kind="shot", features=probes[0], k=5))
    assert result.hits
    assert service.query(QueryRequest(kind="shot_flat", features=probes[0], k=5)).hits
    return result


@pytest.mark.parametrize("num_shards", [1, 2, 3])
def test_merged_metrics_labels_every_shard(make_harness, probes, num_shards):
    harness = make_harness(num_shards)
    _query(harness.service, probes)
    with HttpGateway(harness.service, GatewayConfig()) as gateway:
        status, raw, headers = request(f"{gateway.url}/metrics")
    assert status == 200
    text = raw.decode("utf-8")
    assert validate_prometheus_text(text) == []
    for shard_id in range(num_shards):
        # Every worker served the flat fan-out at least once.
        assert f'net_worker_requests_total{{shard="{shard_id}",op="flat"}}' in text
        assert f'net_shard_up{{shard="{shard_id}"}} 1.0' in text
    assert f'shard="{num_shards}"' not in text
    # Coordinator-side families ride along unlabelled.
    assert 'serving_events_total{event="queries_total"}' in text
    assert headers["Content-Type"].startswith("text/plain; version=0.0.4")


def test_worker_histograms_merge_per_shard(make_harness, probes):
    harness = make_harness(2)
    _query(harness.service, probes)
    text = render_prometheus_dumps(harness.service.metrics_dumps())
    assert validate_prometheus_text(text) == []
    for shard_id in (0, 1):
        assert f'net_worker_op_seconds_count{{shard="{shard_id}",op="flat"}}' in text
        assert f'net_worker_op_seconds_bucket{{shard="{shard_id}",op="flat",le=' in text


def test_dead_shard_degrades_scrape_without_failing(make_harness, probes):
    harness = make_harness(2)
    _query(harness.service, probes)
    harness.workers[1].stop()
    with HttpGateway(harness.service, GatewayConfig()) as gateway:
        status, raw, _ = request(f"{gateway.url}/metrics")
    assert status == 200
    text = raw.decode("utf-8")
    assert validate_prometheus_text(text) == []
    assert 'net_shard_up{shard="0"} 1.0' in text
    assert 'net_shard_up{shard="1"} 0.0' in text
    # The live shard's families are still there; the dead one's are not.
    assert 'net_worker_requests_total{shard="0",op="flat"}' in text
    assert 'net_worker_requests_total{shard="1",op="flat"}' not in text


def test_scrape_reports_missing_shards(make_harness, probes):
    harness = make_harness(3)
    _query(harness.service, probes)
    dumps, missing = harness.service.scrape_metrics()
    assert missing == set()
    assert sorted(dumps) == [0, 1, 2]
    for dump in dumps.values():
        names = {fam["name"] for fam in dump["families"]}
        assert "net_worker_requests_total" in names
    harness.workers[0].stop()
    dumps, missing = harness.service.scrape_metrics()
    assert 0 in missing
    assert 0 not in dumps


def test_metrics_survive_worker_respawn(tmp_path_factory, net_db, probes):
    root = tmp_path_factory.mktemp("metrics-respawn")
    spec = build_shards(net_db, root, 2)
    with ShardCluster(root, spec=spec, watchdog_interval=None) as cluster:
        with coordinator_constants(breaker_threshold=100):
            service = ShardedQueryService(spec, cluster.endpoints)
        try:
            _query(service, probes)
            text = render_prometheus_dumps(service.metrics_dumps())
            assert 'net_worker_requests_total{shard="0",op="flat"}' in text
            assert 'net_shard_up{shard="1"} 1.0' in text

            cluster.kill(0)
            assert cluster._repair() == 1  # respawned on a fresh port

            deadline = time.perf_counter() + 20.0
            while time.perf_counter() < deadline:
                dumps, missing = service.scrape_metrics()
                if 0 in dumps:
                    break
                time.sleep(0.1)
            text = render_prometheus_dumps(service.metrics_dumps())
            assert validate_prometheus_text(text) == []
            # The replacement worker scrapes cleanly under the same label
            # (its counters restart from zero — a new process).
            assert 'net_shard_up{shard="0"} 1.0' in text
            assert 'net_shard_up{shard="1"} 1.0' in text
        finally:
            service.close()
