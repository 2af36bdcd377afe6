"""Distributed tracing, per-query explain, slow log and access log."""

from __future__ import annotations

import pytest

from repro.net.gateway import GatewayConfig, HttpGateway
from repro.net.shard import pack_leaves
from repro.obs import Tracer, get_slow_log, install_tracer, render_spans
from repro.serving.server import QueryRequest

from .test_gateway import post_query, request


@pytest.fixture()
def tracer():
    """A fresh process tracer, restored after the test."""
    fresh = Tracer()
    previous = install_tracer(fresh)
    yield fresh
    install_tracer(previous)


def _by_name(spans):
    grouped: dict[str, list] = {}
    for span in spans:
        grouped.setdefault(span.name, []).append(span)
    return grouped


def _owners(harness, net_db, features) -> set[int]:
    """The shards a shot query for ``features`` asks: its leaves' owners."""
    owner = dict(zip(net_db.leaves, pack_leaves(
        [len(leaf) for leaf in net_db.leaves.values()], harness.spec.num_shards
    )))
    hits = net_db.search(features, k=1).stats.visited_path
    return {owner[name] for name in hits if name in owner}


def _features(probes, i):
    return [float(x) for x in probes[i]]


class TestStitchedFlame:
    def test_three_shard_query_builds_one_flame_tree(
        self, make_harness, probes, tracer, net_db
    ):
        harness = make_harness(3)
        asked = _owners(harness, net_db, probes[0])
        result = harness.service.query(
            QueryRequest(kind="shot", features=probes[0], k=5)
        )
        assert result.hits
        spans = tracer.spans()
        grouped = _by_name(spans)

        (net_query,) = grouped["net.query"]
        trace_id = net_query.attributes["trace_id"]
        assert len(trace_id) == 16
        int(trace_id, 16)

        # One RPC span per shard asked, parented under the probe phase.
        rpcs = grouped["rpc.probe"]
        assert sorted(sp.attributes["shard"] for sp in rpcs) == sorted(asked)
        (probe_phase,) = grouped["coord.probe"]
        assert all(sp.parent_id == probe_phase.span_id for sp in rpcs)
        assert probe_phase.parent_id == net_query.span_id
        assert "coord.merge" in grouped  # sibling coordinator phases

        # Each worker's spans came back over the wire with the same
        # trace id and got re-parented under that shard's RPC span.
        workers = grouped["worker.probe"]
        assert {sp.attributes["shard"] for sp in workers} == asked
        rpc_by_shard = {sp.attributes["shard"]: sp.span_id for sp in rpcs}
        for span in workers:
            assert span.attributes["trace_id"] == trace_id
            assert span.parent_id == rpc_by_shard[span.attributes["shard"]]
        assert "worker.leaf" in grouped  # per-leaf detail survived the trip

        ids = [sp.span_id for sp in spans]
        assert len(ids) == len(set(ids))

        rendered = render_spans(spans)
        for name in ("net.query", "coord.probe", "rpc.probe", "worker.probe"):
            assert name in rendered

    def test_gateway_header_threads_one_trace_id_end_to_end(
        self, make_harness, probes, tracer
    ):
        harness = make_harness(2)
        supplied = "feedface00000001"
        with HttpGateway(harness.service, GatewayConfig()) as gateway:
            status, body, headers = post_query(
                gateway.url,
                {"kind": "shot", "features": _features(probes, 1), "k": 5},
                headers={"X-Trace-Id": supplied},
            )
        assert status == 200 and body["hits"]
        assert headers["X-Trace-Id"] == supplied

        grouped = _by_name(tracer.spans())
        (gateway_span,) = grouped["gateway.request"]
        assert gateway_span.attributes["trace_id"] == supplied
        assert gateway_span.attributes["path"] == "/query"
        (net_query,) = grouped["net.query"]
        assert net_query.attributes["trace_id"] == supplied
        assert net_query.parent_id == gateway_span.span_id
        for span in grouped["worker.probe"]:
            assert span.attributes["trace_id"] == supplied

    @pytest.mark.parametrize("front_span", ["serve.query", "net.query"])
    def test_front_span_nests_under_the_gateway_span_on_one_thread(
        self, make_harness, reference, probes, tracer, front_span
    ):
        front = reference if front_span == "serve.query" else make_harness(2).service
        with HttpGateway(front, GatewayConfig()) as gateway:
            status, _, _ = post_query(
                gateway.url,
                {"kind": "shot", "features": _features(probes, 2), "k": 5},
            )
        assert status == 200
        grouped = _by_name(tracer.spans())
        (gateway_span,) = grouped["gateway.request"]
        (query_span,) = grouped[front_span]
        # Parent -> child by the tracer's own thread stack: the front ran
        # on the connection's thread, nobody adopted a parent id.
        assert query_span.parent_id == gateway_span.span_id
        assert query_span.thread == gateway_span.thread
        assert gateway_span.attributes["status"] == 200
        assert query_span.attributes["trace_id"] == gateway_span.attributes["trace_id"]

    def test_missing_header_mints_an_id_even_untraced(self, reference, probes):
        # No tracer installed: the id is still generated and echoed
        # (on every response, whatever the status).
        with HttpGateway(reference, GatewayConfig()) as gateway:
            _, _, headers = request(f"{gateway.url}/health")
        trace_id = headers["X-Trace-Id"]
        assert len(trace_id) == 16
        int(trace_id, 16)


class TestExplain:
    def test_explain_result_is_bit_identical_to_plain(
        self, make_harness, probes
    ):
        harness = make_harness(2)
        plain = harness.service.query(
            QueryRequest(kind="shot", features=probes[2], k=5)
        )
        explained = harness.service.query(
            QueryRequest(kind="shot", features=probes[2], k=5, explain=True)
        )
        assert plain.explain is None
        assert explained.explain is not None
        assert [
            (h.entry.video_title, h.entry.shot_id, h.score)
            for h in explained.hits
        ] == [(h.entry.video_title, h.entry.shot_id, h.score) for h in plain.hits]
        assert explained.generation == plain.generation
        assert explained.comparisons == plain.comparisons
        # The plain query warmed the cache; explain still re-executed.
        assert explained.cache_hit is False
        assert explained.explain["cache"]["would_hit"] is True
        assert explained.explain["cache"]["disposition"] == "bypassed (explain)"

    def test_sharded_explain_payload_shape(self, make_harness, probes, net_db):
        harness = make_harness(3)
        result = harness.service.query(
            QueryRequest(kind="shot", features=probes[5], k=5, explain=True)
        )
        explain = result.explain
        assert explain["backend"] == "sharded"
        assert explain["kind"] == "shot"
        assert explain["phases_ms"]["total"] > 0.0
        assert {op["shard"] for op in explain["shards"]} == _owners(harness, net_db, probes[5])
        assert all(op["ok"] for op in explain["shards"])
        assert explain["breakers"] == {
            "0": "closed", "1": "closed", "2": "closed"
        }
        assert explain["counts"]["comparisons"] == result.comparisons
        assert explain["shards_missing"] == []
        assert explain["degraded"] is False
        assert set(explain["ann"]) == {"nprobe", "rerank_k"}

    def test_single_backend_explain_payload_shape(self, reference, probes):
        result = reference.query(
            QueryRequest(kind="shot", features=probes[3], k=4, explain=True)
        )
        explain = result.explain
        assert explain["backend"] == "single"
        assert set(explain["phases_ms"]) == {"scope", "search", "total"}
        assert "breakers" not in explain  # no breaker guards an in-process answer
        assert explain["counts"]["comparisons"] == result.comparisons
        assert explain["cache"]["disposition"] == "bypassed (explain)"

    def test_http_explain_opt_in(self, make_harness, probes):
        harness = make_harness(2)
        payload = {"kind": "shot", "features": _features(probes, 6), "k": 5}
        with HttpGateway(harness.service, GatewayConfig()) as gateway:
            status, plain, _ = post_query(gateway.url, payload)
            status2, explained, _ = post_query(
                gateway.url, dict(payload, explain=True)
            )
        assert status == 200 and status2 == 200
        assert "explain" not in plain
        assert explained["explain"]["backend"] == "sharded"
        assert explained["hits"] == plain["hits"]


class TestSlowLogSurface:
    def test_both_backends_feed_the_global_log(
        self, make_harness, reference, probes
    ):
        log = get_slow_log()
        log.clear()
        harness = make_harness(1)
        harness.service.query(QueryRequest(kind="shot", features=probes[7], k=3))
        reference.query(QueryRequest(kind="shot", features=probes[7], k=3))
        backends = {entry.backend for entry in log.entries()}
        assert {"sharded", "single"} <= backends

    def test_debug_slow_endpoint_serves_entries(self, make_harness, probes):
        log = get_slow_log()
        log.clear()
        harness = make_harness(1)
        with HttpGateway(harness.service, GatewayConfig()) as gateway:
            post_query(
                gateway.url,
                {"kind": "shot", "features": _features(probes, 8), "k": 3},
            )
            status, body, _ = request(f"{gateway.url}/debug/slow")
        assert status == 200
        assert body["recorded"] >= 1
        assert body["capacity"] == log.capacity
        entry = body["slow"][0]
        assert entry["backend"] == "sharded"
        assert entry["elapsed_ms"] > 0.0
        assert entry["kind"] == "shot"


class TestAccessLog:
    def test_sink_receives_structured_records(self, make_harness, probes):
        records: list[dict] = []
        harness = make_harness(2)
        gateway = HttpGateway(
            harness.service,
            GatewayConfig(access_log=True),
            access_sink=records.append,
        )
        with gateway:
            post_query(
                gateway.url,
                {"kind": "shot", "features": _features(probes, 0), "k": 5},
                headers={"X-Trace-Id": "access00access00"},
            )
            request(f"{gateway.url}/health")
        query_record = next(r for r in records if r["path"] == "/query")
        assert query_record["method"] == "POST"
        assert query_record["status"] == 200
        assert query_record["fanout"] == 2  # one per shard
        assert query_record["trace_id"] == "access00access00"
        assert query_record["latency_ms"] >= 0.0
        assert "ts" in query_record
        assert any(r["path"] == "/health" for r in records)

    def test_disabled_by_default(self, make_harness, probes):
        records: list[dict] = []
        harness = make_harness(1)
        gateway = HttpGateway(
            harness.service, GatewayConfig(), access_sink=records.append
        )
        with gateway:
            request(f"{gateway.url}/health")
        assert records == []
