"""HTTP gateway: endpoint contracts, protocol edges, auth scoping."""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import pytest

from repro.database.access import User
from repro.errors import (
    DatabaseError,
    DeadlineExpiredError,
    NoShardAnsweredError,
    ServingError,
    UnknownVideoError,
)
from repro.net.client import HttpFront
from repro.net.gateway import GatewayConfig, HttpGateway
from repro.obs.export import validate_prometheus_text
from repro.serving.server import QueryRequest, QueryServer, ServerConfig, ServingResult
from repro.storage.lazy import SQLVideoDatabase

TOKENS = {
    "tok-public": User(name="public", clearance=0),
    "tok-surgeon": User(name="surgeon", clearance=3),
}


def request(url, method="GET", body=None, headers=None):
    """(status, parsed-or-raw body, headers) of one HTTP exchange."""
    req = urllib.request.Request(
        url, data=body, headers=headers or {}, method=method
    )
    try:
        with urllib.request.urlopen(req, timeout=10.0) as response:
            raw = response.read()
            status, resp_headers = response.status, response.headers
    except urllib.error.HTTPError as exc:
        raw = exc.read()
        status, resp_headers = exc.code, exc.headers
    try:
        parsed = json.loads(raw)
    except (UnicodeDecodeError, json.JSONDecodeError):
        parsed = raw
    return status, parsed, resp_headers


def post_query(base, payload, headers=None):
    merged = {"Content-Type": "application/json"}
    merged.update(headers or {})
    return request(
        f"{base}/query", "POST", json.dumps(payload).encode("utf-8"), merged
    )


def raw_exchange(port, payload):
    """Send raw bytes, half-close, return everything the gateway answers."""
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


@pytest.fixture(scope="module")
def gw(reference):
    gateway = HttpGateway(
        reference, GatewayConfig(tokens=dict(TOKENS), max_body=256 * 1024)
    ).start()
    yield gateway
    gateway.stop()


class TestEndpoints:
    def test_query_returns_ranked_hits(self, gw, reference, probes):
        features = [float(x) for x in probes[0]]
        status, body, _ = post_query(
            gw.url, {"kind": "shot", "features": features, "k": 5}
        )
        direct = reference.query(
            QueryRequest(kind="shot", features=probes[0], k=5)
        )
        assert status == 200
        assert [
            (hit["video_title"], hit["shot_id"], hit["score"])
            for hit in body["hits"]
        ] == [
            (h.entry.video_title, h.entry.shot_id, h.score)
            for h in direct.hits
        ]
        assert body["kind"] == "shot"
        assert not body["degraded"] and not body["shards_missing"]

    def test_a_scene_query_answers_scenes(self, gw, probes):
        features = [float(x) for x in probes[0]]
        payload = json.dumps({"kind": "scene", "features": features, "k": 3}).encode()
        headers = {"Content-Type": "application/json"}
        status, body, _ = request(f"{gw.url}/query", "POST", payload, headers)
        assert status == 200
        assert body["kind"] == "scene"
        assert all("event" in hit for hit in body["hits"])
        # One route per query: there is no per-kind alias.
        assert request(f"{gw.url}/scene_search", "POST", payload, headers)[0] == 404

    def test_skim_lists_scenes(self, gw, reference):
        title = next(iter(reference.manager.current().records))
        status, body, _ = request(f"{gw.url}/skim/{title}")
        assert status == 200
        assert body["video_id"] == title
        assert len(body["scenes"]) == body["scene_count"]

    def test_a_fresh_front_is_healthy_before_its_first_query(self, single_dir):
        database = SQLVideoDatabase.open(single_dir)
        try:
            with QueryServer(database) as server, HttpGateway(server) as gateway:
                status, body, _ = request(f"{gateway.url}/health")
        finally:
            database.close()
        assert (status, body["status"], body["ready"]) == (200, "ok", True)

    def test_health_and_metrics(self, gw):
        status, body, _ = request(f"{gw.url}/health")
        assert status == 200 and body["status"] == "ok"
        status, text, _ = request(f"{gw.url}/metrics")
        assert status == 200
        assert validate_prometheus_text(text.decode("utf-8")) == []

    def test_workload_pool(self, gw):
        status, body, _ = request(f"{gw.url}/workload?n=5")
        assert status == 200
        assert 1 <= len(body["features"]) <= 5

    def test_probe_health_helper(self, gw):
        report = HttpFront(gw.url).health_report()
        assert report.live and report.ready
        assert report.exit_code == 0

    def test_probe_health_reports_down_on_dead_server(self):
        report = HttpFront("http://127.0.0.1:9").health_report()  # discard port
        assert not report.live and not report.ready
        assert report.exit_code == 2


class TestProtocolEdges:
    def test_malformed_json_is_400(self, gw):
        status, body, _ = request(
            f"{gw.url}/query", "POST", b"{nope",
            {"Content-Type": "application/json"},
        )
        assert status == 400 and "error" in body

    def test_unknown_endpoint_is_404(self, gw):
        assert request(f"{gw.url}/nope")[0] == 404

    def test_wrong_method_is_405(self, gw):
        assert request(f"{gw.url}/query", "GET")[0] == 405
        assert request(f"{gw.url}/health", "POST", b"{}")[0] == 405

    def test_expired_deadline_on_arrival_is_504(self, gw, probes):
        status, body, _ = post_query(
            gw.url,
            {"kind": "shot", "features": [float(x) for x in probes[0]]},
            {"X-Deadline-Ms": "0"},
        )
        assert status == 504
        assert "deadline" in body["error"]

    def test_oversized_body_is_413(self, gw):
        status, body, _ = post_query(
            gw.url, {"kind": "shot", "features": [0.0] * 200_000}
        )
        assert status == 413
        assert "exceeds" in body["error"]

    def test_unknown_video_is_404(self, gw):
        assert request(f"{gw.url}/skim/no-such-video")[0] == 404

    def test_missing_features_is_400(self, gw):
        status, body, _ = post_query(gw.url, {"kind": "shot", "k": 5})
        assert status == 400

    def test_unknown_kind_is_400(self, gw):
        status, _, _ = post_query(gw.url, {"kind": "sideways", "features": [0.0]})
        assert status == 400

    def test_every_bad_request_is_400_with_the_engine_message(self, gw, probes):
        features = [float(x) for x in probes[0]]
        for fields, message in (
            ({"k": 0}, "k must be >= 1"),
            ({"nprobe": 0}, "nprobe must be >= 1"),
            ({"rerank_k": 0}, "rerank_k must be >= 1"),
            ({"kind": "scene", "nprobe": 2}, "nprobe/rerank_k only apply"),
            ({"features": [float("nan"), *features[1:]]}, "need finite feature values"),
        ):
            status, body, _ = post_query(
                gw.url, {"kind": "shot", "features": features, **fields}
            )
            assert status == 400
            assert message in body["error"]


    @pytest.mark.parametrize(
        "payload, message",
        [
            (b"POST /query HTTP/1.1\r\nContent-Length: -5\r\n\r\n", "Content-Length"),
            (b"POST /query HTTP/1.1\r\nContent-Length: five\r\n\r\n", "Content-Length"),
            (b"GET /health HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n", "exceeds"),
            (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", "exceeds"),
            (b"GET /health HTTP/1.1\r\n" + b"X-Pad: a\r\n" * 500 + b"\r\n", "header lines"),
            (b"GET /health\r\n\r\n", "malformed request line"),
            (
                b"POST /query HTTP/1.1\r\nX-Deadline-Ms: nan\r\n"
                b"Connection: close\r\nContent-Length: 2\r\n\r\n{}",
                "invalid X-Deadline-Ms",
            ),
        ],
        ids=["negative-length", "non-numeric-length", "long-header-line",
             "long-request-line", "too-many-headers", "two-part-request-line",
             "nan-deadline"],
    )
    def test_malformed_framing_is_a_typed_400(self, gw, capfd, payload, message):
        head, _, body = raw_exchange(gw.port, payload).partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 Bad Request")
        assert b"Connection: close" in head
        assert message in json.loads(body)["error"]
        assert request(f"{gw.url}/health")[0] in (200, 207)
        assert capfd.readouterr().err == ""

    def test_short_body_closes_cleanly(self, gw, capfd):
        answer = raw_exchange(
            gw.port, b"POST /query HTTP/1.1\r\nContent-Length: 50\r\n\r\n{}"
        )
        assert answer == b""
        assert request(f"{gw.url}/health")[0] in (200, 207)
        assert capfd.readouterr().err == ""


class _RecordingBackend:
    """Front that notes which thread each query ran on."""

    fanout = 1

    def __init__(self):
        self.threads = []

    def query(self, request):
        self.threads.append(threading.current_thread())
        return ServingResult(
            kind=request.kind, hits=(), generation=1, cache_hit=False,
            elapsed_seconds=0.0,
        )


def _post(conn):
    """One query on a keep-alive ``http.client`` connection."""
    conn.request("POST", "/query", b'{"kind": "shot", "features": [0.0]}')
    response = conn.getresponse()
    response.read()
    assert response.status == 200


class TestConnectionThread:
    """A query runs on the thread of the connection that brought it."""

    def test_front_runs_on_the_connections_own_thread(self):
        backend = _RecordingBackend()
        with HttpGateway(backend, GatewayConfig()) as gateway:
            first = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=10.0)
            second = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=10.0)
            try:
                _post(first)
                _post(first)
                _post(second)
                a, b, c = backend.threads
                assert a is b  # one keep-alive connection, one thread
                assert c is not a  # another connection, another thread
                for _ in range(97):
                    _post(second)
            finally:
                first.close()
                second.close()
            assert len(backend.threads) == 100
            assert set(backend.threads) == {a, c}
            assert not [
                t.name for t in threading.enumerate() if t.name.startswith("gateway")
            ]  # no pool behind the connections


class TestStop:
    def test_stop_severs_idle_keepalive_connections_silently(self, capfd):
        gateway = HttpGateway(_RecordingBackend(), GatewayConfig()).start()
        idle = []
        try:
            for _ in range(8):
                conn = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=10.0)
                _post(conn)  # now parked between requests
                idle.append(conn)
            started = time.perf_counter()
            gateway.stop()
            gateway.stop()  # idempotent
            assert time.perf_counter() - started < 2.0
            for conn in idle:
                assert conn.sock.recv(1) == b""  # EOF, not a reset or a hang
        finally:
            for conn in idle:
                conn.close()
            gateway.stop()
        assert capfd.readouterr().err == ""


class TestAuthScoping:
    def test_unknown_token_is_401(self, gw, probes):
        status, _, _ = post_query(
            gw.url,
            {"kind": "shot", "features": [float(x) for x in probes[0]]},
            {"X-Auth-Token": "intruder"},
        )
        assert status == 401

    def test_tokens_resolve_to_scoped_answers(self, gw, reference, probes):
        """Results per token match the same user's direct query — and a
        low-clearance token can never see a cached high-clearance answer."""
        features = [float(x) for x in probes[0]]
        for token in ("tok-surgeon", "tok-public", "tok-surgeon"):
            status, body, _ = post_query(
                gw.url,
                {"kind": "shot", "features": features, "k": 10},
                {"X-Auth-Token": token},
            )
            direct = reference.query(
                QueryRequest(
                    kind="shot", features=probes[0], k=10, user=TOKENS[token]
                )
            )
            assert status == 200
            assert [
                (hit["video_title"], hit["shot_id"]) for hit in body["hits"]
            ] == [(h.entry.video_title, h.entry.shot_id) for h in direct.hits]


@contextmanager
def held_query(front, request):
    """Hold ``request`` inside ``front.execute`` on a helper thread — an
    admitted query the front is busy with — until the block exits.

    Yields the future of the held query's answer.
    """
    gate, entered = threading.Event(), threading.Event()
    execute = front.execute

    def held(*args):
        entered.set()
        gate.wait(10.0)
        return execute(*args)

    front.execute = held
    with ThreadPoolExecutor(max_workers=1) as pool:
        answer = pool.submit(front.query, request)
        try:
            assert entered.wait(5.0), "the held query never reached execute"
            yield answer
        finally:
            gate.set()
            del front.execute


class TestSaturation:
    def test_admission_overflow_is_503_with_retry_after(self, net_db, probes):
        request = QueryRequest(kind="shot", features=probes[0])
        with QueryServer(net_db, ServerConfig(queue_depth=1)) as server, HttpGateway(
            server
        ) as gateway:
            with held_query(server, request) as held:
                status, body, headers = post_query(
                    gateway.url, {"kind": "shot", "features": [float(x) for x in probes[0]]}
                )
            assert held.result(timeout=5.0).hits
            assert server.count("rejected_overload") == 1
        assert status == 503
        assert headers.get("Retry-After") == "1"
        assert "1 queries in flight; back off and retry" in body["error"]


class _RaisingBackend:
    """Front whose queries raise whatever the test loaded."""

    fanout = 1
    error: Exception

    def query(self, request):
        raise self.error


class TestStatusByErrorType:
    """The status follows the error's type; its text is free to say anything."""

    @pytest.fixture(scope="class")
    def raising(self):
        backend = _RaisingBackend()
        gateway = HttpGateway(backend, GatewayConfig()).start()
        yield backend, gateway
        gateway.stop()

    @pytest.mark.parametrize(
        "error, status",
        [
            (DeadlineExpiredError("ran out of budget"), 504),
            (ServingError("the deadline scheduler crashed"), 500),
            (NoShardAnsweredError("no shard responded (deadline expired)"), 500),
            (UnknownVideoError("video 'x' is not registered"), 404),
            (DatabaseError("leaf 'x' is not registered with the index"), 500),
        ],
        ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None,
    )
    def test_status_is_mapped_by_type(self, raising, error, status):
        backend, gateway = raising
        backend.error = error
        got, body, _ = post_query(gateway.url, {"kind": "shot", "features": [0.0]})
        assert got == status
        assert body["error"] == str(error)

    def test_server_deadline_sites_raise_the_typed_error(self, reference, probes):
        # Whichever site sees the spent budget first: queue admission or the wait.
        with pytest.raises(DeadlineExpiredError, match="deadline"):
            reference.query(
                QueryRequest(kind="shot_flat", features=probes[0], timeout=1e-9)
            )

    def test_unknown_title_event_query_is_404(self, gw):
        status, body, _ = post_query(
            gw.url, {"kind": "event", "event": "dialog", "video_title": "no-such"}
        )
        assert status == 404
        assert "not registered" in body["error"]


class _FakeEndpoint:
    def __init__(self, shard_id):
        self.shard_id = shard_id


class _FakeSpec:
    num_shards = 2


class _FakeCluster:
    """Duck-typed stand-in recording restart calls (no subprocesses)."""

    def __init__(self):
        from repro.net.cluster import RestartReport

        self.spec = _FakeSpec()
        self.endpoints = [_FakeEndpoint(0), _FakeEndpoint(1)]
        self.restarts = 0
        self.calls = []
        self._report = RestartReport

    def alive(self):
        return [0, 1]

    def respawn_counts(self):
        return {0: 0, 1: 3}

    def restart(self, shard_id, graceful=True, drain_timeout=10.0):
        self.calls.append(("restart", shard_id, graceful))
        self.restarts += 1
        return self._report(shard_id=shard_id, graceful=graceful, seconds=0.1)

    def restart_rolling(self, graceful=True, drain_timeout=10.0):
        self.calls.append(("rolling", graceful))
        self.restarts += self.spec.num_shards
        return [
            self._report(shard_id=sid, graceful=graceful, seconds=0.1)
            for sid in (0, 1)
        ]


class TestAdminRestart:
    def test_restart_is_404_without_a_cluster(self, gw):
        status, body, _ = request(
            f"{gw.url}/admin/restart", "POST", b"{}",
            {"Content-Type": "application/json"},
        )
        assert status == 404
        assert "no shard cluster" in body["error"]

    @pytest.fixture()
    def clustered(self, reference):
        cluster = _FakeCluster()
        gateway = HttpGateway(
            reference, GatewayConfig(), cluster=cluster
        ).start()
        yield gateway, cluster
        gateway.stop()

    def test_single_shard_restart(self, clustered):
        gateway, cluster = clustered
        result = HttpFront(gateway.url).restart(shard=1, graceful=True)
        assert result["rolling"] is False
        assert result["restarted"] == [
            {"shard": 1, "graceful": True, "seconds": 0.1}
        ]
        assert cluster.calls == [("restart", 1, True)]

    def test_rolling_restart(self, clustered):
        gateway, cluster = clustered
        result = HttpFront(gateway.url).restart(rolling=True, graceful=False)
        assert result["rolling"] is True
        assert [r["shard"] for r in result["restarted"]] == [0, 1]
        assert cluster.calls == [("rolling", False)]

    def test_rolling_and_shard_are_mutually_exclusive(self, clustered):
        gateway, _ = clustered
        status, body, _ = request(
            f"{gateway.url}/admin/restart", "POST",
            json.dumps({"rolling": True, "shard": 0}).encode("utf-8"),
            {"Content-Type": "application/json"},
        )
        assert status == 400
        assert "mutually exclusive" in body["error"]

    def test_neither_rolling_nor_shard_is_400(self, clustered):
        gateway, _ = clustered
        with pytest.raises(ServingError, match="HTTP 400"):
            HttpFront(gateway.url).restart()

    def test_health_reports_cluster_fleet(self, clustered):
        gateway, _ = clustered
        status, body, _ = request(f"{gateway.url}/health")
        assert status == 200
        checks = {c["name"]: c for c in body["checks"]}
        assert checks["cluster"]["ok"] is True
        assert "2/2 workers alive" in checks["cluster"]["detail"]
        assert "shard 1: 3 respawns" in checks["cluster"]["detail"]
