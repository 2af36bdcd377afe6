"""HTTP/1.1 JSON gateway: an HTTP codec over a query front.

Pure standard library, and the shard worker's server shape
(:class:`~repro.net.tcpserver.ConnectionServer`): the thread of a
keep-alive connection reads a request, calls the front *itself* and
writes the answer — no loop, pool or hand-off between socket and scan.
The front is whatever :class:`~repro.serving.engine.QueryFront` was
handed in — the in-process :class:`~repro.serving.server.QueryServer`
or the sharded :class:`~repro.net.coordinator.ShardedQueryService` —
and :class:`~repro.net.client.HttpFront` is the same codec read from
the other end.

Endpoints (all JSON):

=============================  =======================================
``POST /query``                full query surface (``kind``,
                               ``features``, ``k``, ``event``,
                               ``video_title``, ANN knobs ``nprobe``
                               and ``rerank_k``, ``explain``)
``GET  /skim/{video_id}``      a video's scene/event outline
``GET  /health``               200 ok / 207 degraded / 503 down
``GET  /metrics``              Prometheus text; a sharded front
                               merges every worker's registry with a
                               ``shard`` label per family
``GET  /debug/slow``           the slow-query log, slowest first
``GET  /workload?n=N``         corpus feature vectors for loadgen
``POST /admin/restart``        drain-based worker restart (``shard``
                               or ``rolling``); needs an attached
                               :class:`~repro.net.cluster.ShardCluster`
=============================  =======================================

Contract details the tests pin down:

* Every typed failure is answered from one table, :data:`ERROR_STATUS`
  (error type -> status), whether the gateway or the front raised it;
  the client rebuilds the type by reading the same table backwards.
* ``X-Deadline-Ms`` propagates a per-request deadline (without it the
  front's own default applies); the front answers a deadline already
  spent on arrival with :class:`~repro.errors.DeadlineExpiredError`
  (504) without executing, and counts it.
* Admission is the front's own (``queue_depth`` in flight); beyond it
  the front's :class:`~repro.errors.OverloadedError` is a 503 +
  ``Retry-After``, counted by the front like every refusal it answers.
* ``X-Auth-Token`` resolves to a :class:`~repro.database.access.User`
  *before* any cache interaction (the scope is part of the front's
  cache key, so cached results can never cross tokens).  Unknown
  tokens get 401; no token means anonymous.
* Bodies above ``max_body`` get 413; malformed JSON gets 400; unknown
  paths get 404; malformed framing (a line over 64 KiB, too many
  headers, a negative ``Content-Length``) gets 400 and a closed connection.
* Every response carries ``X-Trace-Id`` — the value of the request's
  ``X-Trace-Id`` header if one came in, a fresh id otherwise.  When
  tracing is enabled the id rides the RPC frames to the shard workers
  and the stitched flame tree carries it end to end.
* ``--access-log`` turns on one structured JSON line per request
  (trace id, method, path, status, shard fan-out, latency).
"""

from __future__ import annotations

import json
import math
import socket
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.database.access import User
from repro.errors import (
    AccessDeniedError,
    BadRequestError,
    DeadlineExpiredError,
    OverloadedError,
    ReproError,
    ServingError,
    UnknownVideoError,
)
from repro.net.tcpserver import ConnectionServer
from repro.obs.slowlog import get_slow_log
from repro.obs.trace import active_tracer, new_trace_id
from repro.resilience.health import HealthCheck, HealthReport
from repro.serving.engine import QueryFront, QueryRequest, ServingResult
from repro.types import EventKind

#: The one error-type -> status table.  The gateway answers the first
#: row the raised error is an instance of (any other error: 500);
#: :class:`~repro.net.client.HttpFront` raises the type of the first row
#: carrying the status it was sent (any other: ``ServingError``).
ERROR_STATUS: tuple[tuple[type[ReproError], int], ...] = (
    (BadRequestError, 400),
    (AccessDeniedError, 401),
    (UnknownVideoError, 404),
    (OverloadedError, 503),
    (DeadlineExpiredError, 504),
)

_REASONS = {
    200: "OK",
    207: "Multi-Status",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

# Framing bounds of the request reader: one request or header line, and
# the number of header lines, before the request is refused with 400.
_MAX_LINE = 64 * 1024
_MAX_HEADERS = 128


@dataclass(frozen=True)
class GatewayConfig:
    """Tuning knobs of one :class:`HttpGateway`.

    ``tokens`` maps ``X-Auth-Token`` values to users; an empty map
    means the gateway only serves anonymous traffic.  ``access_log``
    turns on one structured JSON line per request on stderr (or the
    sink passed to :class:`HttpGateway`).
    """

    host: str = "127.0.0.1"
    port: int = 0
    tokens: dict[str, User] = field(default_factory=dict)
    max_body: int = 1024 * 1024
    access_log: bool = False

    def __post_init__(self) -> None:
        if self.max_body < 1:
            raise ServingError("max_body must be >= 1")


class _HttpError(Exception):
    """Internal: an HTTP-level refusal no error type stands for (an
    unknown endpoint, a wrong method, unreadable framing).  ``drain`` is
    the length of a refused body, which the client is still sending."""

    def __init__(self, status: int, message: str, drain: int = 0) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.drain = drain


class _RequestContext:
    """Per-request accounting state threaded through routing."""

    __slots__ = ("fanout",)

    def __init__(self) -> None:
        self.fanout = 0  # the front's shard count (access log)


def _serialize_hit(kind: str, hit) -> dict:
    if kind in ("shot", "shot_flat"):
        return {
            "video_title": hit.entry.video_title,
            "shot_id": hit.entry.shot_id,
            "scene_id": hit.entry.scene_id,
            "score": hit.score,
        }
    if kind == "scene":
        return {
            "video_title": hit.entry.video_title,
            "scene_id": hit.entry.scene_id,
            "event": hit.entry.event.value,
            "shot_count": hit.entry.shot_count,
            "score": hit.score,
        }
    return {
        "video_title": hit.video_title,
        "scene_id": hit.scene_id,
        "event": hit.event.value,
        "concept": hit.concept,
    }


def _serialize_result(result: ServingResult) -> dict:
    payload = {
        "kind": result.kind,
        "hits": [_serialize_hit(result.kind, hit) for hit in result.hits],
        "generation": result.generation,
        "cache_hit": result.cache_hit,
        "elapsed_ms": result.elapsed_seconds * 1000.0,
        "comparisons": result.comparisons,
        "degraded": result.degraded,
        "shards_missing": list(result.shards_missing),
        "approx_comparisons": result.approx_comparisons,
        "reranked": result.reranked,
    }
    if result.explain is not None:
        payload["explain"] = result.explain
    return payload


class HttpGateway:
    """HTTP/1.1 JSON front-end, one thread per keep-alive connection."""

    def __init__(
        self,
        front: QueryFront,
        config: GatewayConfig | None = None,
        access_sink=None,
        cluster=None,
    ) -> None:
        self._front = front
        # The owning ShardCluster, when the caller runs one: enables
        # POST /admin/restart and per-shard respawn counts in /health.
        self._cluster = cluster
        self.config = config if config is not None else GatewayConfig()
        # One JSON dict per request when config.access_log is on; the
        # default sink writes one line to stderr, tests inject a list
        # appender.
        self._access_sink = (
            access_sink if access_sink is not None else self._stderr_access_line
        )
        self._server: ConnectionServer | None = None
        self._thread: threading.Thread | None = None
        self._port: int | None = None

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "HttpGateway":
        """Bind the socket and start serving (returns once listening)."""
        if self._server is not None:
            return self
        try:
            self._server = ConnectionServer(
                (self.config.host, self.config.port), self._serve_connection
            )
        except OSError as exc:
            raise ServingError(f"gateway failed to start: {exc}") from exc
        self._port = self._server.server_address[1]
        # A short poll: stop() waits for the accept loop to notice.
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="http-gateway",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, sever open connections, join the accept thread."""
        server, self._server = self._server, None
        if server is None:
            return
        server.shutdown()
        server.server_close()  # idle keep-alive clients read EOF
        self._thread.join(timeout=5.0)
        self._thread = None

    def __enter__(self) -> "HttpGateway":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    @property
    def port(self) -> int:
        """The bound TCP port."""
        if self._port is None:
            raise ServingError("gateway is not running")
        return self._port

    @property
    def url(self) -> str:
        """Base URL of the gateway."""
        return f"http://{self.config.host}:{self.port}"

    # -- connection handling -------------------------------------------

    def _serve_connection(self, sock: socket.socket) -> None:
        """One client connection: its requests, in turn, on this thread."""
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        reader = sock.makefile("rb")
        try:
            while self._handle_one(reader, sock):
                pass
        except OSError:
            pass  # the peer went away, or stop() severed the connection
        finally:
            reader.close()

    def _read_request(
        self, reader
    ) -> tuple[str, str, str, dict[str, str], bytes] | None:
        """Parse one request off the wire; ``None`` when the client hung up."""

        def read_line() -> bytes:
            line = reader.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                raise _HttpError(400, f"request or header line exceeds {_MAX_LINE} bytes")
            return line

        request_line = read_line()
        if not request_line or request_line.strip() == b"":
            return None
        try:
            method, target, version = (
                request_line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            raise _HttpError(400, "malformed request line") from None

        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADERS + 1):
            line = read_line()
            if line in (b"\r\n", b"\n", b""):
                break
            if b":" in line:
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
        else:
            raise _HttpError(400, f"more than {_MAX_HEADERS} header lines")

        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            length = -1
        if length < 0:
            raise _HttpError(400, "invalid Content-Length")
        if length > self.config.max_body:
            raise _HttpError(
                413,
                f"body of {length} bytes exceeds limit of {self.config.max_body}",
                drain=length,
            )
        body = reader.read(length) if length else b""
        if len(body) < length:
            return None
        return method, target, version, headers, body

    def _handle_one(self, reader, sock: socket.socket) -> bool:
        """Read one request and answer it; ``False`` ends the connection."""
        try:
            parsed = self._read_request(reader)
        except _HttpError as exc:
            self._respond(sock, exc.status, {"error": exc.message}, close=True)
            # Let the client finish writing what it committed to and read
            # the refusal instead of an EPIPE: half-close, discard what is
            # still arriving (a second of silence ends the wait), then
            # close — keep-alive after a refused body would let a client
            # stream forever.
            sock.shutdown(socket.SHUT_WR)
            sock.settimeout(1.0)
            drain = exc.drain or self.config.max_body
            while drain > 0:
                chunk = reader.read1(min(65536, drain))
                if not chunk:
                    break
                drain -= len(chunk)
            return False
        if parsed is None:
            return False
        method, target, version, headers, body = parsed
        keep_alive = version.upper() != "HTTP/1.0" and (
            headers.get("connection", "").lower() != "close"
        )

        start = time.perf_counter()
        tracer = active_tracer()
        trace_id = headers.get("x-trace-id", "").strip() or new_trace_id()
        path = target.partition("?")[0]
        ctx = _RequestContext()
        # The front is called on this thread, so its spans nest under the
        # gateway span by the tracer's own stack; only the id is adopted.
        with tracer.adopt(trace_id), tracer.span(
            "gateway.request", method=method, path=path, trace_id=trace_id
        ) as span:
            status, payload, extra = self._route(
                method, target, headers, body, ctx
            )
            span.set(status=status)
        if self.config.access_log:
            self._access_log(
                {
                    "ts": round(time.time(), 6),
                    "trace_id": trace_id,
                    "method": method,
                    "path": path,
                    "status": status,
                    "fanout": ctx.fanout,
                    "latency_ms": round((time.perf_counter() - start) * 1e3, 3),
                }
            )
        self._respond(
            sock, status, payload, {"X-Trace-Id": trace_id, **extra}, close=not keep_alive
        )
        return keep_alive

    @staticmethod
    def _stderr_access_line(record: dict) -> None:
        print(json.dumps(record, separators=(",", ":")), file=sys.stderr, flush=True)

    def _access_log(self, record: dict) -> None:
        try:
            self._access_sink(record)
        except Exception:  # a broken sink must never fail the request
            pass

    @staticmethod
    def _respond(
        sock: socket.socket,
        status: int,
        payload: dict | str,
        extra: dict | None = None,
        close: bool = False,
    ) -> None:
        """Write one response: a ``str`` payload is exposition text, a ``dict`` JSON."""
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        headers = {
            "Content-Type": content_type,
            "Content-Length": len(body),
            "Connection": "close" if close else "keep-alive",
            **(extra or {}),
        }
        lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}"]
        lines += [f"{name}: {value}" for name, value in headers.items()]
        sock.sendall(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)

    # -- routing -------------------------------------------------------

    def _route(
        self,
        method: str,
        target: str,
        headers: dict[str, str],
        body: bytes,
        ctx: _RequestContext,
    ) -> tuple[int, dict | str, dict]:
        path, _, query_string = target.partition("?")
        try:
            if path == "/health":
                self._require_method(method, "GET")
                return self._ep_health()
            if path == "/metrics":
                self._require_method(method, "GET")
                return 200, self._front.metrics_text(), {}
            if path == "/debug/slow":
                self._require_method(method, "GET")
                return self._ep_slow()
            if path == "/workload":
                self._require_method(method, "GET")
                return self._ep_workload(query_string)
            if path.startswith("/skim/"):
                self._require_method(method, "GET")
                return self._ep_skim(path[len("/skim/") :], headers)
            if path == "/query":
                self._require_method(method, "POST")
                return self._ep_query(headers, body, ctx)
            if path == "/admin/restart":
                self._require_method(method, "POST")
                return self._ep_admin_restart(headers, body)
            raise _HttpError(404, f"no such endpoint: {path}")
        except _HttpError as exc:
            return exc.status, {"error": exc.message}, {}
        except ReproError as exc:
            status = next(
                (code for kind, code in ERROR_STATUS if isinstance(exc, kind)), 500
            )
            extra = {"Retry-After": "1"} if status == 503 else {}
            return status, {"error": str(exc)}, extra

    @staticmethod
    def _require_method(method: str, expected: str) -> None:
        if method.upper() != expected:
            raise _HttpError(405, f"use {expected}")

    @staticmethod
    def _json_object(body: bytes) -> dict:
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequestError(f"malformed JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise BadRequestError("request body must be a JSON object")
        return payload

    def _resolve_user(self, headers: dict[str, str]) -> User | None:
        token = headers.get("x-auth-token")
        if token is None:
            return None
        user = self.config.tokens.get(token)
        if user is None:
            raise AccessDeniedError("unknown auth token")
        return user

    def _resolve_timeout(self, headers: dict[str, str]) -> float | None:
        raw = headers.get("x-deadline-ms")
        if raw is None:
            return None  # the front's own default applies
        try:
            deadline_ms = float(raw)
        except ValueError:
            deadline_ms = math.nan
        if not math.isfinite(deadline_ms):
            raise BadRequestError(f"invalid X-Deadline-Ms: {raw!r}")
        return deadline_ms / 1000.0

    # -- endpoints -----------------------------------------------------

    def _ep_query(
        self,
        headers: dict[str, str],
        body: bytes,
        ctx: _RequestContext,
    ) -> tuple[int, dict, dict]:
        payload = self._json_object(body)
        user = self._resolve_user(headers)
        timeout = self._resolve_timeout(headers)

        kind = payload.get("kind", "shot")
        features = None
        if payload.get("features") is not None:
            try:
                features = np.asarray(payload["features"], dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise BadRequestError(f"invalid features: {exc}") from None
        event = None
        if payload.get("event") is not None:
            try:
                event = EventKind(payload["event"])
            except ValueError:
                raise BadRequestError(
                    f"unknown event kind: {payload['event']!r}"
                ) from None
        try:
            k = int(payload.get("k", 10))
        except (TypeError, ValueError):
            raise BadRequestError("k must be an integer") from None

        def _int_knob(name: str) -> int | None:
            value = payload.get(name)
            if value is None:
                return None
            try:
                return int(value)
            except (TypeError, ValueError):
                raise BadRequestError(f"{name} must be an integer") from None

        request = QueryRequest(
            kind=str(kind),
            features=features,
            k=k,
            user=user,
            event=event,
            video_title=payload.get("video_title"),
            timeout=timeout,
            nprobe=_int_knob("nprobe"),
            rerank_k=_int_knob("rerank_k"),
            explain=bool(payload.get("explain", False)),
        )
        ctx.fanout = self._front.fanout
        result = self._front.query(request)
        return 200, _serialize_result(result), {}

    def _ep_skim(
        self, video_id: str, headers: dict[str, str]
    ) -> tuple[int, dict, dict]:
        self._resolve_user(headers)  # auth applies, scope does not: skims
        # expose only registration metadata, never feature content.
        if not video_id:
            raise UnknownVideoError("missing video id")
        records = self._front.records()
        record = records.get(video_id)
        if record is None:
            raise UnknownVideoError(f"video {video_id!r} is not registered")
        scenes = [
            {"scene_id": scene_id, "event": value}
            for scene_id, value in sorted(record.events.items())
        ]
        return (
            200,
            {
                "video_id": video_id,
                "shot_count": record.shot_count,
                "scene_count": record.scene_count,
                "scenes": scenes,
                "degraded_stages": list(record.degraded_stages),
            },
            {},
        )

    def _ep_slow(self) -> tuple[int, dict, dict]:
        log = get_slow_log()
        return (
            200,
            {
                "slow": [entry.to_json() for entry in log.entries()],
                "recorded": log.recorded,
                "capacity": log.capacity,
            },
            {},
        )

    def _ep_admin_restart(
        self, headers: dict[str, str], body: bytes
    ) -> tuple[int, dict, dict]:
        if self._cluster is None:
            raise _HttpError(404, "no shard cluster attached to this gateway")
        self._resolve_user(headers)  # admin rides the same token auth
        payload = self._json_object(body)
        rolling = bool(payload.get("rolling", False))
        shard = payload.get("shard")
        graceful = bool(payload.get("graceful", True))
        if not rolling and shard is None:
            raise BadRequestError("pass \"rolling\": true or a \"shard\" id")
        if rolling and shard is not None:
            raise BadRequestError("rolling and shard are mutually exclusive")

        try:
            if rolling:
                reports = self._cluster.restart_rolling(graceful=graceful)
            else:
                reports = [self._cluster.restart(int(shard), graceful=graceful)]
        except (TypeError, ValueError) as exc:
            raise BadRequestError(f"invalid shard id: {exc}") from None
        return (
            200,
            {
                "restarted": [report.to_json() for report in reports],
                "rolling": rolling,
            },
            {},
        )

    def _augment_cluster_health(self, report: HealthReport) -> HealthReport:
        """Append a worker-fleet check (alive count, per-shard respawns)."""
        alive = set(self._cluster.alive())
        total = self._cluster.spec.num_shards
        counts = self._cluster.respawn_counts()
        respawn_bits = [
            f"shard {sid}: {counts.get(sid, 0)} respawns"
            for sid in sorted(ep.shard_id for ep in self._cluster.endpoints)
        ]
        ok = len(alive) == total
        report.checks.append(
            HealthCheck(
                name="cluster",
                ok=ok,
                detail=(
                    f"{len(alive)}/{total} workers alive, "
                    f"{self._cluster.restarts} restarts; "
                    + ", ".join(respawn_bits)
                ),
            )
        )
        if not ok:
            report.degraded = True
        return report

    def _ep_health(self) -> tuple[int, dict, dict]:
        report = self._front.health_report()
        if self._cluster is not None:
            report = self._augment_cluster_health(report)
        status_code = {"ok": 200, "degraded": 207, "down": 503}[report.status]
        return (
            status_code,
            {
                "status": report.status,
                "live": report.live,
                "ready": report.ready,
                "degraded": report.degraded,
                "exit_code": report.exit_code,
                "checks": [
                    {"name": c.name, "ok": c.ok, "detail": c.detail}
                    for c in report.checks
                ],
            },
            {},
        )

    def _ep_workload(self, query_string: str) -> tuple[int, dict, dict]:
        n = 16
        for part in query_string.split("&"):
            if part.startswith("n="):
                try:
                    n = max(1, min(int(part[2:]), 512))
                except ValueError:
                    raise BadRequestError("n must be an integer") from None
        pool = self._front.sample_features(n)
        return (
            200,
            {"features": [[float(x) for x in vector] for vector in pool]},
            {},
        )
