"""The client half of a query front, over HTTP.

:class:`HttpFront` is :mod:`repro.net.gateway` read from the other end:
``query`` / ``health_report`` / ``sample_features`` of
:class:`~repro.serving.engine.QueryFront` against a *running* gateway,
plus the two operator calls only a remote caller needs (``restart``,
``slow_log``).  It is the only HTTP client in the program — the load
generator, ``classminer health --url``, ``shard restart`` and ``obs slow
--url`` all go through it — so status handling is spelled once: a
non-2xx answer raises the error type :data:`~repro.net.gateway.ERROR_STATUS`
lists for that status, with the server's message.

Answers are rebuilt into the same :class:`~repro.serving.engine.ServingResult`
the in-process fronts return — ids and scores bit for bit (JSON floats
round-trip exactly).  A hit is an identity and a score: like every hit
that crossed a wire its ``entry.features`` / ``entry.centroid`` is
``None`` (the :class:`~repro.serving.engine.QueryFront` contract).
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.parse

import numpy as np

from repro.database.events_query import EventHit
from repro.database.index import ShotEntry
from repro.database.query import RankedShot
from repro.database.scene_search import RankedScene, SceneEntry
from repro.errors import BadRequestError, DeadlineExpiredError, ServingError
from repro.net.gateway import ERROR_STATUS
from repro.resilience.health import HealthCheck, HealthReport
from repro.serving.engine import QueryRequest, ServingResult
from repro.types import EventKind


def _hit_from_json(kind: str, hit: dict):
    if kind in ("shot", "shot_flat"):
        entry = ShotEntry(
            hit["video_title"], int(hit["shot_id"]), int(hit["scene_id"]), features=None
        )
        return RankedShot(entry, float(hit["score"]))
    event = EventKind(hit["event"])
    if kind == "scene":
        entry = SceneEntry(
            hit["video_title"],
            int(hit["scene_id"]),
            event,
            int(hit["shot_count"]),
            centroid=None,
        )
        return RankedScene(entry, float(hit["score"]))
    return EventHit(hit["video_title"], int(hit["scene_id"]), event, hit["concept"])


def _result_from_json(payload: dict) -> ServingResult:
    kind = payload["kind"]
    return ServingResult(
        kind=kind,
        hits=tuple(_hit_from_json(kind, hit) for hit in payload["hits"]),
        generation=int(payload["generation"]),
        cache_hit=bool(payload["cache_hit"]),
        elapsed_seconds=float(payload["elapsed_ms"]) / 1000.0,
        comparisons=int(payload["comparisons"]),
        degraded=bool(payload["degraded"]),
        shards_missing=tuple(payload["shards_missing"]),
        approx_comparisons=int(payload["approx_comparisons"]),
        reranked=int(payload["reranked"]),
        explain=payload.get("explain"),
    )


class HttpFront:
    """A running gateway, called like the front behind it.

    ``token`` is the one identity every call carries (``X-Auth-Token``);
    ``timeout`` is the socket timeout, which should outlast the longest
    request deadline sent.  Each calling thread keeps one keep-alive
    connection, dropped (and re-made on the next call) after any
    transport failure.
    """

    def __init__(
        self, url: str, token: str | None = None, timeout: float = 10.0
    ) -> None:
        parsed = urllib.parse.urlsplit(url if "//" in url else f"http://{url}")
        if parsed.scheme != "http":
            raise ServingError(f"only http:// urls are supported, got {url!r}")
        self._address = (parsed.hostname or "127.0.0.1", parsed.port or 80)
        self._base = parsed.path.rstrip("/")
        self.url = f"http://{self._address[0]}:{self._address[1]}{self._base}"
        self._token = token
        self.timeout = timeout
        self._local = threading.local()

    def _exchange(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        timeout: float | None = None,
    ) -> tuple[int, bytes]:
        """One request on this thread's connection: ``(status, body)``."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = http.client.HTTPConnection(
                *self._address, timeout=self.timeout
            )
        headers = {}
        if timeout is not None:
            headers["X-Deadline-Ms"] = repr(timeout * 1e3)
        if self._token is not None:
            headers["X-Auth-Token"] = self._token
        body = None
        if payload is not None:
            headers["Content-Type"] = "application/json"
            body = json.dumps(payload)
        try:
            conn.request(method, self._base + path, body, headers)
            response = conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            conn.close()
            raise

    def _call(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        timeout: float | None = None,
    ) -> dict:
        """Exchange JSON; a non-2xx status raises the type it stands for."""
        try:
            status, raw = self._exchange(method, path, payload, timeout)
        except TimeoutError as exc:
            raise DeadlineExpiredError(
                f"no answer from {self.url} within {self.timeout}s"
            ) from exc
        except (OSError, http.client.HTTPException) as exc:
            raise ServingError(f"{self.url} unreachable: {exc}") from exc
        try:
            answer = json.loads(raw)
        except ValueError:
            answer = None
        if not isinstance(answer, dict):
            raise ServingError(f"HTTP {status} from {self.url}: not a gateway answer")
        if 200 <= status < 300:
            return answer
        kind = next((kind for kind, code in ERROR_STATUS if code == status), ServingError)
        raise kind(f"HTTP {status}: {answer.get('error', '')}")

    # -- the front surface ---------------------------------------------

    def query(self, request: QueryRequest) -> ServingResult:
        """``POST /query``; ``request.timeout`` travels as ``X-Deadline-Ms``."""
        if request.user is not None:
            raise BadRequestError(
                "an HttpFront carries one identity, its token; "
                "requests through it must leave user unset"
            )
        body: dict = {"kind": request.kind, "k": request.k}
        if request.features is not None:
            body["features"] = np.asarray(request.features, dtype=np.float64).tolist()
        if request.event is not None:
            body["event"] = request.event.value
        for knob in ("video_title", "nprobe", "rerank_k"):
            if getattr(request, knob) is not None:
                body[knob] = getattr(request, knob)
        if request.explain:
            body["explain"] = True
        return _result_from_json(self._call("POST", "/query", body, request.timeout))

    def sample_features(self, n: int = 16) -> list[np.ndarray]:
        """``GET /workload``: up to ``n`` stored feature vectors."""
        answer = self._call("GET", f"/workload?n={int(n)}")
        return [np.asarray(row, dtype=np.float64) for row in answer["features"]]

    def health_report(self) -> HealthReport:
        """``GET /health`` as a report; an unreachable gateway reads *down*.

        Never raises, so ``classminer health --url`` keeps its 0/1/2
        exit-code contract for dead servers too (a 503 carries the JSON
        verdict like any other answer).
        """
        try:
            _status, raw = self._exchange("GET", "/health")
            payload = json.loads(raw)
            return HealthReport(
                live=bool(payload["live"]),
                ready=bool(payload["ready"]),
                degraded=bool(payload["degraded"]),
                checks=[
                    HealthCheck(
                        str(check["name"]), bool(check["ok"]), str(check.get("detail", ""))
                    )
                    for check in payload.get("checks", [])
                ],
            )
        except (OSError, http.client.HTTPException, ValueError, KeyError, TypeError) as exc:
            detail = f"no health verdict from {self.url}: {exc}"
            return HealthReport(
                live=False, ready=False, degraded=True,
                checks=[HealthCheck("http", False, detail)],
            )

    # -- operator calls ------------------------------------------------

    def restart(
        self, *, rolling: bool = False, shard: int | None = None, graceful: bool = True
    ) -> dict:
        """``POST /admin/restart`` (``classminer shard restart --url``).

        A rolling restart waits for each worker to answer pings before
        the next is cycled: construct the front with a generous
        ``timeout``.  A gateway that runs no shard cluster answers 404.
        """
        body: dict = {"graceful": graceful}
        if rolling:
            body["rolling"] = True
        if shard is not None:
            body["shard"] = int(shard)
        return self._call("POST", "/admin/restart", body)

    def slow_log(self) -> dict:
        """``GET /debug/slow``: ``{"slow": [...], "recorded", "capacity"}``."""
        return self._call("GET", "/debug/slow")
