"""One front surface, three fronts: in-process, sharded, remote.

Everything above a query front — the gateway, the load generator, the
health command — is written once against
:class:`~repro.serving.engine.QueryFront`.  Each case here runs against
the in-process :class:`QueryServer`, a 2-shard in-process cluster and an
:class:`HttpFront` on a gateway over that same server, and must read
the same on all three: answers, samples, health, typed errors, load.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from repro.cli import main
from repro.database.access import User
from repro.errors import (
    AccessDeniedError,
    BadRequestError,
    DeadlineExpiredError,
    FaultInjectedError,
    OverloadedError,
    ServingError,
    UnknownVideoError,
)
from repro.net.client import HttpFront
from repro.net.gateway import GatewayConfig, HttpGateway
from repro.net.protocol import pack_array
from repro.obs.export import validate_prometheus_text
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.serving.loadgen import LoadgenConfig, run_load
from repro.serving.server import QueryRequest, QueryServer, ServerConfig
from repro.storage.lazy import SQLVideoDatabase
from repro.types import EventKind

from .test_equivalence import keys
from .test_gateway import held_query
from .test_lifecycle_contract import MALFORMED


@pytest.fixture(scope="module")
def gateway(reference):
    config = GatewayConfig(tokens={"tok-surgeon": User("surgeon", clearance=3)})
    with HttpGateway(reference, config) as running:
        yield running


@pytest.fixture(scope="module")
def harness(make_harness):
    return make_harness(2)


@pytest.fixture(scope="module")
def sharded(harness):
    return harness.service


@pytest.fixture(scope="module", params=["single", "sharded", "http"])
def front(request, reference, sharded, gateway):
    if request.param == "http":
        return HttpFront(gateway.url)
    return reference if request.param == "single" else sharded


def test_stored_probes_answer_alike(front, reference):
    stored = reference.sample_features(8)
    assert len(stored) == 8
    requests = [
        QueryRequest(kind=kind, features=probe, k=10)
        for probe in stored
        for kind in ("shot", "shot_flat", "scene")
    ]
    requests.append(QueryRequest(kind="event", event=EventKind.DIALOG))
    for request in requests:
        mine, theirs = front.query(request), reference.query(request)
        assert keys(mine) == keys(theirs) and mine.hits
        assert mine.comparisons == theirs.comparisons
        assert not mine.degraded and not mine.shards_missing


def test_a_hit_is_an_identity_and_a_score(front, reference, net_db):
    """Payloads: the corpus row in process, ``None`` once a wire was crossed."""
    shots = {entry.key: entry.features for entry in net_db.flat_index.entries}
    scenes = {
        (entry.video_title, entry.scene_id): entry.centroid
        for entry in net_db.scene_index.entries
    }
    for probe in reference.sample_features(4):
        for kind in ("shot", "shot_flat", "scene"):
            request = QueryRequest(kind=kind, features=probe, k=10)
            mine = front.query(request)
            assert keys(mine) == keys(reference.query(request)) and mine.hits
            for hit in mine.hits:
                if kind == "scene":
                    payload = hit.entry.centroid
                    row = scenes[hit.entry.video_title, hit.entry.scene_id]
                else:
                    payload, row = hit.entry.features, shots[hit.entry.key]
                if front is reference:
                    assert payload.tobytes() == row.tobytes()
                else:
                    assert payload is None


def test_shard_answers_carry_no_feature_payload(harness, reference):
    probe = reference.sample_features(1)[0]
    worker = harness.workers[0]
    leaves = list(worker._state.leaves)  # noqa: SLF001
    for op in ("probe", "flat", "scene"):
        request = {"op": op, "features": pack_array(probe), "k": 10, "leaves": leaves}
        response = worker._dispatch(request)  # noqa: SLF001
        assert response["ok"] and response["leaves"]
        assert "features" not in response and "centroids" not in response


def test_samples_health_records_and_metrics(front, reference, net_db):
    corpus = {entry.features.tobytes() for entry in net_db.flat_index.entries}
    sample = front.sample_features(8)
    assert len(sample) == 8
    assert all(v.shape == (266,) and v.tobytes() in corpus for v in sample)
    # One sampler: every front hands out the in-process front's vectors.
    assert [v.tobytes() for v in sample] == [
        v.tobytes() for v in reference.sample_features(8)
    ]
    report = front.health_report()
    assert report.exit_code == 0, report.render()
    if not isinstance(front, HttpFront):  # the serving half of the surface
        assert sorted(front.records()) == sorted(reference.records())
        assert front.metrics_text().startswith("#")
        assert validate_prometheus_text(front.metrics_text()) == []
        assert front.fanout == (1 if front is reference else 2)


def test_typed_errors_are_the_same_type(front, reference):
    probe = reference.sample_features(1)[0]
    for fields, message in (MALFORMED[0], MALFORMED[5], MALFORMED[6]):
        with pytest.raises(BadRequestError, match=message):
            front.query(QueryRequest(**{"features": probe, **fields}))
    with pytest.raises(UnknownVideoError, match="not registered"):
        front.query(
            QueryRequest(kind="event", event=EventKind.DIALOG, video_title="no-such")
        )
    answered = QueryRequest(kind="shot_flat", features=probe)
    assert front.query(answered).hits  # ...and so cached: the clock is read first
    with pytest.raises(DeadlineExpiredError, match="deadline"):
        front.query(replace(answered, timeout=1e-9))


@pytest.fixture(params=["single", "sharded"])
def narrow_front(request, make_harness, single_dir):
    """A front that runs its own queries (the remote one is a client half)
    and admits one at a time."""
    if request.param == "sharded":
        yield make_harness(2, queue_depth=1).service
        return
    database = SQLVideoDatabase.open(single_dir)
    with QueryServer(database, ServerConfig(queue_depth=1)) as server:
        yield server
    database.close()


def test_errors_and_spent_deadlines_are_counted_once(narrow_front, reference):
    """Whoever refuses a query — the front itself or a gateway over it —
    the front counts the refusal, once."""
    front = narrow_front
    request = QueryRequest(kind="shot", features=reference.sample_features(1)[0])
    counter = front.count
    with HttpGateway(front) as gateway:
        for client in (front, HttpFront(gateway.url)):
            errors, timeouts = counter("errors"), counter("deadline_timeouts")
            rejected = counter("rejected_overload")
            with inject(FaultPlan([FaultSpec(point="serve.query", kind="error", limit=1)])):
                # Over HTTP the untyped-for-the-wire fault is a 500.
                with pytest.raises(FaultInjectedError if client is front else ServingError):
                    client.query(request)
            # ``X-Deadline-Ms: 0.0`` over HTTP: spent on arrival.
            with pytest.raises(DeadlineExpiredError, match="spent on arrival"):
                client.query(replace(request, timeout=0.0))
            with held_query(front, request) as held:
                with pytest.raises(OverloadedError, match="1 queries in flight"):
                    client.query(request)
            assert held.result(timeout=5.0).hits
            assert counter("errors") == errors + 1
            assert counter("deadline_timeouts") == timeouts + 1
            assert counter("rejected_overload") == rejected + 1


def test_an_untyped_backend_failure_is_a_serving_error(
    front, reference, sharded, monkeypatch
):
    server = sharded if front is sharded else reference
    pin = server._pin  # noqa: SLF001

    class Broken:
        """The pinned backend, except that its scan raises a bare KeyError."""

        def __init__(self):
            self._backend = pin()

        def __getattr__(self, name):
            return getattr(self._backend, name)

        def run(self, *_args):
            raise KeyError("leaf-7")

    monkeypatch.setattr(server, "_pin", Broken)
    probe = reference.sample_features(2)[1] * 0.25  # nothing cached answers it
    # Over HTTP this is a 500 with a JSON body, not a dropped connection.
    prefix = "HTTP 500: " if isinstance(front, HttpFront) else ""
    expected = f"^{prefix}query execution failed: 'leaf-7'"
    with pytest.raises(ServingError, match=expected) as raised:
        front.query(QueryRequest(kind="shot", features=probe))
    assert type(raised.value) is ServingError


def test_closed_sharded_front_reports_down(make_harness, reference):
    service = make_harness(2).service
    assert service.health_report().live
    service.close()
    report = service.health_report()  # no scatter: the pool is shut
    assert (report.live, report.status, report.exit_code) == (False, "down", 2)
    probe = reference.sample_features(1)[0]
    with pytest.raises(ServingError, match="not running"):
        service.query(QueryRequest(kind="shot", features=probe))


def test_a_shard_silent_past_the_deadline_fails_the_query(sharded, reference):
    """The partial merge is ready at the deadline's far side: late, so refused."""
    probe = reference.sample_features(3)[2] * 0.5  # nothing cached answers it
    request = QueryRequest(kind="shot_flat", features=probe, timeout=0.2)
    counter = sharded.count
    timeouts, errors = counter("deadline_timeouts"), counter("errors")
    slow = FaultSpec("net.slow_shard", kind="latency", delay=0.6, limit=1)
    with inject(FaultPlan([slow])) as plan:
        with pytest.raises(DeadlineExpiredError, match="exceeded before the answer"):
            sharded.query(request)
    assert plan.fired() == 1
    assert (counter("deadline_timeouts"), counter("errors")) == (timeouts + 1, errors)
    # Nothing partial was cached, and the next query finds both shards.
    healed = sharded.query(replace(request, timeout=None))
    assert not healed.cache_hit and not healed.shards_missing
    assert keys(healed) == keys(reference.query(replace(request, timeout=None)))


def test_http_only_errors(gateway, reference):
    probe = reference.sample_features(1)[0]
    request = QueryRequest(kind="shot", features=probe, k=3)
    known = HttpFront(gateway.url, token="tok-surgeon").query(request)
    assert keys(known) == keys(reference.query(request))
    with pytest.raises(AccessDeniedError, match="unknown auth token"):
        HttpFront(gateway.url, token="intruder").query(request)
    # One identity per front: a per-request user is refused, not dropped.
    with pytest.raises(BadRequestError, match="one identity"):
        HttpFront(gateway.url).query(
            QueryRequest(kind="shot", features=probe, user=User("u", clearance=3))
        )


def test_http_front_rebuilds_the_type_from_the_status():
    """Against literal statuses, not the gateway's table: the two must agree."""

    class Canned(BaseHTTPRequestHandler):
        def do_POST(self):  # noqa: N802 - http.server's naming
            status = int(self.headers["X-Deadline-Ms"].split(".")[0])
            self.rfile.read(int(self.headers["Content-Length"]))
            body = b'{"error": "canned"}'
            self.send_response(status)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *_args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Canned)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        front = HttpFront(f"http://127.0.0.1:{server.server_port}")
        for status, kind in (
            (400, BadRequestError),
            (401, AccessDeniedError),
            (404, UnknownVideoError),
            (503, OverloadedError),
            (504, DeadlineExpiredError),
            (500, ServingError),
            (502, ServingError),
        ):
            with pytest.raises(kind, match=f"HTTP {status}: canned") as raised:
                # The stub answers the status it finds in the deadline header.
                front.query(QueryRequest(kind="event", timeout=status / 1e3))
            assert type(raised.value) is kind
    finally:
        server.shutdown()
        server.server_close()


def test_saturated_gateway_is_overloaded(net_db, reference):
    request = QueryRequest(kind="shot", features=reference.sample_features(1)[0])
    with QueryServer(net_db, ServerConfig(queue_depth=1)) as server, HttpGateway(
        server
    ) as gateway:
        with held_query(server, request) as held:
            with pytest.raises(OverloadedError, match="HTTP 503: 1 queries in flight"):
                HttpFront(gateway.url).query(request)
        assert held.result(timeout=5.0).hits


def test_one_load_generator_drives_every_front(front):
    report = run_load(front, LoadgenConfig(clients=2, duration=0.3, timeout=5.0))
    assert report.failures == []
    assert report.errors == 0
    assert report.completed > 0
    assert report.generations == {1}


def test_http_load_honours_the_ann_knobs(gateway):
    reranked = []

    def on_result(request, result):
        if request.kind == "shot":
            reranked.append(result.reranked)

    report = run_load(
        HttpFront(gateway.url),
        LoadgenConfig(clients=2, duration=0.3, timeout=5.0, nprobe=4),
        on_result=on_result,
    )
    assert report.failures == [] and report.errors == 0
    assert reranked and all(count > 0 for count in reranked)
    argv = ["loadtest", "--http", gateway.url, "--nprobe", "4", "--duration", "0.3"]
    assert main(argv) == 0


def test_load_report_classifies_by_error_type(reference):
    """Overload is ``rejected``, a spent deadline ``timeouts``, the rest ``errors``."""

    class Flaky:
        calls = 0

        def sample_features(self, n):
            return reference.sample_features(n)

        def query(self, request):
            self.calls += 1  # one client: no lock
            turn = self.calls % 4
            if turn == 0:
                raise OverloadedError("queue full")
            if turn == 1:
                raise DeadlineExpiredError("deadline spent")
            if turn == 2:
                raise UnknownVideoError("the front broke")
            return reference.query(request)

    report = run_load(
        Flaky(), LoadgenConfig(clients=1, duration=5.0, requests_per_client=8)
    )
    assert (report.rejected, report.timeouts, report.errors, report.completed) == (
        2, 2, 2, 2
    )
    assert report.failures == ["client 0: UnknownVideoError: the front broke"]
    assert report.degraded == 0
