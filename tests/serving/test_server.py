"""QueryServer: correctness, admission control, deadlines, lifecycle."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import OverloadedError, ServingError
from repro.serving.server import QueryRequest, QueryServer, ServerConfig
from repro.types import EventKind


@pytest.fixture()
def server(serving_db):
    with QueryServer(serving_db, ServerConfig(workers=2, queue_depth=8)) as srv:
        yield srv


class TestCorrectness:
    def test_shot_results_match_direct_search(self, server, serving_db, demo_features):
        features = demo_features(2)
        served = server.query(QueryRequest(kind="shot", features=features, k=3))
        direct = serving_db.search(features, k=3)
        assert [h.entry.key for h in served.hits] == [
            h.entry.key for h in direct.hits
        ]
        assert served.generation == 1
        assert not served.cache_hit
        assert served.comparisons == direct.stats.comparisons

    def test_flat_results_match_direct_scan(self, server, serving_db, demo_features):
        features = demo_features(2)
        served = server.query(QueryRequest(kind="shot_flat", features=features, k=3))
        direct = serving_db.search_flat(features, k=3)
        assert [h.entry.key for h in served.hits] == [
            h.entry.key for h in direct.hits
        ]

    def test_scene_and_event_kinds(self, server, demo_features):
        scenes = server.query(QueryRequest(kind="scene", features=demo_features(0), k=2))
        assert scenes.hits
        events = server.query(QueryRequest(kind="event", event=EventKind.DIALOG))
        assert all(hit.event is EventKind.DIALOG for hit in events.hits)

    def test_repeat_is_a_cache_hit_with_identical_hits(self, server, demo_features):
        request = QueryRequest(kind="shot", features=demo_features(1), k=5)
        cold = server.query(request)
        warm = server.query(request)
        assert not cold.cache_hit and warm.cache_hit
        assert [h.entry.key for h in warm.hits] == [h.entry.key for h in cold.hits]
        assert server.metrics.counter("cache_hits") == 1

    def test_submit_returns_a_future(self, server, demo_features):
        future = server.submit(QueryRequest(kind="shot", features=demo_features(0)))
        result = future.result(timeout=5)
        assert result.hits


class TestValidation:
    def test_unknown_kind(self, server, demo_features):
        with pytest.raises(ServingError, match="unknown query kind"):
            server.query(QueryRequest(kind="nope", features=demo_features(0)))

    def test_missing_features(self, server):
        with pytest.raises(ServingError, match="feature vector"):
            server.query(QueryRequest(kind="shot"))

    def test_event_needs_kind(self, server):
        with pytest.raises(ServingError, match="EventKind"):
            server.query(QueryRequest(kind="event"))

    def test_flat_refuses_access_filtering(self, server, demo_features):
        from repro.database.access import User

        with pytest.raises(ServingError, match="flat baseline"):
            server.query(
                QueryRequest(
                    kind="shot_flat",
                    features=demo_features(0),
                    user=User("u", clearance=3),
                )
            )

    def test_bad_k(self, server, demo_features):
        with pytest.raises(ServingError, match="k must be"):
            server.query(QueryRequest(kind="shot", features=demo_features(0), k=0))

    def test_constructor_needs_exactly_one_source(self, serving_db):
        from repro.serving.snapshot import SnapshotManager

        with pytest.raises(ServingError):
            QueryServer()
        with pytest.raises(ServingError):
            QueryServer(serving_db, manager=SnapshotManager(serving_db))

    def test_bad_config(self):
        with pytest.raises(ServingError):
            ServerConfig(workers=0)
        with pytest.raises(ServingError):
            ServerConfig(queue_depth=0)


class TestLifecycle:
    def test_stopped_server_rejects(self, serving_db, demo_features):
        server = QueryServer(serving_db)
        with pytest.raises(ServingError, match="not running"):
            server.query(QueryRequest(kind="shot", features=demo_features(0)))

    def test_stop_drains_and_is_idempotent(self, serving_db, demo_features):
        server = QueryServer(serving_db).start()
        future = server.submit(QueryRequest(kind="shot", features=demo_features(0)))
        server.stop()
        server.stop()
        assert future.result(timeout=1).hits
        assert not server.running


def _block_execution(server):
    """Patch the server so every query blocks until the gate opens."""
    gate = threading.Event()
    entered = threading.Event()
    original = server.engine.execute

    def blocked(request, deadline=None):
        entered.set()
        assert gate.wait(timeout=10), "test gate never opened"
        return original(request, deadline)

    server.engine.execute = blocked
    return gate, entered


class TestAdmissionControl:
    def test_full_queue_raises_overloaded(self, serving_db, demo_features):
        with QueryServer(
            serving_db, ServerConfig(workers=1, queue_depth=1, default_timeout=None)
        ) as server:
            gate, entered = _block_execution(server)
            request = QueryRequest(kind="shot", features=demo_features(0))
            in_flight = server.submit(request)
            assert entered.wait(timeout=5)  # worker holds request 1
            queued = server.submit(request)  # fills the only queue slot
            with pytest.raises(OverloadedError):
                server.submit(request)
            assert server.metrics.counter("rejected_overload") == 1
            gate.set()
            assert in_flight.result(timeout=5).hits
            assert queued.result(timeout=5).hits

    def test_wait_deadline_raises_serving_error(self, serving_db, demo_features):
        with QueryServer(
            serving_db, ServerConfig(workers=1, queue_depth=4, default_timeout=None)
        ) as server:
            gate, entered = _block_execution(server)
            blocker = server.submit(QueryRequest(kind="shot", features=demo_features(0)))
            assert entered.wait(timeout=5)
            with pytest.raises(ServingError, match="deadline"):
                server.query(
                    QueryRequest(kind="shot", features=demo_features(1), timeout=0.05)
                )
            assert server.metrics.counter("deadline_timeouts") >= 1
            gate.set()
            assert blocker.result(timeout=5).hits

    def test_queued_request_expires_without_executing(self, serving_db, demo_features):
        with QueryServer(
            serving_db, ServerConfig(workers=1, queue_depth=4, default_timeout=None)
        ) as server:
            gate, entered = _block_execution(server)
            blocker = server.submit(QueryRequest(kind="shot", features=demo_features(0)))
            assert entered.wait(timeout=5)
            doomed = server.submit(
                QueryRequest(kind="shot", features=demo_features(1), timeout=0.02)
            )
            time.sleep(0.1)  # let the deadline lapse while still queued
            gate.set()
            with pytest.raises(ServingError, match="queued"):
                doomed.result(timeout=5)
            assert blocker.result(timeout=5).hits


class TestGenerationSwap:
    def test_refresh_evicts_stale_cache_and_bumps_generation(
        self, server, serving_db, retitle, demo_features
    ):
        request = QueryRequest(kind="shot", features=demo_features(0), k=5)
        first = server.query(request)
        assert server.query(request).cache_hit
        serving_db.register(retitle("demo2"))
        server.refresh()
        again = server.query(request)
        assert not again.cache_hit  # prior entry is unreachable and evicted
        assert again.generation == first.generation + 1
        assert server.cache.stats().stale_evictions >= 1
        assert server.metrics.counter("generation_swaps") >= 1
