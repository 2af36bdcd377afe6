"""QueryServer: correctness, admission control, deadlines, lifecycle."""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor, TimeoutError as FutureTimeout

import numpy as np
import pytest

from repro.database.query import search_hierarchical
from repro.errors import DeadlineExpiredError, OverloadedError, ServingError
from repro.serving.server import (
    QueryRequest,
    QueryServer,
    ServerConfig,
    ServingResult,
)
from repro.types import EventKind


@pytest.fixture()
def helper():
    """Threads for the calls a test must hold in flight while it looks on."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        yield pool


@pytest.fixture()
def server(serving_db):
    with QueryServer(serving_db, ServerConfig(queue_depth=8)) as srv:
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
        assert server.cache.stats().hits == 1

    def test_eight_caller_threads_match_direct_search_across_a_refresh(
        self, server, serving_db
    ):
        """The front's shared state under callers that bring their own thread."""
        entries = serving_db.flat_index.entries
        rng = np.random.default_rng(7)
        probes = [
            entries[i % len(entries)].features + rng.normal(0.0, 0.01, 266)
            for i in range(8 * 50)
        ]
        answers: dict[int, ServingResult] = {}

        def caller(lane: int) -> None:
            for i in range(lane, len(probes), 8):
                if i == 8 * 20:  # lane 0, mid-run: same corpus, next generation
                    server.refresh()
                request = QueryRequest(kind="shot", features=probes[i], k=3)
                answers[i] = server.query(request)

        threads = [threading.Thread(target=caller, args=(n,)) for n in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(answers) == list(range(len(probes)))
        for i, served in answers.items():
            direct = search_hierarchical(serving_db.index_root, probes[i], k=3)
            assert [(h.entry.key, h.score) for h in served.hits] == [
                (h.entry.key, h.score) for h in direct.hits
            ]
            assert served.comparisons == direct.stats.comparisons
        assert {served.generation for served in answers.values()} == {1, 2}
        assert server.count("queries_total") == len(probes)
        assert server.in_flight == 0


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
            ServerConfig(queue_depth=0)

    @pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan"), float("inf")])
    def test_default_deadline_must_be_finite_and_positive(self, timeout):
        # A spent default refuses every query while health reads ok; nan
        # and inf switch deadlines off.  Neither builds a front.
        with pytest.raises(ServingError, match="default_timeout must be finite and > 0"):
            ServerConfig(default_timeout=timeout)

    def test_unset_default_deadline_is_no_deadline(self, serving_db, demo_features):
        with QueryServer(serving_db, ServerConfig(default_timeout=None)) as server:
            assert server.query(QueryRequest(kind="shot", features=demo_features(0))).hits


class TestLifecycle:
    def test_stopped_server_rejects(self, serving_db, demo_features):
        server = QueryServer(serving_db)
        with pytest.raises(ServingError, match="not running"):
            server.query(QueryRequest(kind="shot", features=demo_features(0)))

    def test_stop_drains_and_is_idempotent(self, serving_db, demo_features, helper):
        server = QueryServer(serving_db).start()
        gate, entered = _block_execution(server)
        request = QueryRequest(kind="shot", features=demo_features(0))
        held = helper.submit(server.query, request)
        assert entered.wait(timeout=5)
        stopping = helper.submit(server.stop)
        with pytest.raises(FutureTimeout):  # stop() waits for the query in flight
            stopping.result(timeout=0.2)
        # ...refusing new ones meanwhile, and still counting the one it waits for.
        assert not server.running and server.in_flight == 1
        assert server.health_report().status == "down"
        gate.set()
        stopping.result(timeout=5)
        assert held.result(timeout=5).hits
        server.stop()
        assert not server.running
        with pytest.raises(ServingError, match="not running"):
            server.query(request)

    def test_the_front_owns_no_thread(self, serving_db, demo_features):
        before = threading.active_count()
        server = QueryServer(serving_db).start()
        assert threading.active_count() == before
        for index in range(50):
            server.query(QueryRequest(kind="shot", features=demo_features(index % 4)))
        assert threading.active_count() == before
        server.stop()
        assert threading.active_count() == before


def _block_execution(server):
    """Patch the server so every query blocks until the gate opens."""
    gate = threading.Event()
    entered = threading.Event()
    original = server.execute

    def blocked(request, deadline=None):
        entered.set()
        assert gate.wait(timeout=10), "test gate never opened"
        return original(request, deadline)

    server.execute = blocked
    return gate, entered


class TestAdmissionControl:
    def test_full_queue_raises_overloaded(self, serving_db, demo_features, helper):
        with QueryServer(
            serving_db, ServerConfig(queue_depth=1, default_timeout=None)
        ) as server:
            gate, entered = _block_execution(server)
            request = QueryRequest(kind="shot", features=demo_features(0))
            in_flight = helper.submit(server.query, request)
            assert entered.wait(timeout=5)  # holds the only permit
            with pytest.raises(OverloadedError):
                server.query(request)
            assert server.count("rejected_overload") == 1
            gate.set()
            assert in_flight.result(timeout=5).hits

    def test_wait_deadline_raises_serving_error(
        self, serving_db, demo_features, helper
    ):
        with QueryServer(
            serving_db, ServerConfig(queue_depth=4, default_timeout=None)
        ) as server:
            gate, entered = _block_execution(server)
            late = helper.submit(
                server.query,
                QueryRequest(kind="shot", features=demo_features(1), timeout=0.05),
            )
            assert entered.wait(timeout=5)
            threading.Event().wait(0.1)  # the deadline lapses mid-execution
            gate.set()
            with pytest.raises(DeadlineExpiredError, match="deadline"):
                late.result(timeout=5)
            assert server.count("deadline_timeouts") == 1
            assert server.count("errors") == 0


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
        assert server.count("generation_swaps") >= 1
