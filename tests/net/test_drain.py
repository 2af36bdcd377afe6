"""Graceful drain and rolling restart: worker, cluster, coordinator.

The drain wire op is the graceful half of a rolling restart: a draining
worker finishes in-flight requests, refuses new work with a typed
response (which the coordinator retries — on the replacement, once the
cluster respawns it), and exits cleanly.  ``ShardCluster.restart`` /
``restart_rolling`` wrap that into one-shard-at-a-time cycles that the
watchdog must not fight.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.errors import RpcTransportError, ServingError, WorkerDrainingError
from repro.net.cluster import RestartReport, ShardCluster
from repro.net.coordinator import ShardedQueryService
from repro.net.protocol import ShardEndpoint
from repro.net.shard import build_shards
from repro.net.worker import ShardWorker
from repro.obs.registry import MetricsRegistry
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.serving.server import QueryRequest
from tests.net.conftest import coordinator_constants
from tests.net.test_equivalence import keys


def _swallow(endpoint, request) -> None:
    """Fire one RPC, ignoring its outcome (occupies the worker)."""
    try:
        endpoint.call(request, None)
    except ServingError:
        pass


class TestWorkerDrain:
    def test_drain_refuses_new_work_with_typed_response(
        self, tmp_path, net_db
    ):
        spec = build_shards(net_db, tmp_path, 1)
        worker = ShardWorker(
            spec.shard_dir(tmp_path, 0), registry=MetricsRegistry()
        ).start()
        endpoint = ShardEndpoint(0, "127.0.0.1", worker.port)
        # An idle drained worker tears down immediately, so pin the
        # drain window open with one in-flight request slowed by the
        # latency fault point — live connections stay answerable until
        # it completes.
        slow = FaultPlan(
            [FaultSpec("net.slow_shard", kind="latency", delay=2.0, limit=1)]
        )
        occupier = threading.Thread(
            target=lambda: _swallow(endpoint, {"op": "records"})
        )
        try:
            with inject(slow):
                occupier.start()
                deadline = time.perf_counter() + 5.0
                while not slow.fired() and time.perf_counter() < deadline:
                    time.sleep(0.01)
                assert slow.fired(), "occupier never reached the worker"
                ack = endpoint.call({"op": "drain", "grace": 5.0})
                assert ack["ok"] and ack["draining"]
                # Introspection stays answerable; query work is refused
                # with the typed error the retry loop understands.
                assert endpoint.call({"op": "ping"})["ok"]
                with pytest.raises(WorkerDrainingError):
                    endpoint.call({"op": "records"})
                assert worker.draining
            assert worker.join_drained(timeout=10.0)
        finally:
            occupier.join(timeout=10.0)
            endpoint.close()
            worker.stop()

    def test_drain_is_idempotent(self, tmp_path, net_db):
        spec = build_shards(net_db, tmp_path, 1)
        worker = ShardWorker(
            spec.shard_dir(tmp_path, 0), registry=MetricsRegistry()
        ).start()
        endpoint = ShardEndpoint(0, "127.0.0.1", worker.port)
        try:
            first = endpoint.call({"op": "drain", "grace": 5.0})
            assert first["draining"]
            try:
                second = endpoint.call({"op": "drain", "grace": 5.0})
            except RpcTransportError:
                # With nothing in flight the first drain can finish and
                # tear the worker down before the repeat lands — the
                # second drain finding no worker is equally idempotent.
                pass
            else:
                assert second["draining"]
            assert worker.join_drained(timeout=10.0)
        finally:
            endpoint.close()
            worker.stop()


@pytest.fixture(scope="module")
def restart_cluster(tmp_path_factory, net_db):
    root = tmp_path_factory.mktemp("restart-cluster")
    spec = build_shards(net_db, root, 2)
    cluster = ShardCluster(root, spec=spec, watchdog_interval=0.1).start()
    with coordinator_constants(rpc_retries=3, breaker_threshold=3, breaker_reset=0.2):
        service = ShardedQueryService(spec, cluster.endpoints)
    yield cluster, service
    service.close()
    cluster.stop()


def _pingable(cluster, shard_id, timeout=20.0) -> bool:
    endpoint = next(
        ep for ep in cluster.endpoints if ep.shard_id == shard_id
    )
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        try:
            if endpoint.call({"op": "ping"}).get("ok"):
                return True
        except ServingError:
            time.sleep(0.05)
    return False


class TestClusterRestart:
    def test_graceful_restart_replaces_process_without_watchdog(
        self, restart_cluster
    ):
        cluster, service = restart_cluster
        old_pid = cluster._procs[0].pid
        respawns_before = cluster.respawn_counts()
        report = cluster.restart(0, graceful=True, drain_timeout=20.0)
        assert isinstance(report, RestartReport)
        assert report.shard_id == 0
        assert report.graceful
        assert report.seconds > 0
        assert cluster._procs[0].pid != old_pid
        # A deliberate restart counts as a restart, not a crash: the
        # watchdog stays fenced off and spawns no second replacement.
        assert cluster.respawn_counts() == respawns_before
        assert cluster.restarts >= 1
        assert _pingable(cluster, 0)

    def test_restart_report_serialises(self, restart_cluster):
        cluster, _ = restart_cluster
        report = cluster.restart(1, graceful=True, drain_timeout=20.0)
        payload = report.to_json()
        assert payload["shard"] == 1
        assert payload["graceful"] is True
        assert payload["seconds"] >= 0
        assert _pingable(cluster, 1)

    def test_unknown_shard_is_refused(self, restart_cluster):
        cluster, _ = restart_cluster
        with pytest.raises(ServingError, match="no running worker"):
            cluster.restart(99)

    def test_rolling_restart_under_light_load(
        self, restart_cluster, net_db, reference
    ):
        cluster, service = restart_cluster
        rng = np.random.default_rng(9)
        shape = net_db.flat_index.entries[0].features.shape
        probe = rng.random(shape)
        stop = threading.Event()
        failures: list[str] = []

        def _client():
            local = np.random.default_rng(10)
            while not stop.is_set():
                request = QueryRequest(
                    kind="shot", features=local.random(shape), k=5
                )
                for _ in range(2):  # the repeat may hit the cache
                    try:
                        result = service.query(request)
                    except Exception as exc:
                        failures.append(f"{type(exc).__name__}: {exc}")
                        continue
                    if result.shards_missing and result.cache_hit:
                        failures.append("a degraded answer was served from the cache")

        client = threading.Thread(target=_client)
        client.start()
        try:
            reports = cluster.restart_rolling(drain_timeout=20.0)
        finally:
            stop.set()
            client.join(timeout=10.0)
        assert [r.shard_id for r in reports] == [0, 1]
        assert all(r.graceful for r in reports)
        assert not failures, f"queries failed during the cycle: {failures[:3]}"
        # Full strength again: the next query sees every shard, bit for bit.
        request = QueryRequest(kind="shot", features=probe, k=5)
        deadline = time.perf_counter() + 20.0
        while time.perf_counter() < deadline:
            result = service.query(request)
            if not result.shards_missing:
                assert keys(result) == keys(reference.query(request))
                return
            time.sleep(0.1)
        pytest.fail("cluster never returned to full strength after the cycle")
