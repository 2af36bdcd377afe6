"""Self-healing serving: fault survival, stale snapshots, health."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.errors import FaultInjectedError
from repro.net import ShardEndpoint, ShardedQueryService, ShardWorker, build_shards
from repro.obs.registry import MetricsRegistry, get_registry
from repro.resilience import server_health
from repro.serving.server import QueryRequest, QueryServer, ServerConfig
from repro.resilience.faults import FaultPlan, FaultSpec, inject

_CONFIG = ServerConfig(default_timeout=10.0)


def _request(server, k=3) -> QueryRequest:
    return QueryRequest(kind="shot", features=server.sample_features(1)[0], k=k)


@pytest.fixture(params=["single", "sharded"])
def front(request, serving_db, tmp_path):
    """A started front over ``serving_db``: in process, or a coordinator
    over two in-process shard workers of its published catalog."""
    if request.param == "single":
        with QueryServer(serving_db, _CONFIG) as server:
            yield server
        return
    spec = build_shards(serving_db, tmp_path, 2)
    workers = [
        ShardWorker(spec.shard_dir(tmp_path, shard_id), registry=MetricsRegistry()).start()
        for shard_id in range(2)
    ]
    endpoints = [ShardEndpoint(w.shard_id, "127.0.0.1", w.port) for w in workers]
    service = ShardedQueryService(spec, endpoints, _CONFIG)
    yield service
    service.close()
    for worker, endpoint in zip(workers, endpoints):
        worker.stop()
        endpoint.close()


class TestQueryFaults:
    def test_injected_query_error_is_typed_and_survivable(self, serving_db):
        with QueryServer(serving_db, _CONFIG) as server:
            request = _request(server)
            plan = FaultPlan([FaultSpec(point="serve.query", kind="error", limit=2)])
            with inject(plan):
                for _ in range(2):
                    with pytest.raises(FaultInjectedError):
                        server.query(request)
            clean = server.query(request)
            assert clean.hits

    def test_injected_latency_only_slows_the_answer(self, serving_db):
        with QueryServer(serving_db, _CONFIG) as server:
            request = _request(server)
            plan = FaultPlan(
                [FaultSpec(point="serve.query", kind="latency", delay=0.02, limit=1)]
            )
            with inject(plan):
                result = server.query(request)
            assert result.hits
            assert result.elapsed_seconds >= 0.02
            assert plan.fired("serve.query", "latency") == 1


class TestRebuildResilience:
    """Both fronts: the sharded one rebuilds through the same manager."""

    def test_failed_rebuild_serves_stale_and_degraded(self, front):
        request = _request(front)
        baseline = front.query(request)
        assert not baseline.degraded

        plan = FaultPlan([FaultSpec(point="serve.rebuild", kind="error", limit=1)])
        with inject(plan):
            with pytest.raises(FaultInjectedError):
                front.refresh()
            during = front.query(request)
        assert during.generation == baseline.generation  # stale but serving
        assert during.degraded
        assert during.hits
        assert front.manager.degraded
        assert "FaultInjectedError" in front.manager.last_error

        generation = front.refresh().generation
        after = front.query(request)
        assert after.generation == generation > baseline.generation
        assert not after.degraded
        assert front.manager.last_error is None

    def test_next_refresh_builds_at_once(self, front):
        # Nothing suppresses a rebuild after failures: each failed
        # refresh raises the fault's typed error while the published
        # generation keeps answering, and the first refresh after the
        # fault is gone publishes the next generation immediately.
        failures = get_registry().counter(
            "serving_rebuild_failures_total", "Snapshot rebuild attempts that failed."
        )
        request = _request(front)
        before = failures.value
        plan = FaultPlan([FaultSpec(point="serve.rebuild", kind="error")])
        with inject(plan):
            for _ in range(3):
                with pytest.raises(FaultInjectedError):
                    front.refresh()
                stale = front.query(request)
                assert stale.generation == 1 and stale.degraded and stale.hits
        assert failures.value - before == 3
        assert plan.fired("serve.rebuild", "error") == 3

        assert front.refresh().generation == 2
        assert not front.manager.degraded
        after = front.query(request)
        assert after.generation == 2 and not after.degraded


class TestHealth:
    def test_healthy_server_reports_ok(self, serving_db):
        with QueryServer(serving_db, _CONFIG) as server:
            server.manager.current()
            report = server_health(server)
        assert report.status == "ok"
        assert report.exit_code == 0
        assert "health: OK" in report.render()
        assert all(check.ok for check in report.checks)

    def test_stale_snapshot_reports_degraded(self, serving_db):
        with QueryServer(serving_db, _CONFIG) as server:
            server.manager.current()
            plan = FaultPlan([FaultSpec(point="serve.rebuild", kind="error", limit=1)])
            with inject(plan), pytest.raises(FaultInjectedError):
                server.refresh()
            report = server_health(server)
        assert report.live
        assert report.ready
        assert report.degraded
        assert report.status == "degraded"
        assert report.exit_code == 1

    def test_stopped_server_reports_down(self, serving_db):
        server = QueryServer(serving_db, _CONFIG)
        server.manager.current()
        report = server_health(server)  # never started
        assert not report.live
        assert report.status == "down"
        assert report.exit_code == 2

    def test_health_cli_on_an_ingested_directory(self, tmp_path, serving_db, capsys):
        from repro.storage import save_database

        save_database(serving_db, tmp_path)
        code = main(["health", "--db-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "health: OK" in out
        assert "snapshot" in out

    def test_health_cli_missing_database_fails_cleanly(self, tmp_path):
        code = main(["health", "--db-dir", str(tmp_path / "empty")])
        assert code != 0
