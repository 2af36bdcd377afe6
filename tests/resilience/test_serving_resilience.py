"""Self-healing serving: fault survival, stale snapshots, health."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.errors import FaultInjectedError
from repro.obs.registry import get_registry
from repro.resilience import server_health
from repro.serving.server import QueryRequest, QueryServer, ServerConfig
from repro.resilience.faults import FaultPlan, FaultSpec, inject

_CONFIG = ServerConfig(default_timeout=10.0)


def _request(server, k=3) -> QueryRequest:
    features = server.manager.current().flat.entries[0].features
    return QueryRequest(kind="shot", features=features, k=k)


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
    def test_failed_rebuild_serves_stale_and_degraded(self, serving_db):
        with QueryServer(serving_db, _CONFIG) as server:
            request = _request(server)
            baseline = server.query(request)
            assert not baseline.degraded

            plan = FaultPlan([FaultSpec(point="serve.rebuild", kind="error", limit=1)])
            with inject(plan):
                with pytest.raises(FaultInjectedError):
                    server.refresh()
                during = server.query(request)
            assert during.generation == baseline.generation  # stale but serving
            assert during.degraded
            assert during.hits
            assert server.manager.degraded
            assert "FaultInjectedError" in server.manager.last_error

            healed = server.refresh()
            after = server.query(request)
            assert healed.generation > baseline.generation
            assert not after.degraded
            assert server.manager.last_error is None

    def test_next_refresh_builds_at_once(self, serving_db):
        # Nothing suppresses a rebuild after failures: each failed
        # refresh raises the fault's typed error while the published
        # generation keeps answering, and the first refresh after the
        # fault is gone publishes the next generation immediately.
        failures = get_registry().counter(
            "serving_rebuild_failures_total", "Snapshot rebuild attempts that failed."
        )
        with QueryServer(serving_db, _CONFIG) as server:
            request = _request(server)
            before = failures.value
            plan = FaultPlan([FaultSpec(point="serve.rebuild", kind="error")])
            with inject(plan):
                for _ in range(3):
                    with pytest.raises(FaultInjectedError):
                        server.refresh()
                    stale = server.query(request)
                    assert stale.generation == 1 and stale.degraded and stale.hits
            assert failures.value - before == 3
            assert plan.fired("serve.rebuild", "error") == 3

            healed = server.refresh()
            assert healed.generation == 2
            assert not server.manager.degraded
            after = server.query(request)
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
