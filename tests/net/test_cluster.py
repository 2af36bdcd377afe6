"""Subprocess workers: spawn, kill, watchdog respawn."""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.errors import ServingError
from repro.net.cluster import ShardCluster
from repro.net.coordinator import ShardedQueryService
from repro.net.shard import build_shards
from repro.serving.server import QueryRequest
from tests.net.conftest import coordinator_constants
from tests.net.test_equivalence import keys


@pytest.fixture(scope="module")
def live_cluster(tmp_path_factory, net_db):
    root = tmp_path_factory.mktemp("cluster")
    spec = build_shards(net_db, root, 2)
    cluster = ShardCluster(root, spec=spec, watchdog_interval=0.1).start()
    with coordinator_constants(breaker_threshold=2, breaker_reset=0.2):
        service = ShardedQueryService(spec, cluster.endpoints)
    yield cluster, service
    service.close()
    cluster.stop()


class TestCluster:
    def test_spawns_one_worker_per_shard(self, live_cluster):
        cluster, service = live_cluster
        assert cluster.running
        assert sorted(cluster.alive()) == [0, 1]
        report = service.health_report()
        assert report.exit_code == 0

    def test_kill_then_watchdog_respawn(self, live_cluster, net_db, reference):
        cluster, service = live_cluster
        rng = np.random.default_rng(5)
        shape = net_db.flat_index.entries[0].features.shape
        before = sum(cluster.respawn_counts().values())
        cluster.kill(0)

        saw_degraded = False
        deadline = time.perf_counter() + 20.0
        while time.perf_counter() < deadline:
            request = QueryRequest(kind="shot", features=rng.random(shape), k=5)
            result = service.query(request)
            if 0 in result.shards_missing:
                saw_degraded = True
                # Asked again, a degraded answer is recomputed, never replayed.
                assert not service.query(request).cache_hit
            if saw_degraded and not result.shards_missing:
                break
            time.sleep(0.05)
        assert saw_degraded, "killed shard never surfaced in shards_missing"
        assert not result.shards_missing, "watchdog never restored the shard"
        # Full strength means bit-identical, not merely every shard present.
        assert keys(result) == keys(reference.query(request))
        assert sum(cluster.respawn_counts().values()) > before
        assert sorted(cluster.alive()) == [0, 1]
        assert service.health_report().exit_code == 0


# A stand-in for ``repro.net.worker``: the cluster runs ``python -m
# repro.net.worker`` with the PYTHONPATH of ``_worker_env``, so a stub
# ``repro`` package placed first on that path is what gets executed.  It
# records its pid beside the catalog it was started on, then either stays
# silent forever or reports READY once every sibling shard has been
# launched too.
_STAND_IN_WORKER = """
import os, sys, time
from pathlib import Path

catalog = Path(sys.argv[1])
shard = int(sys.argv[sys.argv.index("--shard-id") + 1])
count = int(sys.argv[sys.argv.index("--num-shards") + 1])
(catalog / f"pid-{shard}").write_text(str(os.getpid()))
if (catalog / "silent").exists():
    time.sleep(600)
while not all((catalog / f"pid-{sibling}").exists() for sibling in range(count)):
    time.sleep(0.01)
print("READY 1", flush=True)
time.sleep(600)
"""


@pytest.fixture()
def stand_in_root(tmp_path, net_db, monkeypatch):
    """A 3-shard root whose workers are the stand-in above."""
    package = tmp_path / "stub" / "repro" / "net"
    package.mkdir(parents=True)
    (package.parent / "__init__.py").write_text("")
    (package / "__init__.py").write_text("")
    (package / "worker.py").write_text(_STAND_IN_WORKER)
    monkeypatch.setattr(
        "repro.net.cluster._worker_env",
        lambda: {**os.environ, "PYTHONPATH": str(tmp_path / "stub")},
    )
    root = tmp_path / "shards"
    return root, build_shards(net_db, root, 3)


def _worker_pids(root, spec) -> list[int]:
    return [
        int((root / f"pid-{shard_id}").read_text())
        for shard_id in range(spec.num_shards)
    ]


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


class TestSpawn:
    def test_silent_worker_fails_start_within_spawn_timeout(self, stand_in_root):
        root, spec = stand_in_root
        (root / "silent").touch()
        cluster = ShardCluster(
            root, spec=spec, spawn_timeout=1.0, watchdog_interval=None
        )
        started = time.perf_counter()
        with pytest.raises(ServingError, match="did not report READY within"):
            cluster.start()
        assert time.perf_counter() - started < 2.0
        assert not cluster.running and cluster.alive() == []
        assert all(_gone(pid) for pid in _worker_pids(root, spec))

    def test_every_worker_is_launched_before_any_is_awaited(self, stand_in_root):
        # Each stand-in reports READY only once all three are running: a
        # cluster that spawned them one after the other would wait on
        # the first forever.
        root, spec = stand_in_root
        cluster = ShardCluster(
            root, spec=spec, spawn_timeout=10.0, watchdog_interval=None
        )
        try:
            cluster.start()
            assert cluster.alive() == [0, 1, 2]
            assert len(cluster.endpoints) == 3
        finally:
            cluster.stop()
        assert all(_gone(pid) for pid in _worker_pids(root, spec))
