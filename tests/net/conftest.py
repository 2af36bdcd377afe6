"""Shared net fixtures: one corpus, served sharded and unsharded.

Workers run in-process (daemon threads over real localhost sockets) so
the equivalence and degradation tests pay no subprocess spawn cost;
``test_cluster.py`` and ``test_drain.py`` cover the real-subprocess path.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest

from repro.net import coordinator
from repro.net.coordinator import ShardedQueryService
from repro.net.protocol import ShardEndpoint
from repro.net.shard import build_shards
from repro.net.worker import ShardWorker
from repro.obs.registry import MetricsRegistry
from repro.serving.server import QueryServer, ServerConfig
from repro.storage.lazy import SQLVideoDatabase
from repro.storage.sqlcatalog import save_database
from repro.storage.synthetic import build_synthetic_database


@pytest.fixture(scope="module")
def net_db():
    """The in-RAM corpus every sharded answer is compared against."""
    return build_synthetic_database(
        videos=36, shots_per_video=6, scenes_per_video=3, seed=11
    )


@pytest.fixture(scope="module")
def single_dir(tmp_path_factory, net_db):
    """The unsharded stored form of the corpus."""
    db_dir = tmp_path_factory.mktemp("net-single")
    save_database(net_db, db_dir)
    return db_dir


@pytest.fixture(scope="module")
def reference(single_dir):
    """The single-process QueryServer the merge must match bit for bit."""
    database = SQLVideoDatabase.open(single_dir)
    server = QueryServer(
        database=database, config=ServerConfig()
    ).start()
    yield server
    server.stop()
    database.close()


#: Harness keywords that set a coordinator constant while the service is
#: built (its breakers and retry policy read them once, at construction).
COORDINATOR_CONSTANTS = {
    "breaker_threshold": "SHARD_BREAKER_THRESHOLD",
    "breaker_reset": "SHARD_BREAKER_RESET",
    "rpc_retries": "RPC_RETRIES",
}


def coordinator_constants(**knobs):
    """Patch the named coordinator constants (keywords as in
    :data:`COORDINATOR_CONSTANTS`) for the duration of a ``with``."""
    names = {COORDINATOR_CONSTANTS[name]: value for name, value in knobs.items()}
    # Attribute by attribute: patch.dict would empty the module's globals
    # for an instant on exit, under other services' scatter threads.
    return mock.patch.multiple(coordinator, **names) if names else nullcontext()


class NetHarness:
    """One sharded deployment: spec + in-process workers + coordinator.

    Keywords are ``ServerConfig`` fields, or a coordinator constant named
    in :data:`COORDINATOR_CONSTANTS`.
    """

    def __init__(self, net_db, root, num_shards, **config_kwargs):
        self.root = root
        self.spec = build_shards(net_db, root, num_shards)
        # Each in-process worker gets a private registry — subprocess
        # workers get this isolation for free, and the merged /metrics
        # tests need per-shard counters to stay distinguishable.
        self.workers = [
            ShardWorker(self.spec.shard_dir(root, shard_id), registry=MetricsRegistry()).start()
            for shard_id in range(num_shards)
        ]
        self.endpoints = [
            ShardEndpoint(worker.shard_id, "127.0.0.1", worker.port)
            for worker in self.workers
        ]
        constants = {
            name: config_kwargs.pop(name)
            for name in COORDINATOR_CONSTANTS
            if name in config_kwargs
        }
        with coordinator_constants(**constants):
            self.service = ShardedQueryService(
                self.spec, self.endpoints, config=ServerConfig(**config_kwargs)
            )

    def close(self):
        self.service.close()
        for worker in self.workers:
            worker.stop()
        for endpoint in self.endpoints:
            endpoint.close()


@pytest.fixture(scope="module")
def make_harness(tmp_path_factory, net_db):
    """Factory building (and tearing down) sharded deployments."""
    created = []

    def _make(num_shards: int, **config_kwargs) -> NetHarness:
        root = tmp_path_factory.mktemp(f"net-shards{num_shards}")
        harness = NetHarness(net_db, root, num_shards, **config_kwargs)
        created.append(harness)
        return harness

    yield _make
    # Each worker stop blocks on socketserver's poll interval; overlap them.
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(NetHarness.close, created))


@pytest.fixture(scope="module")
def probes(net_db):
    """Corpus-near probes (bucket hits) plus unseen ones (fallbacks)."""
    entries = net_db.flat_index.entries
    rng = np.random.default_rng(42)
    shape = entries[0].features.shape
    near = [
        entries[int(rng.integers(0, len(entries)))].features
        + rng.normal(0.0, 0.01, shape)
        for _ in range(6)
    ]
    unseen = [rng.random(shape) for _ in range(3)]
    return near + unseen
