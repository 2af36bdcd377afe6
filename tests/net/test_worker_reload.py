"""A shard worker's ``reload`` retires the old database like a snapshot swap.

A request that pinned the superseded shard state keeps answering from it
— its leaves' first touch included — and the old catalog closes as that
request lets go, by reference count alone.
"""

from __future__ import annotations

import gc
import threading

import numpy as np
import pytest

from repro.errors import StorageError
from repro.net import worker as worker_module
from repro.net.protocol import ShardEndpoint, pack_array
from repro.net.shard import build_shards, pack_leaves
from repro.net.worker import ShardWorker
from repro.obs.registry import MetricsRegistry
from repro.serving.server import QueryRequest, QueryServer
from repro.storage.lazy import SQLVideoDatabase
from repro.storage.sqlcatalog import save_database
from repro.storage.synthetic import build_synthetic_database
from repro.types import EventKind

from .conftest import NetHarness
from .test_equivalence import keys


def test_a_request_in_flight_across_reload_answers_then_the_old_catalog_closes(
    tmp_path, net_db, monkeypatch
):
    spec = build_shards(net_db, tmp_path, 2)
    worker = ShardWorker(spec.shard_dir(tmp_path, 0), registry=MetricsRegistry()).start()
    endpoint = ShardEndpoint(0, "127.0.0.1", worker.port)
    old_catalog = worker._state.database.catalog
    request = {
        "op": "probe",
        "features": pack_array(net_db.flat_index.entries[7].features),
        "leaves": sorted(worker._state.leaves),
        "k": 5,
    }
    # Hold the probe after it pinned the shard state, before any leaf loads.
    pinned, release = threading.Event(), threading.Event()
    unpack = worker_module.unpack_array

    def paused_unpack(payload):
        pinned.set()
        assert release.wait(10)
        return unpack(payload)

    monkeypatch.setattr(worker_module, "unpack_array", paused_unpack)
    answers = []
    in_flight = threading.Thread(target=lambda: answers.append(endpoint.call(request)))
    gc.disable()
    try:
        in_flight.start()
        assert pinned.wait(10)
        assert endpoint.call({"op": "reload"})["generation"] == 2
        old_catalog.meta("schema_version")  # held: still open
        release.set()
        in_flight.join(10)
        assert not in_flight.is_alive()
        with pytest.raises(StorageError, match="closed"):
            old_catalog.meta("schema_version")
        assert len(old_catalog.features._open) == 0
        fresh = endpoint.call(request)  # the new generation, same files
    finally:
        gc.enable()
        release.set()
        endpoint.close()
        worker.stop()
    (answer,) = answers
    assert answer["leaves"] == fresh["leaves"]
    assert any(leaf["keys"] for leaf in answer["leaves"])


def test_a_republish_that_moves_leaves_keeps_every_shot_whole_across_refresh(tmp_path, net_db, probes):
    """Workers and the coordinator may hold different generations for a
    while (a respawned worker opens the republished catalog at once, a
    worker whose reload failed keeps the old one); a leaf asked of the
    shard that owned it in the other generation is still answered, so no
    shot query in between is degraded, and after a full refresh every
    answer is the republished catalog's."""
    harness = NetHarness(net_db, tmp_path / "shards", 2)
    grown = build_synthetic_database(videos=36, shots_per_video=6, scenes_per_video=3, seed=11)
    rows = np.random.default_rng(3).random((60, probes[0].shape[0]))
    grown.register_entries("late-arrival", [(0, EventKind.PRESENTATION, rows)])

    def pack(database):
        return pack_leaves([len(leaf) for leaf in database.leaves.values()], 2)

    assert pack(grown) != pack(net_db)  # the republish moves leaves between shards
    save_database(grown, tmp_path / "single")
    single = SQLVideoDatabase.open(tmp_path / "single")
    reference = QueryServer(single).start()
    answers, failures, running = [], [], threading.Event()

    def ask_each(seed):
        noise = np.random.default_rng(seed)
        for probe in probes:  # each one new, so no answer is a cached one
            novel = probe + noise.normal(0.0, 1e-6, probe.shape)
            try:
                answers.append(harness.service.query(QueryRequest(kind="shot", features=novel, k=10)))
            except Exception as exc:  # noqa: BLE001 - every failure is the finding
                failures.append(exc)

    def query_while_running():
        for seed in range(10, 10_000):
            if running.is_set():
                break
            ask_each(seed)

    background = threading.Thread(target=query_while_running)
    background.start()
    try:
        save_database(grown, harness.root)
        # Shard 0 opens the republished catalog (as a respawned worker
        # would) while the coordinator still routes by the old pack.
        assert harness.endpoints[0].call({"op": "reload"})["ok"]
        ask_each(1)
        # Shard 1's reload fails: the coordinator moves on without it.
        worker = harness.workers[1]
        with pytest.MonkeyPatch.context() as patch:
            def refuse(request, tracer=None):
                raise StorageError("catalog unreadable")

            patch.setattr(worker, "_op_reload", refuse)
            harness.service.refresh()
            assert worker.generation == 1
            ask_each(2)
        assert harness.service.refresh().generation == 3
    finally:
        running.set()
        background.join(30)
    try:
        assert not failures
        assert answers and not [answer for answer in answers if answer.degraded]
        for probe in probes:
            request = QueryRequest(kind="shot", features=probe, k=10)
            mine, theirs = harness.service.query(request), reference.query(request)
            assert keys(mine) == keys(theirs) and mine.comparisons == theirs.comparisons
            assert not mine.degraded
    finally:
        harness.close()
        reference.stop()
        single.close()
