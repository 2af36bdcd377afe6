"""A shard worker's ``reload`` retires the old database like a snapshot swap.

A request that pinned the superseded shard state keeps answering from it
— its leaves' first touch included — and the old catalog closes as that
request lets go, by reference count alone.
"""

from __future__ import annotations

import gc
import threading

import pytest

from repro.errors import StorageError
from repro.net import worker as worker_module
from repro.net.protocol import ShardEndpoint, pack_array
from repro.net.shard import build_shards
from repro.net.worker import ShardWorker
from repro.obs.registry import MetricsRegistry


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
