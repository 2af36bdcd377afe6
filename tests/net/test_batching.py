"""RPC batching contract: one framed request per owning shard, one round.

The coordinator must never fan out per *leaf* — a beam-2 descent
visiting several leaves costs exactly one ``probe`` round-trip per shard
that owns one of them, carrying that shard's leaves, also when some
leaf's bucket is empty.  The ANN knobs and ``k`` ride inside the same
frame.  These tests wrap the live endpoints and count.
"""

from __future__ import annotations

import contextlib

from repro.database.query import QueryStats, descend_to_leaves
from repro.net.shard import pack_leaves
from repro.serving.server import QueryRequest


@contextlib.contextmanager
def record_calls(service):
    """Wrap every endpoint's ``call``; yields [(shard_id, op, request)]."""
    calls = []
    originals = {}
    for shard_id, endpoint in service._endpoints.items():
        originals[shard_id] = endpoint.call

        def wrapped(request, deadline=None, _orig=originals[shard_id],
                    _sid=shard_id, **kwargs):
            calls.append((_sid, request.get("op"), dict(request)))
            return _orig(request, deadline, **kwargs)

        endpoint.call = wrapped
    try:
        yield calls
    finally:
        for shard_id, endpoint in service._endpoints.items():
            endpoint.call = originals[shard_id]


def feature_ops(calls):
    """Every op of a call record, as (shard_id, op) pairs."""
    return [(sid, op) for sid, op, _req in calls]


def owned_leaves(service, features) -> dict[int, list[str]]:
    """Each owning shard's share of the leaves a shot query descends to:
    the current snapshot's descent, its leaves packed as the workers pack them."""
    snapshot = service.manager.current()
    counts = [len(leaf) for leaf in snapshot.leaves.values()]
    owners = dict(zip(snapshot.leaves, pack_leaves(counts, service.spec.num_shards)))
    owned: dict[int, list[str]] = {}
    for leaf in descend_to_leaves(snapshot.index_root, features, QueryStats()):
        owned.setdefault(owners[leaf.name], []).append(leaf.name)
    return owned


def test_bucket_hit_costs_one_probe_per_shard(make_harness, probes):
    harness = make_harness(3)
    with record_calls(harness.service) as calls:
        result = harness.service.query(
            QueryRequest(kind="shot", features=probes[0])
        )
    assert result.hits
    ops = feature_ops(calls)
    owned = owned_leaves(harness.service, probes[0])
    probe_shards = sorted(sid for sid, op in ops if op == "probe")
    assert probe_shards == sorted(owned)  # exactly once per owning shard
    # The beam-2 descent visits multiple leaves, yet each owner's travel
    # in one frame.
    sent = {sid: req["leaves"] for sid, op, req in calls if op == "probe"}
    assert sent == owned and sum(map(len, sent.values())) >= 2


def test_empty_buckets_cost_no_second_round(make_harness, probes):
    harness = make_harness(3)
    unseen = probes[-1]  # misses every bucket: global fallback fires
    with record_calls(harness.service) as calls:
        result = harness.service.query(
            QueryRequest(kind="shot", features=unseen, k=7)
        )
    assert result.hits
    ops = feature_ops(calls)
    owned = owned_leaves(harness.service, unseen)
    assert sorted(sid for sid, op in ops if op == "probe") == sorted(owned)
    assert len(ops) == len(owned)  # one round-trip per owning shard, no more
    assert all(req["k"] == 7 for _sid, op, req in calls if op == "probe")


def test_ann_query_stays_one_round_trip_per_shard_per_phase(
    make_harness, probes
):
    harness = make_harness(2)
    with record_calls(harness.service) as calls:
        harness.service.query(
            QueryRequest(
                kind="shot", features=probes[0], nprobe=4, rerank_k=8
            )
        )
    ops = feature_ops(calls)
    owned = owned_leaves(harness.service, probes[0])
    assert sorted(sid for sid, op in ops if op == "probe") == sorted(owned)
    # The knobs travel inside the probe frame itself, not as extra RPCs.
    for _sid, op, req in calls:
        if op == "probe":
            assert req["nprobe"] == 4
            assert req["rerank_k"] == 8
    assert len(ops) == len(owned)  # nothing but the probes
