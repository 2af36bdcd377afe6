"""RPC batching contract: one framed request per shard, one round.

The coordinator must never fan out per *leaf* — a beam-2 descent
visiting several leaves costs exactly one ``probe`` round-trip per
shard, also when some leaf's bucket is empty on every shard.  The ANN
knobs and ``k`` ride inside the same frame.  These tests wrap the live
endpoints and count.
"""

from __future__ import annotations

import contextlib

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
    """Every op of a call record but ``records``, as (shard_id, op) pairs."""
    return [(sid, op) for sid, op, _req in calls if op != "records"]


def test_bucket_hit_costs_one_probe_per_shard(make_harness, probes):
    harness = make_harness(3)
    with record_calls(harness.service) as calls:
        result = harness.service.query(
            QueryRequest(kind="shot", features=probes[0])
        )
    assert result.hits
    ops = feature_ops(calls)
    probe_shards = sorted(sid for sid, op in ops if op == "probe")
    assert probe_shards == [0, 1, 2]  # exactly once per shard
    # The beam-2 descent visits multiple leaves, yet they all travel in
    # the same frame.
    probe_requests = [req for _sid, op, req in calls if op == "probe"]
    assert all(len(req["leaves"]) >= 1 for req in probe_requests)
    leaf_counts = {len(req["leaves"]) for req in probe_requests}
    assert len(leaf_counts) == 1  # every shard got the identical leaf list


def test_empty_buckets_cost_no_second_round(make_harness, probes):
    harness = make_harness(3)
    unseen = probes[-1]  # misses every bucket: global fallback fires
    with record_calls(harness.service) as calls:
        result = harness.service.query(
            QueryRequest(kind="shot", features=unseen, k=7)
        )
    assert result.hits
    ops = feature_ops(calls)
    assert sorted(sid for sid, op in ops if op == "probe") == [0, 1, 2]
    assert len(ops) == 3  # one round-trip per shard, no more
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
    assert sorted(sid for sid, op in ops if op == "probe") == [0, 1]
    # The knobs travel inside the probe frame itself, not as extra RPCs.
    for _sid, op, req in calls:
        if op == "probe":
            assert req["nprobe"] == 4
            assert req["rerank_k"] == 8
    assert len(ops) == 2  # nothing but the probes
