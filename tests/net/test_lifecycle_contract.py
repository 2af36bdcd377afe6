"""One request lifecycle, two backends: the front's contract.

Every case runs against the in-process :class:`QueryServer` *and* a
2-shard in-process cluster.  The sharded front is a ``QueryServer``
whose backend scans on shard workers, so validation, ANN-default
folding, cache identity, explain bypass and the
never-cache-a-weakened-answer policy must read the same on each.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.database.access import User
from repro.errors import BadRequestError, FaultInjectedError
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.serving.server import QueryRequest, QueryServer, ServerConfig
from repro.storage.lazy import SQLVideoDatabase
from repro.types import EventKind

from . import test_degraded as shard_loss
from .test_equivalence import keys

NPROBE_ALL = 1_000_000


@pytest.fixture(params=["single", "sharded"])
def make_front(request, make_harness, single_dir):
    """Factory for a fresh query front of the parametrised backend.

    ``make_front(**knobs)`` returns ``(front, harness)``; ``harness`` is
    None for the in-process server.  Knobs are ``ServerConfig`` fields,
    the one config type both fronts take.
    """
    opened = []

    def _make(**knobs):
        if request.param == "sharded":
            harness = make_harness(2, breaker_threshold=2, breaker_reset=0.2, **knobs)
            return harness.service, harness
        database = SQLVideoDatabase.open(single_dir)
        server = QueryServer(database, ServerConfig(**knobs)).start()
        opened.append((server, database))
        return server, None

    yield _make
    for server, database in opened:
        server.stop()
        database.close()


MALFORMED = [
    (dict(kind="nope"), "unknown query kind 'nope'"),
    (dict(kind="shot", features=None), "shot queries need a feature vector"),
    (dict(kind="scene", features=None), "scene queries need a feature vector"),
    (dict(kind="event", features=None), "event queries need an EventKind"),
    (
        dict(kind="shot_flat", user=User("u", clearance=3)),
        "the flat baseline does not support per-user access filtering",
    ),
    (dict(kind="shot", k=0), r"k must be >= 1"),
    (dict(kind="scene", nprobe=2), "nprobe/rerank_k only apply to hierarchical shot"),
    (dict(kind="shot_flat", rerank_k=2), "nprobe/rerank_k only apply"),
    (dict(kind="shot", nprobe=0), r"nprobe must be >= 1 \(or None for exact\)"),
    (dict(kind="shot", rerank_k=0), r"rerank_k must be >= 1 \(or None for all\)"),
    (dict(kind="shot_flat", features=np.zeros(10)), r"need a \(266,\) feature vector"),
    (dict(kind="shot", features=np.zeros(0)), r"need a \(266,\) feature vector"),
    (dict(kind="shot", features=np.r_[np.nan, np.zeros(265)]), "need finite feature values"),
    (dict(kind="shot_flat", features=np.r_[np.zeros(265), np.nan]), "need finite feature values"),
    (dict(kind="scene", features=np.r_[np.zeros(265), np.inf]), "need finite feature values"),
    (dict(kind="shot", timeout=float("inf")), "timeout must be finite"),
    (dict(kind="shot", timeout=float("nan")), "timeout must be finite"),
    (
        dict(kind="event", event=EventKind.DIALOG, video_title=["a"]),
        "video_title must be a string",
    ),
]


class TestLifecycleContract:
    def test_malformed_is_bad_request(self, make_front, probes):
        front, harness = make_front()
        for fields, message in MALFORMED:
            fields = {"features": probes[0], **fields}
            with pytest.raises(BadRequestError, match=message):
                front.query(QueryRequest(**fields))
        # Rejected at admission: nothing executed, nothing was cached.
        assert front.count("queries_total") == 0
        assert len(front.cache) == 0
        if harness is not None:  # and no shard call charged a breaker
            gauges = front.registry.snapshot()
            assert [gauges[f"circuit_breaker_state{{breaker=shard-{i}}}"] for i in (0, 1)] == [0, 0]

    def test_ann_default_shares_cache(self, make_front, probes):
        front, _ = make_front(ann_nprobe=4, ann_rerank_k=8)
        implicit = front.query(QueryRequest(kind="shot", features=probes[2]))
        assert implicit.reranked > 0  # the configured default applied
        explicit = front.query(
            QueryRequest(kind="shot", features=probes[2], nprobe=4, rerank_k=8)
        )
        # A transient answer is never cached: name the shard error behind one.
        last_errors = getattr(front, "_last_errors", {})
        assert not implicit.degraded and not implicit.shards_missing, last_errors
        assert explicit.cache_hit  # same resolved identity
        assert keys(explicit) == keys(implicit)
        assert len(front.cache) == 1
        # A partial override folds the remaining default in as well.
        partial = front.query(QueryRequest(kind="shot", features=probes[2], rerank_k=8))
        assert partial.cache_hit

    def test_explain_bypasses_the_cache(self, make_front, probes):
        front, _ = make_front()
        request = QueryRequest(kind="shot", features=probes[4], k=5, explain=True)
        first = front.query(request)
        second = front.query(request)
        assert first.cache_hit is False and second.cache_hit is False
        assert second.explain["cache"]["would_hit"] is False
        assert second.explain["cache"]["entries"] == 0
        assert len(front.cache) == 0
        # ...and a warm entry is not *read* either: explain re-executes.
        plain = front.query(QueryRequest(kind="shot", features=probes[4], k=5))
        third = front.query(request)
        assert third.cache_hit is False
        assert third.explain["cache"]["would_hit"] is True
        assert keys(third) == keys(plain)
        assert third.comparisons == plain.comparisons

    def test_query_fault_is_survivable(self, make_front, probes):
        front, _ = make_front()
        request = QueryRequest(kind="shot", features=probes[0], k=3)
        plan = FaultPlan([FaultSpec(point="serve.query", kind="error", limit=2)])
        with inject(plan):
            for _ in range(2):
                with pytest.raises(FaultInjectedError):
                    front.query(request)
        assert front.query(request).hits

    def test_degraded_recomputed_on_hit(self, make_front, probes):
        front, _ = make_front()
        request = QueryRequest(kind="shot", features=probes[3], k=4)
        assert not front.query(request).degraded
        # A standing weakness appearing *after* the answer was cached
        # must show on the hit, not be replayed from the entry.
        plan = FaultPlan([FaultSpec(point="serve.rebuild", kind="error", limit=1)])
        with inject(plan), pytest.raises(FaultInjectedError):
            front.refresh()
        hit = front.query(request)
        assert hit.cache_hit and hit.degraded


class TestShardedOnly:
    """The sharded-only half of the cache-put policy."""

    def test_shard_missing_is_not_cached(self, make_harness, reference):
        pair = make_harness(2, breaker_threshold=2, breaker_reset=0.2)
        victim = 0
        request = QueryRequest(kind="shot", features=shard_loss.fresh_probe(pair, 3, needs={0, 1}), k=10)
        pair.workers[victim].stop()
        partial = pair.service.query(request)
        assert partial.shards_missing and partial.degraded
        assert len(pair.service.cache) == 0
        shard_loss.TestShardLoss._revive(pair, victim)
        healed = shard_loss.TestShardLoss._query_until_full(pair, request)
        # A cached degraded answer would keep reporting partial hits
        # after recovery; instead the healed answer matches the
        # single-process reference exactly.
        assert keys(healed) == keys(reference.query(request))


class TestFrontsAgree:
    """One query, both fronts at once: the work each reports must match."""

    def test_ann_stats_match(self, make_harness, single_dir, probes):
        # Fresh fronts: each trains its leaves' (or shares') tiers on this query.
        database = SQLVideoDatabase.open(single_dir)
        server = QueryServer(database, ServerConfig()).start()
        pair = make_harness(2)
        request = QueryRequest(kind="shot", features=probes[0], k=5, nprobe=NPROBE_ALL)
        try:
            single, sharded = server.query(request), pair.service.query(request)
        finally:
            server.stop()
            database.close()
        assert not single.degraded and not sharded.degraded and not sharded.shards_missing
        assert keys(sharded) == keys(single)
        stats = ("comparisons", "approx_comparisons", "reranked")
        assert [getattr(sharded, name) for name in stats] == [
            getattr(single, name) for name in stats
        ]
        assert single.reranked > 0  # the tier ran on both fronts
