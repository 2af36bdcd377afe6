"""Scatter-gather must match the single-process server bit for bit.

The acceptance bar for the sharded path: identical ids, scores,
tie-break order and ``QueryStats`` aggregation at every shard count,
for every query kind, scoped or not.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.database.access import User
from repro.serving.server import QueryRequest
from repro.types import EventKind

SHARD_COUNTS = (1, 2, 3)


def keys(result):
    """(identity, score) tuples — the full ranked order, scores exact."""
    out = []
    for hit in result.hits:
        entry = getattr(hit, "entry", hit)
        out.append(
            (
                entry.video_title,
                getattr(entry, "shot_id", getattr(entry, "scene_id", None)),
                getattr(hit, "score", None),
            )
        )
    return out


@pytest.fixture(scope="module", params=SHARD_COUNTS)
def harness(request, make_harness):
    return make_harness(request.param)


class TestBitIdentical:
    @pytest.mark.parametrize("kind", ["shot", "shot_flat", "scene"])
    def test_ranked_results_match(self, harness, reference, probes, kind):
        for probe in probes:
            mine = harness.service.query(
                QueryRequest(kind=kind, features=probe, k=10)
            )
            theirs = reference.query(
                QueryRequest(kind=kind, features=probe, k=10)
            )
            assert keys(mine) == keys(theirs)
            assert mine.comparisons == theirs.comparisons
            assert not mine.degraded and not mine.shards_missing

    def test_events_match(self, harness, reference):
        for event in EventKind.known_kinds():
            mine = harness.service.query(QueryRequest(kind="event", event=event))
            theirs = reference.query(QueryRequest(kind="event", event=event))
            assert keys(mine) == keys(theirs)

    def test_small_and_large_k_match(self, harness, reference, probes):
        for k in (1, 3, 1000):
            mine = harness.service.query(
                QueryRequest(kind="shot", features=probes[0], k=k)
            )
            theirs = reference.query(
                QueryRequest(kind="shot", features=probes[0], k=k)
            )
            assert keys(mine) == keys(theirs)

    def test_scoped_users_match(self, harness, reference, probes):
        users = [
            User(name="public", clearance=0),
            User(name="staff", clearance=1),
            User(name="surgeon", clearance=3),
        ]
        for user in users:
            for kind in ("shot", "scene"):
                for probe in probes[:4]:
                    mine = harness.service.query(
                        QueryRequest(kind=kind, features=probe, k=10, user=user)
                    )
                    theirs = reference.query(
                        QueryRequest(kind=kind, features=probe, k=10, user=user)
                    )
                    assert keys(mine) == keys(theirs)
                    assert mine.comparisons == theirs.comparisons


class TestServiceSemantics:
    def test_cache_hits_mark_and_match(self, harness, probes):
        request = QueryRequest(kind="shot", features=probes[1], k=7)
        cold = harness.service.query(request)
        warm = harness.service.query(request)
        assert not cold.cache_hit
        assert warm.cache_hit
        assert keys(cold) == keys(warm)

    def test_validation_matches_single_process(self, harness, reference):
        from repro.errors import ServingError

        bad = QueryRequest(kind="nonsense", features=np.zeros(4))
        with pytest.raises(ServingError):
            reference.query(bad)
        with pytest.raises(ServingError):
            harness.service.query(bad)

    def test_health_is_ok_with_all_shards_up(self, harness):
        report = harness.service.health_report()
        assert report.live and report.ready and not report.degraded
        assert report.exit_code == 0

    def test_refresh_bumps_generation_and_stays_identical(
        self, harness, reference, probes
    ):
        before = harness.service.query(
            QueryRequest(kind="shot", features=probes[2], k=5)
        )
        generation = harness.service.refresh().generation
        after = harness.service.query(
            QueryRequest(kind="shot", features=probes[2], k=5)
        )
        assert generation == after.generation > before.generation
        assert not after.cache_hit  # old generation was evicted
        assert keys(after) == keys(before)
