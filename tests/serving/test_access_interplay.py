"""Cache/access-control interplay — the acceptance-critical invariants.

A cached result produced for a high-clearance principal must never be
returned to a lower-clearance one, and a generation bump after an
ingest run must invalidate every prior cache entry.
"""

from __future__ import annotations

import pytest

from repro.database.access import FilterRule, Permission, User
from repro.database.events_query import event_concept
from repro.serving.server import QueryRequest, QueryServer, ServerConfig
from repro.types import EventKind


@pytest.fixture()
def server(serving_db):
    with QueryServer(serving_db, ServerConfig(queue_depth=16)) as srv:
        yield srv


def _hit_concepts(server, result):
    """Leaf concept of every shot hit, via the snapshot's scene events."""
    snapshot = server.manager.current()
    concepts = set()
    for hit in result.hits:
        entry = hit.entry
        event = EventKind(snapshot.records[entry.video_title].events[entry.scene_id])
        concepts.add(event_concept(entry.video_title, event))
    return concepts


class TestClearanceIsolation:
    def test_high_clearance_cache_entry_never_leaks_down(
        self, server, serving_db, demo_features
    ):
        features = demo_features(0)
        surgeon = User("surgeon", clearance=3)
        student = User("student", clearance=0)

        # Warm the cache with the unrestricted answer.
        full = server.query(QueryRequest(kind="shot", features=features, k=16, user=surgeon))
        assert server.query(
            QueryRequest(kind="shot", features=features, k=16, user=surgeon)
        ).cache_hit

        # Identical query from a public principal: must NOT hit the
        # surgeon's entry, and must only contain public concepts.
        restricted = server.query(
            QueryRequest(kind="shot", features=features, k=16, user=student)
        )
        assert not restricted.cache_hit
        allowed = server.manager.current().permitted_leaves(student)
        assert _hit_concepts(server, restricted) <= allowed
        assert len(restricted.hits) < len(full.hits)
        forbidden = _hit_concepts(server, full) - allowed
        assert forbidden, "demo corpus must contain non-public footage"

    def test_anonymous_never_hits_a_user_entry(self, server, demo_features):
        features = demo_features(0)
        surgeon = User("surgeon", clearance=3)
        server.query(QueryRequest(kind="shot", features=features, k=8, user=surgeon))
        anonymous = server.query(QueryRequest(kind="shot", features=features, k=8))
        assert not anonymous.cache_hit

    def test_same_permissions_share_one_entry(self, server, demo_features):
        features = demo_features(1)
        alice = User("alice", clearance=3)
        bob = User("bob", clearance=3)
        cold = server.query(QueryRequest(kind="shot", features=features, k=8, user=alice))
        shared = server.query(QueryRequest(kind="shot", features=features, k=8, user=bob))
        assert not cold.cache_hit
        assert shared.cache_hit  # identity is not part of the key, scope is
        assert [h.entry.key for h in shared.hits] == [h.entry.key for h in cold.hits]

    def test_explicit_deny_rule_changes_the_scope(self, server, demo_features):
        features = demo_features(1)
        plain = User("plain", clearance=3)
        redacted = User(
            "redacted",
            clearance=3,
            rules=(
                FilterRule(
                    concept=EventKind.DIALOG.value,
                    permission=Permission.DENY,
                    reason="privacy study",
                ),
            ),
        )
        server.query(QueryRequest(kind="shot", features=features, k=16, user=plain))
        filtered = server.query(
            QueryRequest(kind="shot", features=features, k=16, user=redacted)
        )
        assert not filtered.cache_hit
        concepts = _hit_concepts(server, filtered)
        assert not any(c.endswith("/" + EventKind.DIALOG.value) for c in concepts)

    def test_scene_hits_respect_clearance(self, server, demo_features):
        features = demo_features(0)
        student = User("student", clearance=0)
        public = server.query(
            QueryRequest(kind="scene", features=features, k=8, user=student)
        )
        assert public.hits, "the demo has public presentation scenes"
        events = {hit.entry.event for hit in public.hits}
        assert events == {EventKind.PRESENTATION}

    def test_event_queries_filter_uncleared_principals(self, server):
        student = User("student", clearance=0)
        surgeon = User("surgeon", clearance=3)
        request = QueryRequest(
            kind="event", event=EventKind.CLINICAL_OPERATION, user=surgeon
        )
        assert server.query(request).hits  # the footage exists...
        denied = server.query(
            QueryRequest(kind="event", event=EventKind.CLINICAL_OPERATION, user=student)
        )
        assert denied.hits == ()  # ...but is silently filtered (and audited)
        assert not denied.cache_hit  # distinct scope, distinct cache entry


class TestIngestInvalidation:
    def test_generation_bump_after_ingest_invalidates_cache(
        self, serving_db, demo_result, demo_features, tmp_path
    ):
        from repro.ingest import IngestJob, ingest_corpus, load_database, store_for

        db_dir = tmp_path / "db"
        store_for(db_dir).save(IngestJob.for_title("demo").key, demo_result)

        with QueryServer(serving_db) as server:
            request = QueryRequest(kind="shot", features=demo_features(0), k=5)
            cold = server.query(request)
            assert server.query(request).cache_hit
            assert len(server.cache) > 0

            report = ingest_corpus(["demo"], db_dir, workers=1)
            assert [o.state for o in report.outcomes] == ["cached"]
            ingested = load_database(db_dir)
            try:
                server.manager.install(ingested)

                fresh = server.query(request)
                assert not fresh.cache_hit  # prior entry is gone, not stale-served
                assert fresh.generation == cold.generation + 1
                assert server.cache.stats().stale_evictions >= 1
                assert [h.entry.key for h in fresh.hits] == [
                    h.entry.key for h in cold.hits
                ]
            finally:
                ingested.close()

    def test_scope_memo_is_pruned_on_swap(self, serving_db, demo_features, retitle):
        surgeon = User("surgeon", clearance=3)
        with QueryServer(serving_db) as server:
            server.query(
                QueryRequest(kind="shot", features=demo_features(0), k=5, user=surgeon)
            )
            assert (surgeon, 1) in server._scopes
            serving_db.register(retitle("demo2"))
            server.refresh()
            assert (surgeon, 1) not in server._scopes
            # The new generation resolves the scope afresh and still serves.
            result = server.query(
                QueryRequest(kind="shot", features=demo_features(0), k=5, user=surgeon)
            )
            assert result.generation == 2
            assert (surgeon, 2) in server._scopes
