"""Snapshot immutability, generation swaps, and the ingest hook."""

from __future__ import annotations

import pytest

from repro.database.catalog import VideoDatabase
from repro.database.events_query import query_events
from repro.errors import ServingError
from repro.serving.snapshot import SnapshotManager, build_snapshot
from repro.types import EventKind


class TestSnapshot:
    def test_empty_database_cannot_snapshot(self):
        with pytest.raises(ServingError):
            build_snapshot(VideoDatabase(), generation=1)

    def test_snapshot_answers_like_the_database(self, serving_db, demo_features):
        snapshot = build_snapshot(serving_db, generation=1)
        features = demo_features(2)
        direct = serving_db.search(features, k=3)
        snapped = snapshot.search(features, k=3)
        assert [h.entry.key for h in snapped.hits] == [
            h.entry.key for h in direct.hits
        ]
        flat = snapshot.search_flat(features, k=3)
        assert flat.stats.comparisons == serving_db.shot_count

    def test_scene_index_is_derived_from_entries(self, serving_db, demo_result):
        snapshot = build_snapshot(serving_db, generation=1)
        assert len(snapshot.scenes) == demo_result.structure.scene_count
        events = {entry.event for entry in snapshot.scenes.entries}
        assert events == set(demo_result.scene_events().values())

    def test_event_queries_match_the_database(self, serving_db):
        snapshot = build_snapshot(serving_db, generation=1)
        for kind in EventKind:
            assert snapshot.query_events(kind) == query_events(serving_db, kind)


class TestSnapshotManager:
    def test_generations_increase(self, serving_db):
        manager = SnapshotManager(serving_db)
        assert manager.generation == 0
        first = manager.current()
        assert first.generation == 1
        assert manager.refresh().generation == 2
        assert manager.current().generation == 2

    def test_old_snapshot_survives_new_registrations(
        self, serving_db, retitle, demo_features
    ):
        manager = SnapshotManager(serving_db)
        before = manager.current()
        serving_db.register(retitle("demo2"))
        # The frozen generation still only knows the original video...
        assert before.videos == ("demo",)
        hits = before.search(demo_features(0), k=16).hits
        assert {h.entry.video_title for h in hits} == {"demo"}
        # ...while a refresh exposes the new corpus.
        after = manager.refresh()
        assert after.videos == ("demo", "demo2")
        assert after.generation == before.generation + 1
        hits = after.search(demo_features(0), k=32).hits
        assert {h.entry.video_title for h in hits} == {"demo", "demo2"}

    def test_listeners_see_every_swap(self, serving_db):
        manager = SnapshotManager(serving_db)
        seen: list[int] = []
        manager.subscribe(lambda snapshot: seen.append(snapshot.generation))
        manager.current()
        manager.refresh()
        assert seen == [1, 2]

    def test_install_replaces_the_backing_database(self, serving_db, retitle):
        manager = SnapshotManager(serving_db)
        manager.current()
        other = VideoDatabase()
        other.register(retitle("other"))
        snapshot = manager.install(other)
        assert manager.database is other
        assert snapshot.videos == ("other",)
        assert snapshot.generation == 2


class TestIngestHook:
    def test_cached_ingest_bumps_the_generation(
        self, serving_db, demo_result, tmp_path
    ):
        """A server moves to an ingested corpus when it is told to: the
        ingest returns, then ``install(load_database(db_dir))``."""
        from repro.ingest import IngestJob, ingest_corpus, load_database, store_for

        # Pre-seed the artifact store so the ingest run is pure cache.
        db_dir = tmp_path / "db"
        store_for(db_dir).save(IngestJob.for_title("demo").key, demo_result)

        manager = SnapshotManager(serving_db)
        manager.current()
        report = ingest_corpus(["demo"], db_dir, workers=1)
        assert [o.state for o in report.outcomes] == ["cached"]
        # An ingest into some directory moves no server by itself.
        assert manager.generation == 1
        assert manager.database is serving_db
        ingested = load_database(db_dir)
        try:
            manager.install(ingested)
            assert manager.generation == 2
            # The manager now serves the freshly rebuilt ingest database.
            assert manager.database is ingested
            assert manager.current().videos == ("demo",)
        finally:
            ingested.close()
