"""The SQL catalog: schema, readers, search, the replace writer."""

from __future__ import annotations

import shutil
import sqlite3

import pytest

import repro.storage.sqlcatalog as sqlcatalog_module
from repro.database.catalog import VideoDatabase
from repro.errors import SchemaVersionError, StorageError
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.storage import (
    SQLCatalog,
    build_synthetic_database,
    catalog_path,
    save_database,
)
from repro.storage.featurestore import map_block


@pytest.fixture()
def catalog(stored_dir):
    with SQLCatalog(stored_dir) as cat:
        yield cat


@pytest.fixture()
def writable_dir(tmp_path, stored_dir):
    """A private copy of the stored corpus for mutation tests."""
    target = tmp_path / "copy"
    shutil.copytree(stored_dir, target)
    return target


class TestSchema:
    def test_missing_catalog_is_typed(self, tmp_path):
        with pytest.raises(StorageError):
            SQLCatalog(tmp_path)

    def test_version_mismatch_points_at_migrate(self, writable_dir):
        """Older than the one version that converts, or newer: refused
        before anything is written."""
        path = catalog_path(writable_dir)
        wal = path.with_name(path.name + "-wal")

        def state():
            return (
                path.read_bytes(),
                wal.read_bytes() if wal.exists() else None,
                sorted(p.name for p in (writable_dir / "features").rglob("*")),
            )

        for version in (1, 2, 3, 4, 99):
            conn = sqlite3.connect(path)
            conn.execute(f"PRAGMA user_version = {version}")
            conn.close()
            before = state()
            with pytest.raises(SchemaVersionError, match="classminer migrate"):
                SQLCatalog(writable_dir)
            assert state() == before, version


class TestReaders:
    def test_videos_roundtrip(self, catalog, source_db):
        records = catalog.videos()
        assert sorted(records) == sorted(source_db.videos)
        for title, record in records.items():
            source = source_db.videos[title]
            assert record.shot_count == source.shot_count
            assert record.scene_count == source.scene_count
            assert record.degraded_stages == source.degraded_stages
            assert record.events == source.events

    def test_counts_and_describe(self, catalog, source_db, lazy_db):
        assert catalog.entry_count() == source_db.shot_count
        assert catalog.scene_count() == sum(
            r.scene_count for r in source_db.videos.values()
        )
        assert lazy_db.describe() == source_db.describe()

    def test_subject_areas_preserve_order(self, catalog, source_db):
        education = source_db.hierarchy.find("medical_education")
        assert catalog.subject_areas() == [c.name for c in education.children]

    def test_leaf_infos_cover_every_entry(self, catalog, source_db):
        infos = catalog.leaf_infos()
        assert sum(info.entry_count for info in infos) == source_db.shot_count
        assert [info.position for info in infos] == list(range(len(infos)))
        for info in infos:
            rows = catalog.leaf_rows(info.name)
            assert [r.row for r in rows] == list(range(info.entry_count))
            assert info.block.rows == info.entry_count

    def test_scene_row_lookup(self, catalog, source_db):
        block_sha, (titles, scene_ids, events, shot_counts) = catalog.scene_columns()
        assert catalog.features.open(block_sha).shape[0] == catalog.scene_count()
        table = source_db.scene_index.table
        assert list(titles) == table.titles.tolist()
        assert list(scene_ids) == table.scene_ids.tolist()
        assert list(events) == [kind.value for kind in table.events]
        assert list(shot_counts) == table.shot_counts.tolist()
        # (title, scene id) is the stored order and identifies one row.
        keys = list(zip(titles, scene_ids))
        assert keys == sorted(set(keys))


class TestSearchText:
    def test_hits_respect_k(self, catalog):
        hits = catalog.search_text("synthetic", k=5)
        assert hits
        assert len(hits) <= 5
        assert all(hit.kind in ("video", "scene", "concept") for hit in hits)

    def test_empty_query_returns_nothing(self, catalog):
        assert catalog.search_text("   ") == []

    def test_unmatched_query_returns_nothing(self, catalog):
        assert catalog.search_text("laparoscopic unicorn") == []

    def test_like_fallback_without_fts(self, catalog):
        hits = catalog.search_text("synthetic presentation", k=5)
        assert hits
        assert all("presentation" in hit.body for hit in hits)

    def test_like_fallback_escapes_wildcards(self, catalog):
        assert catalog.search_text("synthetic")  # literal tokens still hit
        # SQL LIKE wildcards in the query match literally, not as
        # any-char / match-all patterns.
        assert catalog.search_text("s_nthetic") == []
        assert catalog.search_text("%") == []


class TestWriter:
    def test_empty_database_is_rejected(self, tmp_path):
        with pytest.raises(StorageError, match="empty"):
            save_database(VideoDatabase(), tmp_path)

    def test_resave_same_corpus_writes_no_new_blocks(self, writable_dir, source_db):
        with SQLCatalog(writable_dir) as catalog:
            before = catalog.features.list_blocks()
            catalog.replace_from(source_db)
            assert catalog.features.list_blocks() == before

    def test_successful_replace_collects_superseded_blocks(self, writable_dir):
        other = build_synthetic_database(videos=6, shots_per_video=4, seed=99)
        with SQLCatalog(writable_dir) as catalog:
            old_blocks = set(catalog.features.list_blocks())
            catalog.replace_from(other)
            now = set(catalog.features.list_blocks())
            # The store holds exactly the live generation's blocks: the
            # superseded corpus was garbage-collected, no orphans remain.
            assert now == catalog._referenced_blocks()
            assert not old_blocks & now

    def test_cleanup_spares_blocks_the_live_catalog_references(self, writable_dir):
        with SQLCatalog(writable_dir) as catalog:
            live = catalog._referenced_blocks()
            assert live
            # Even when offered every live block as a candidate, the
            # cleanup re-checks references at deletion time and keeps
            # them (the concurrent-writer guarantee).
            catalog._drop_unreferenced(set(live))
            assert live <= set(catalog.features.list_blocks())

    def test_failed_replace_keeps_previous_generation(
        self, writable_dir, monkeypatch
    ):
        other = build_synthetic_database(videos=6, shots_per_video=4, seed=99)
        mapped = []

        def boom_on_the_second_leaf(path, dtype):
            # The writer maps each leaf's reduced block right after writing it.
            mapped.append(set(catalog.features.list_blocks()))
            if len(mapped) == 2:
                raise RuntimeError("mapping a written block failed")
            return map_block(path, dtype)

        monkeypatch.setattr(sqlcatalog_module, "map_block", boom_on_the_second_leaf)
        with SQLCatalog(writable_dir) as catalog:
            old_videos = sorted(catalog.videos())
            old_blocks = catalog.features.list_blocks()
            with pytest.raises(RuntimeError):
                catalog.replace_from(other)
            # Blocks of this write were on disk when it failed.
            assert mapped[1] - set(old_blocks)
            # Previous generation intact, aborted blocks cleaned up.
            assert sorted(catalog.videos()) == old_videos
            assert catalog.features.list_blocks() == old_blocks


class TestLockedRetries:
    def test_transient_lock_is_absorbed(self, catalog):
        plan = FaultPlan(
            [FaultSpec(point="storage.db_locked", kind="error", limit=1)], seed=0
        )
        with inject(plan):
            records = catalog.videos()
        assert records
        assert plan.fired("storage.db_locked", "error") == 1

    def test_exhausted_budget_is_typed(self, catalog):
        plan = FaultPlan([FaultSpec(point="storage.db_locked", kind="error")], seed=0)
        with inject(plan):
            with pytest.raises(StorageError, match="locked"):
                catalog.videos()
        assert catalog.videos()  # disarmed: the connection still works
