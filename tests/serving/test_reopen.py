"""Generational reopen: a catalog rewritten on disk is actually served.

``SnapshotManager(reopen=...)`` must build each refreshed generation
against freshly opened handles (new SQLite connection, new mmaps) —
not against the stale views of the superseded files.  This is the
``classminer migrate``/external-reingest scenario.

A superseded generation stays open exactly as long as a query holds its
snapshot: it answers bit for bit after the swap, lazy first touches
included, and its catalog closes the moment the last holder lets go —
by reference count alone, with the cycle collector off.
"""

from __future__ import annotations

import gc

import pytest

from repro.errors import StorageError
from repro.serving.server import QueryRequest, QueryServer, ServerConfig
from repro.serving.snapshot import SnapshotManager
from repro.storage import SQLVideoDatabase, build_synthetic_database, save_database


@pytest.fixture()
def stored(tmp_path):
    db_dir = tmp_path / "db"
    save_database(
        build_synthetic_database(
            videos=8, shots_per_video=4, scenes_per_video=2, seed=21
        ),
        db_dir,
    )
    return db_dir


@pytest.fixture()
def reopening_server(stored):
    manager = SnapshotManager(
        SQLVideoDatabase.open(stored),
        reopen=lambda: SQLVideoDatabase.open(stored),
    )
    with QueryServer(
        manager=manager, config=ServerConfig()
    ) as server:
        yield server


class TestGenerationalReopen:
    def test_rebuild_after_external_rewrite_serves_new_corpus(
        self, stored, reopening_server
    ):
        server = reopening_server
        old = server.manager.current()
        old_titles = set(old.records)

        # An external writer replaces the catalog on disk: a bigger
        # corpus with entirely different titles.
        bigger = build_synthetic_database(
            videos=12, shots_per_video=4, scenes_per_video=2, seed=22
        )
        save_database(bigger, stored)

        fresh = server.refresh()
        assert fresh.generation > old.generation
        assert set(fresh.records) == set(bigger.videos)
        assert set(fresh.records) != old_titles or len(fresh.records) != len(
            old_titles
        )

        # Queries answer from the new generation's data.
        probe = bigger.flat_index.entries[0].features
        result = server.query(QueryRequest(kind="shot", features=probe, k=3))
        assert result.generation == fresh.generation
        assert result.hits
        assert all(
            hit.entry.video_title in bigger.videos for hit in result.hits
        )

    def test_refresh_without_rewrite_is_equivalent(self, reopening_server):
        server = reopening_server
        before = server.manager.current()
        probe = before.flat.entries[0].features
        baseline = server.query(QueryRequest(kind="shot", features=probe, k=5))
        server.refresh()
        again = server.query(QueryRequest(kind="shot", features=probe, k=5))
        assert again.generation > baseline.generation
        assert [
            (h.entry.video_title, h.entry.shot_id, h.score) for h in again.hits
        ] == [
            (h.entry.video_title, h.entry.shot_id, h.score)
            for h in baseline.hits
        ]


def _shots(result) -> list:
    return [(h.entry.video_title, h.entry.shot_id, h.score) for h in result.hits]


def _scenes(hits) -> list:
    return [(h.entry.video_title, h.entry.scene_id, h.score) for h in hits]


class TestRetirement:
    def test_a_held_generation_answers_then_closes_when_let_go(
        self, stored, reopening_server
    ):
        reference = SQLVideoDatabase.open(stored)
        try:
            probe = reference.flat_index.entries[5].features
            shots = _shots(reference.search(probe, k=5))
            flat = _shots(reference.search_flat(probe, k=5))
            scenes = _scenes(reference.scene_index.search(probe, k=3))
        finally:
            reference.close()
        manager = reopening_server.manager
        held = manager.current()
        catalog = manager.database.catalog
        assert len(catalog.features._open) == 0  # no leaf nor scene touched yet

        assert manager.refresh().generation == held.generation + 1
        # The first touches of leaves and of the scene table happen
        # after the swap, against the superseded generation's handles.
        assert _shots(held.search(probe, k=5)) == shots
        assert _scenes(held.search_scenes(probe, k=3)) == scenes
        assert _shots(held.search_flat(probe, k=5)) == flat
        assert len(catalog.features._open) > 0

        gc.disable()
        try:
            del held  # the last holder: refcount alone closes the catalog
            with pytest.raises(StorageError, match="closed"):
                catalog.meta("schema_version")
            assert len(catalog.features._open) == 0
        finally:
            gc.enable()

    def test_a_generation_no_query_holds_closes_inside_the_swap(
        self, reopening_server
    ):
        manager = reopening_server.manager
        manager.current()
        catalog = manager.database.catalog
        manager.refresh()
        with pytest.raises(StorageError, match="closed"):
            catalog.meta("schema_version")
        manager.database.catalog.meta("schema_version")  # the live one answers
