"""Generational reopen: a catalog rewritten on disk is actually served.

``SnapshotManager(reopen=...)`` must build each refreshed generation
against freshly opened handles (new SQLite connection, new mmaps) —
not against the stale views of the superseded files.  This is the
``classminer migrate``/external-reingest scenario.
"""

from __future__ import annotations

import pytest

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
