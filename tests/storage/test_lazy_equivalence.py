"""Out-of-core query paths must be bit-identical to the in-RAM ones.

The contract under test: a corpus saved through the SQL catalog and
opened lazily answers every query surface — flat scan, hierarchical
descent, scene search, access-scoped search — with *exactly* the
results the in-RAM source database gives, including tie-break order
and search statistics.  The migration pair is a catalog rebuilt from an
artifact store, checked against the in-RAM database the same artifacts
register into.
"""

from __future__ import annotations

import mmap
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.database.access import User
from repro.errors import StorageError
from repro.serving.snapshot import build_snapshot
from repro.storage import (
    SQLVideoDatabase,
    build_synthetic_database,
    catalog_path,
    save_database,
)
from repro.types import EventKind


def shot_hits(result):
    return [(h.entry.video_title, h.entry.shot_id, h.score) for h in result.hits]


def scene_hits(hits):
    return [(h.entry.video_title, h.entry.scene_id, h.score) for h in hits]


def flat_hits(result):
    """:func:`shot_hits` plus each winner's row, read after the scan."""
    return [(*hit, h.entry.features.tobytes()) for hit, h in zip(shot_hits(result), result.hits)]


class TestFlatEquivalence:
    def test_hits_scores_and_stats_match(self, source_db, lazy_db, probes):
        for probe in probes:
            a = source_db.search_flat(probe, k=10)
            b = lazy_db.search_flat(probe, k=10)
            assert shot_hits(a) == shot_hits(b)
            assert a.stats.comparisons == b.stats.comparisons
            assert a.stats.ranked == b.stats.ranked

    def test_tie_break_order_matches(self, source_db, lazy_db):
        # A saturating probe maxes the intersection kernel for every
        # entry, so all scores tie exactly: ordering must still agree.
        probe = np.full(source_db.flat_index.entries[0].features.shape[0], 10.0)
        result = source_db.search_flat(probe, k=20)
        scores = [h.score for h in result.hits]
        assert len(set(scores)) < len(scores)  # the probe really does tie
        assert shot_hits(result) == shot_hits(lazy_db.search_flat(probe, k=20))

    def test_entry_order_and_features_match(self, source_db, lazy_db):
        eager = source_db.flat_index.entries
        lazy = lazy_db.flat_index.entries
        assert [e.key for e in eager] == [e.key for e in lazy]
        for i in (0, len(eager) // 2, len(eager) - 1):
            np.testing.assert_array_equal(eager[i].features, lazy[i].features)

    def test_out_of_core_flat_is_read_only(self, lazy_db):
        # A flat index is a view over the leaves: there is nothing to
        # insert into (mutation goes through the database, which seals
        # new leaves — TestMutation) and a stored row
        # cannot be written through it.
        flat = lazy_db.flat_index
        assert not hasattr(flat, "insert")
        row = flat.entries_at([0])[0].features
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 1.0


class TestHierarchicalEquivalence:
    def test_hits_and_descent_paths_match(self, source_db, lazy_db, probes):
        for probe in probes:
            a = source_db.search(probe, k=10)
            b = lazy_db.search(probe, k=10)
            assert shot_hits(a) == shot_hits(b)
            assert a.stats.visited_path == b.stats.visited_path
            assert a.stats.comparisons == b.stats.comparisons

    def test_access_scoped_search_matches(self, source_db, lazy_db, probes):
        public = User(name="student", clearance=1)
        cleared = User(name="surgeon", clearance=3)
        for probe in probes[:2]:
            for user in (public, cleared):
                a = source_db.search(probe, user=user, k=10)
                b = lazy_db.search(probe, user=user, k=10)
                assert shot_hits(a) == shot_hits(b)
        # The scope really filters: both views enforce the same leaf set,
        # and the public one may only surface low-sensitivity concepts.
        assert set(source_db.controller.permitted_leaves(public)) != set(
            source_db.controller.permitted_leaves(cleared)
        )
        a = lazy_db.search(probes[0], user=public, k=10)
        for hit in a.hits:
            event = source_db.videos[hit.entry.video_title].events[
                hit.entry.scene_id
            ]
            assert event in (EventKind.PRESENTATION.value, EventKind.UNKNOWN.value)


class TestSceneEquivalence:
    def test_scene_search_matches_derived_index(self, source_db, lazy_db, probes):
        eager = source_db.scene_index
        lazy = lazy_db.scene_index
        assert len(lazy) == len(eager)
        for probe in probes:
            assert scene_hits(eager.search(probe, k=5)) == scene_hits(
                lazy.search(probe, k=5)
            )

    def test_event_filter_and_similar_scenes_match(self, source_db, lazy_db, probes):
        eager = source_db.scene_index
        lazy = lazy_db.scene_index
        kind = EventKind.PRESENTATION
        assert scene_hits(eager.search(probes[0], k=5, event=kind)) == scene_hits(
            lazy.search(probes[0], k=5, event=kind)
        )
        anchor = eager.entries[0].centroid  # a search from an indexed scene
        assert scene_hits(eager.search(anchor, k=3)) == scene_hits(lazy.search(anchor, k=3))


class TestConcurrentColdProbes:
    def test_racing_threads_see_fully_loaded_indexes(
        self, stored_dir, source_db, probes
    ):
        """Concurrent first probes must never observe a partial load.

        Serving workers share the lazy leaf/scene indexes through an
        out-of-core snapshot; a barrier lines threads up on a cold view
        so they race the materialisation, and every one must still get
        the eager path's exact results.  Flat scans race too: each gives
        back the pages of the blocks the others are reading, and the
        winners' rows, read after the scan, are still the stored rows.
        """
        expected = {
            "shot": shot_hits(source_db.search(probes[0], k=10)),
            "scene": scene_hits(source_db.scene_index.search(probes[1], k=5)),
            "flat": flat_hits(source_db.search_flat(probes[3], k=10)),
        }
        workers = 9
        for _round in range(3):  # fresh cold view each round
            lazy = SQLVideoDatabase.open(stored_dir)
            barrier = threading.Barrier(workers)

            def probe(i: int):
                barrier.wait(timeout=30)
                kind = ("shot", "scene", "flat")[i % 3]
                if kind == "scene":
                    return kind, scene_hits(lazy.scene_index.search(probes[1], k=5))
                if kind == "flat":
                    return kind, flat_hits(lazy.search_flat(probes[3], k=10))
                return kind, shot_hits(lazy.search(probes[0], k=10))

            try:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    results = list(pool.map(probe, range(workers)))
            finally:
                lazy.close()
            for kind, hits in results:
                assert hits == expected[kind]


def _block_owner(block: np.ndarray):
    """What a leaf block's memory belongs to, under its ndarray views."""
    while isinstance(block, np.ndarray):
        block = block.base
    return block


class TestScanRelease:
    """A flat scan gives back the pages of the stored 266-d blocks it read,
    and only those: a registered corpus's blocks are anonymous ``mmap``
    pages, where ``MADV_DONTNEED`` would zero the rows."""

    def test_registered_blocks_are_never_released(self):
        from repro.core.kernels import combined_stsim_to_many

        database = build_synthetic_database(videos=24, shots_per_video=8, seed=0)
        leaves = list(database.leaves.values())
        for leaf in leaves:  # the hazard is present: anonymous mmap pages
            assert isinstance(_block_owner(leaf.block).obj, mmap.mmap)
        copies = [np.array(leaf.block) for leaf in leaves]  # RAM, before any scan
        probes = [copies[0][0], np.random.default_rng(7).random(266)]
        for _ in range(3):
            for probe in probes:
                scores = database.flat_index.scores(probe)
                for leaf, rows in zip(leaves, copies):
                    expected = combined_stsim_to_many(probe, rows)
                    assert scores[leaf.ordinals].tobytes() == expected.tobytes()
        for leaf, rows in zip(leaves, copies):
            assert np.array_equal(leaf.block, rows)

    def test_stored_blocks_are_released_and_read_back_unchanged(
        self, source_db, lazy_db, probes, monkeypatch
    ):
        from repro.storage.featurestore import _ScanMapping

        released = []
        release = _ScanMapping.release_pages
        monkeypatch.setattr(
            _ScanMapping,
            "release_pages",
            lambda mapping, rows: released.append(rows.shape[0]) or release(mapping, rows),
        )
        for _ in range(2):
            for probe in probes:
                assert flat_hits(lazy_db.search_flat(probe, k=10)) == flat_hits(
                    source_db.search_flat(probe, k=10)
                )
        assert sum(released) == 2 * len(probes) * lazy_db.shot_count
        for name, leaf in lazy_db.leaves.items():
            assert isinstance(_block_owner(leaf.block), _ScanMapping)
            assert not isinstance(_block_owner(leaf.reduced), _ScanMapping)
            assert np.array_equal(leaf.block, source_db.leaves[name].block)
        assert not isinstance(_block_owner(lazy_db.scene_index.table.centroids), _ScanMapping)


class TestSnapshotIntegration:
    def test_out_of_core_snapshot_shares_indices(self, lazy_db):
        snapshot = build_snapshot(lazy_db, 1)
        assert snapshot.flat is lazy_db.flat_index  # no materialising copy
        assert snapshot.shot_count == lazy_db.shot_count
        result = snapshot.flat.search(lazy_db.flat_index.entries[0].features, k=3)
        assert result.hits

    def test_degraded_flags_roundtrip_into_snapshot(self, tmp_path):
        database = build_synthetic_database(videos=4, shots_per_video=6, seed=3)
        database.register_entries(
            "degraded_video",
            [(0, EventKind.DIALOG, [np.random.default_rng(5).random(266)])],
            degraded_stages=("audio",),
        )
        from repro.storage import save_database

        save_database(database, tmp_path)
        lazy = SQLVideoDatabase.open(tmp_path)
        try:
            assert lazy.videos["degraded_video"].degraded_stages == ("audio",)
            snapshot = build_snapshot(lazy, 1)
            assert snapshot.degraded_videos == ("degraded_video",)
        finally:
            lazy.close()


class TestMigrationRoundTrip:
    @pytest.fixture(scope="class")
    def migrated_pair(self, tmp_path_factory, demo_result):
        """(in-RAM db rebuilt from the artifacts, stored db migrated from them)."""
        from repro.ingest.jobs import IngestJob
        from repro.ingest.runner import publish_catalog, rebuild_database, store_for

        db_dir = tmp_path_factory.mktemp("artifacts-only")
        store = store_for(db_dir)
        store.save(IngestJob.for_title("demo").key, demo_result)
        eager, skipped = rebuild_database(store)
        assert skipped == []
        report = publish_catalog(db_dir)
        migrated = SQLVideoDatabase.open(db_dir)
        yield eager, migrated, report, db_dir
        migrated.close()

    @pytest.fixture(scope="class")
    def probes(self, migrated_pair):
        entries = migrated_pair[0].flat_index.entries
        rng = np.random.default_rng(7)
        return [
            entries[0].features,
            entries[-1].features,
            rng.random(entries[0].features.shape[0]),
        ]

    def test_report_counts_what_was_migrated(self, migrated_pair):
        eager, migrated, report, db_dir = migrated_pair
        assert report.registered == list(eager.videos) == ["demo"]
        assert report.database_path == catalog_path(db_dir)
        assert (report.outcomes, report.skipped) == ([], [])
        assert migrated.shot_count == eager.shot_count

    def test_registrations_identical(self, migrated_pair):
        eager, migrated, _report, _legacy = migrated_pair
        assert sorted(eager.videos) == sorted(migrated.videos)
        for title, record in eager.videos.items():
            other = migrated.videos[title]
            assert record.degraded_stages == other.degraded_stages
            assert record.events == other.events
            assert record.shot_count == other.shot_count

    def test_queries_identical(self, migrated_pair, probes):
        eager, migrated, _report, _legacy = migrated_pair
        for probe in probes:
            assert shot_hits(eager.search_flat(probe, k=10)) == shot_hits(
                migrated.search_flat(probe, k=10)
            )
            a = eager.search(probe, k=10)
            b = migrated.search(probe, k=10)
            assert shot_hits(a) == shot_hits(b)
            assert a.stats.visited_path == b.stats.visited_path

    def test_access_scopes_identical(self, migrated_pair, probes):
        eager, migrated, _report, _legacy = migrated_pair
        user = User(name="student", clearance=1)
        for probe in probes[:2]:
            assert shot_hits(eager.search(probe, user=user, k=10)) == shot_hits(
                migrated.search(probe, user=user, k=10)
            )

    def test_empty_dir_is_typed(self, tmp_path):
        from repro.cli import build_parser
        from repro.ingest.runner import publish_catalog, store_for

        # Nothing to register: the publish writes nothing and says so ...
        report = publish_catalog(tmp_path)
        assert (report.database_path, report.registered) == (None, [])
        assert list(tmp_path.iterdir()) == []
        # ... and ``classminer migrate`` makes a typed error of it.
        args = build_parser().parse_args(["migrate", "--db-dir", str(tmp_path)])
        with pytest.raises(StorageError, match="nothing to migrate"):
            args.func(args)
        store_for(tmp_path).root.mkdir()
        with pytest.raises(StorageError, match="no registered videos"):
            args.func(args)


class TestPicksBuildOnlyThePickedRows:
    """Picking a probe off an opened store must not turn the corpus into
    objects: ``classminer serve``'s canary and the gateway's ``/workload``
    sample used to build a ``ShotEntry`` for every stored row (one
    ``leaf_rows`` read per leaf) to keep one, or sixteen."""

    @pytest.fixture()
    def counted(self, monkeypatch, stored_dir):
        from repro.database.index import LeafHashIndex
        from repro.storage import FeatureStore, SQLCatalog

        with SQLCatalog(stored_dir) as catalog:
            ids = {info.ids_sha for info in catalog.leaf_infos()}
        calls = {"entry": 0, "leaf_rows": 0, "ids": 0}
        entry, open_block = LeafHashIndex.entry, FeatureStore.open

        def counting_entry(self, row):
            calls["entry"] += 1
            return entry(self, row)

        def counting_open(self, sha, *args, **kwargs):
            calls["ids"] += sha in ids  # a leaf's id block: its rows' identities
            return open_block(self, sha, *args, **kwargs)

        def no_leaf_rows(self, name):
            calls["leaf_rows"] += 1
            raise AssertionError("per-row read of a whole leaf")

        monkeypatch.setattr(LeafHashIndex, "entry", counting_entry)
        monkeypatch.setattr(FeatureStore, "open", counting_open)
        monkeypatch.setattr(SQLCatalog, "leaf_rows", no_leaf_rows)
        return calls

    def test_first_row_loads_one_leaf_and_builds_one_entry(self, lazy_db, counted):
        (entry,) = lazy_db.flat_index.entries_at([0])
        assert entry.key == ("synthetic_00000", 0)
        assert counted == {"entry": 1, "leaf_rows": 0, "ids": 1}

    def test_serve_canary(self, stored_dir, counted, capsys):
        from repro.cli import main

        assert main(["serve", "--db-dir", str(stored_dir)]) == 0
        assert "canary query" in capsys.readouterr().out
        # The pick, plus the five hits of the one query that missed the cache.
        assert counted["entry"] <= 1 + 5
        assert counted["leaf_rows"] == 0

    def test_workload_sample(self, lazy_db, counted):
        from repro.serving import QueryServer

        with QueryServer(lazy_db) as server:
            sample = server.sample_features(16)
        assert len(sample) == 16
        assert counted["entry"] == 16
        assert counted["leaf_rows"] == 0
        everything = lazy_db.flat_index.entries
        assert np.array_equal(sample[0], everything[0].features)
        assert np.array_equal(sample[-1], everything[-1].features)


def stored_state(db_dir) -> dict:
    """Every row of every catalog table, plus the feature-block digests on disk."""
    import sqlite3

    conn = sqlite3.connect(db_dir / "catalog.sqlite")
    try:
        tables = [
            name
            for (name,) in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name"
            )
            if not name.startswith("sqlite_")
        ]
        state = {t: conn.execute(f"SELECT * FROM {t}").fetchall() for t in tables}
    finally:
        conn.close()
    state["blocks"] = sorted(p.name for p in (db_dir / "features").rglob("*.npy"))
    return state


def _extra_video(database, title: str, seed: int) -> None:
    rows = np.random.default_rng(seed).random((6, 266))
    database.register_entries(
        title,
        [(0, EventKind.DIALOG, list(rows[:3])), (1, EventKind.UNKNOWN, list(rows[3:]))],
    )


class TestMutation:
    """Registering / unregistering on an opened store is the same operation,
    on the same columns, as on the registered corpus: saved afterwards,
    both give the same stored rows, block digests and answers."""

    def test_opened_store_matches_in_ram_source(
        self, stored_dir, probes, tmp_path
    ):
        opened = SQLVideoDatabase.open(stored_dir)
        in_ram = build_synthetic_database(videos=24, shots_per_video=8, seed=0)
        try:
            for database in (opened, in_ram):
                _extra_video(database, "late_arrival", seed=11)
                assert database.unregister("synthetic_00007") == 8
                _extra_video(database, "later_still", seed=12)
            # Untouched leaves of the opened store never left their mmaps.
            assert shot_hits(opened.search_flat(probes[3], k=10)) == shot_hits(
                in_ram.search_flat(probes[3], k=10)
            )
            for probe in probes:
                a, b = in_ram.search(probe, k=10), opened.search(probe, k=10)
                assert shot_hits(a) == shot_hits(b)
                assert a.stats.visited_path == b.stats.visited_path
                assert a.stats.comparisons == b.stats.comparisons
                assert scene_hits(in_ram.scene_index.search(probe, k=5)) == scene_hits(
                    opened.scene_index.search(probe, k=5)
                )
            save_database(opened, tmp_path / "from-opened")
            save_database(in_ram, tmp_path / "from-ram")
        finally:
            opened.close()
        assert stored_state(tmp_path / "from-opened") == stored_state(
            tmp_path / "from-ram"
        )

    def test_catalog_register_bulk_reads_columns_not_rows(
        self, tmp_path, demo_result
    ):
        """Registering on a database opened over the catalog and replacing
        the catalog with it reads no per-row block, and stores the same
        state as registering in RAM."""
        from repro.storage import SQLCatalog

        in_ram = build_synthetic_database(videos=6, shots_per_video=8, seed=4)
        save_database(in_ram, tmp_path / "bulk")
        with SQLCatalog(tmp_path / "bulk") as catalog:
            catalog.leaf_rows = None  # the per-row reader: calling it would raise
            opened = SQLVideoDatabase(catalog)
            added = opened.register_bulk([demo_result])
            assert [record.title for record in added] == [demo_result.title]
            catalog.replace_from(opened)
        in_ram.register(demo_result)
        save_database(in_ram, tmp_path / "ram")
        assert stored_state(tmp_path / "bulk") == stored_state(tmp_path / "ram")
