"""Tests for the VideoDatabase catalog, queries and persistence."""

import tracemalloc

import numpy as np
import pytest

from repro.database.access import FilterRule, Permission, User
from repro.database.catalog import VideoDatabase
from repro.database.index import combine_features
from repro.errors import DatabaseError
from repro.types import EventKind


@pytest.fixture(scope="module")
def database(demo_result):
    db = VideoDatabase()
    db.register(demo_result)
    db.build_index()
    return db


def _query_features(demo_result, shot_index=2):
    shot = demo_result.structure.shots[shot_index]
    return combine_features(shot.histogram, shot.texture)


class TestRegistration:
    def test_counts(self, database, demo_result):
        assert database.shot_count == demo_result.structure.shot_count
        record = database.videos["demo"]
        assert record.scene_count == demo_result.structure.scene_count

    def test_double_registration_raises(self, database, demo_result):
        with pytest.raises(DatabaseError):
            database.register(demo_result)

    def test_a_scene_listed_twice_is_refused_before_filing(self):
        database = VideoDatabase()
        rows = np.random.default_rng(1).random((4, 266))
        scenes = [(0, EventKind.DIALOG, rows[:2]), (0, EventKind.DIALOG, rows[2:])]
        with pytest.raises(DatabaseError, match="scene id twice"):
            database.register_entries("twice", scenes)
        assert database.shot_count == 0 and not database.videos

    def test_empty_database_cannot_index(self):
        with pytest.raises(DatabaseError):
            VideoDatabase().build_index()

    def test_filing_a_video_allocates_no_block_it_throws_away(self):
        """A leaf's first rows grow its columns to 4,096 rows; the 266-d block
        goes on anonymous pages, so tracemalloc sees only the small columns
        (it saw 8.9 MB while an ``np.empty`` block was made and then dropped)."""
        features = np.random.default_rng(0).random((40, 266))
        kinds = [EventKind.PRESENTATION, EventKind.DIALOG, EventKind.CLINICAL_OPERATION]
        scenes = [(s, kinds[s % 3], list(range(4 * s, 4 * s + 4))) for s in range(9)]
        VideoDatabase().register_shots("warm-up", list(range(40)), features, scenes)
        database = VideoDatabase()
        tracemalloc.start()
        try:
            database.register_shots("forty shots", list(range(40)), features, scenes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert database.videos["forty shots"].shot_count == 40
        assert peak < 1 << 20, peak


class TestSearch:
    def test_exact_query_finds_itself(self, database, demo_result):
        features = _query_features(demo_result, 2)
        result = database.search(features, k=3)
        assert result.top.entry.key == ("demo", demo_result.structure.shots[2].shot_id)
        # Reduced-subspace scores are not normalised, but an exact match
        # must dominate every other candidate.
        others = [hit.score for hit in result.hits[1:]]
        assert all(result.top.score >= score for score in others)

    def test_flat_and_hierarchical_agree_on_top_hit(self, database, demo_result):
        features = _query_features(demo_result, 5)
        hier = database.search(features, k=1)
        flat = database.search_flat(features, k=1)
        assert hier.top.entry.key == flat.top.entry.key

    def test_flat_scan_touches_everything(self, database, demo_result):
        features = _query_features(demo_result, 5)
        flat = database.search_flat(features, k=5)
        assert flat.stats.comparisons == database.shot_count

    def test_hierarchy_does_less_work_at_scale(self):
        """With enough shots per leaf, the descent beats the scan.
        (The Sec. 6.2 bench demonstrates this on the full corpus; here a
        hand-built database keeps the unit test fast.)"""
        import numpy as np

        from repro.database.flat import FlatIndex
        from repro.database.index import ShotEntry, build_node
        from repro.database.query import search_hierarchical

        rng = np.random.default_rng(0)
        leaves = []
        for leaf_idx in range(4):
            entries = []
            for i in range(50):
                hist = np.zeros(256)
                hot = leaf_idx * 64 + int(rng.integers(0, 30))
                hist[hot] = 1.0
                entry = ShotEntry(
                    video_title="v",
                    shot_id=leaf_idx * 100 + i,
                    scene_id=0,
                    features=np.concatenate([hist, np.full(10, 0.5)]),
                )
                entries.append(entry)
            ordinals = np.arange(50 * leaf_idx, 50 * (leaf_idx + 1))
            leaves.append(
                build_node(f"leaf{leaf_idx}", 1, entries=entries, ordinals=ordinals)
            )
        root = build_node("root", 0, children=leaves)
        flat = FlatIndex([node.leaf for node in leaves])
        query = flat.entries[10].features
        hier = search_hierarchical(root, query, k=5)
        scan = flat.search(query, k=5)
        assert hier.stats.comparisons < scan.stats.comparisons

    def test_descent_path_recorded(self, database, demo_result):
        result = database.search(_query_features(demo_result), k=1)
        assert result.stats.visited_path[0] == "medical_video_database"
        assert len(result.stats.visited_path) >= 3

    def test_access_filtered_search(self, database, demo_result):
        # demo is an unknown title -> shots live under 'general/...'.
        features = _query_features(demo_result, 2)
        denied = User(
            name="blocked",
            clearance=9,
            rules=(FilterRule("general", Permission.DENY),),
        )
        result = database.search(features, user=denied, k=3)
        assert result.hits == []

    def test_access_reroutes_to_permitted_leaf(self, database, demo_result):
        features = _query_features(demo_result, 2)
        open_user = User(name="chief", clearance=9)
        result = database.search(features, user=open_user, k=3)
        assert result.hits


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path, database, demo_result):
        from repro.storage import load_database, save_database

        save_database(database, tmp_path)
        restored = load_database(tmp_path)
        assert restored.shot_count == database.shot_count
        assert set(restored.videos) == {"demo"}
        features = _query_features(demo_result, 2)
        original = database.search_flat(features, k=1)
        loaded = restored.search_flat(features, k=1)
        assert original.top.entry.key == loaded.top.entry.key
        # Hierarchical search works on the restored catalog too.
        restored.build_index()
        assert restored.search(features, k=1).top.entry.key == original.top.entry.key
        restored.close()

    def test_load_missing_file_raises(self, tmp_path):
        from repro.errors import IngestError
        from repro.storage import load_database

        with pytest.raises(IngestError, match="no ingested database"):
            load_database(tmp_path)


class TestBeamDescent:
    def test_wider_beam_costs_more_finds_no_less(self, database, demo_result):
        from repro.database.query import search_hierarchical

        features = _query_features(demo_result, 2)
        narrow = search_hierarchical(database.index_root, features, k=3, beam=1)
        wide = search_hierarchical(database.index_root, features, k=3, beam=3)
        assert wide.stats.comparisons >= narrow.stats.comparisons
        assert wide.top.score >= narrow.top.score - 1e-9

    def test_beam_zero_rejected(self, database, demo_result):
        from repro.database.query import search_hierarchical

        features = _query_features(demo_result, 2)
        with pytest.raises(DatabaseError):
            search_hierarchical(database.index_root, features, beam=0)
