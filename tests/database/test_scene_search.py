"""Tests for scene-level retrieval."""

import numpy as np
import pytest

from repro.database.index import combine_features
from repro.database.catalog import VideoDatabase
from repro.database.scene_search import SceneIndex
from repro.errors import DatabaseError


@pytest.fixture(scope="module")
def index(demo_result):
    database = VideoDatabase()
    database.register(demo_result)
    return database.scene_index


class TestSceneIndex:
    def test_register_counts_scenes(self, index, demo_result):
        assert len(index) == demo_result.structure.scene_count

    def test_entries_carry_events(self, index, demo_result):
        mined = demo_result.scene_events()
        for entry in index.entries:
            assert entry.event is mined[entry.scene_id]

    def test_centroid_is_mean_of_shots(self, index, demo_result):
        scene = demo_result.structure.scenes[0]
        expected = np.stack(
            [combine_features(s.histogram, s.texture) for s in scene.shots]
        ).mean(axis=0)
        entry = next(e for e in index.entries if e.scene_id == scene.scene_id)
        assert np.allclose(entry.centroid, expected)


class TestSearch:
    def test_scene_query_finds_itself_first(self, index, demo_result):
        scene = demo_result.structure.scenes[1]
        entry = next(e for e in index.entries if e.scene_id == scene.scene_id)
        hits = index.search(entry.centroid, k=3)
        assert hits[0].entry.scene_id == scene.scene_id

    def test_event_filter(self, index, demo_result):
        mined = demo_result.scene_events()
        target = next(iter(mined.values()))
        entry = index.entries[0]
        hits = index.search(entry.centroid, k=10, event=target)
        assert all(hit.entry.event is target for hit in hits)

    def test_shot_query_lands_in_its_scene(self, index, demo_result):
        scene = demo_result.structure.scenes[0]
        shot = scene.shots[1]
        features = combine_features(shot.histogram, shot.texture)
        hits = index.search(features, k=1)
        assert hits[0].entry.scene_id == scene.scene_id

    def test_empty_index_raises(self):
        with pytest.raises(DatabaseError):
            SceneIndex().search(np.zeros(266))
