"""Artifact store round-trips: lossless save/load of mined results."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import ClassMiner
from repro.errors import IngestError
from repro.ingest.artifacts import (
    ArtifactStore,
    decode_result,
    encode_result,
)
from repro.ingest.jobs import IngestJob
from tests.helpers import results_equal


@pytest.fixture(scope="module")
def structure_only_result(demo_stream):
    """A mine_events=False run: events is None, cue/audio dicts empty."""
    return ClassMiner().mine(demo_stream, mine_events=False)


@pytest.fixture()
def store(tmp_path):
    """An empty artifact store in a temp directory."""
    return ArtifactStore(tmp_path / "artifacts")


KEY = IngestJob.for_title("demo").key


class TestRoundTrip:
    def test_full_result_round_trips_losslessly(self, store, demo_result):
        store.save(KEY, demo_result)
        loaded = store.load(KEY)
        assert results_equal(demo_result, loaded)

    def test_round_trip_preserves_structure(self, store, demo_result):
        store.save(KEY, demo_result)
        loaded = store.load(KEY)
        assert loaded.title == demo_result.title
        assert loaded.structure.level_sizes() == demo_result.structure.level_sizes()
        for original, restored in zip(
            demo_result.structure.shots, loaded.structure.shots
        ):
            assert restored.shot_id == original.shot_id
            assert (restored.start, restored.stop) == (original.start, original.stop)
            assert np.array_equal(restored.histogram, original.histogram)
            assert np.array_equal(restored.texture, original.texture)
        assert [s.shot_ids for s in loaded.structure.scenes] == [
            s.shot_ids for s in demo_result.structure.scenes
        ]

    def test_round_trip_preserves_events_and_cues(self, store, demo_result):
        store.save(KEY, demo_result)
        loaded = store.load(KEY)
        assert loaded.scene_events() == demo_result.scene_events()
        assert set(loaded.cues) == set(demo_result.cues)
        assert set(loaded.audio) == set(demo_result.audio)
        some_shot = next(iter(demo_result.audio))
        assert np.array_equal(
            loaded.audio[some_shot].mfcc_vectors,
            demo_result.audio[some_shot].mfcc_vectors,
        )

    def test_events_disabled_round_trips(self, store, structure_only_result):
        # The gap this PR closes: events=None and empty cue/audio dicts
        # must survive the round trip instead of crashing the encoder.
        store.save(KEY, structure_only_result)
        loaded = store.load(KEY)
        assert loaded.events is None
        assert loaded.cues == {}
        assert loaded.audio == {}
        assert results_equal(structure_only_result, loaded)

    def test_encode_decode_without_disk(self, demo_result):
        meta, arrays = encode_result(demo_result)
        rebuilt = decode_result(meta, arrays)
        assert results_equal(demo_result, rebuilt)

    def test_results_equal_detects_difference(
        self, demo_result, structure_only_result
    ):
        assert results_equal(demo_result, demo_result)
        assert not results_equal(demo_result, structure_only_result)


class TestStore:
    def test_has_and_path_for(self, store, demo_result):
        assert not store.has(KEY)
        path = store.save(KEY, demo_result)
        assert store.has(KEY)
        assert path == store.path_for(KEY)
        assert path.parent.name == KEY[:2]

    def test_missing_artifact_raises_typed_error(self, store):
        with pytest.raises(IngestError):
            store.load(KEY)

    def test_corrupt_meta_raises_typed_error(self, store, demo_result):
        store.save(KEY, demo_result)
        (store.path_for(KEY) / "meta.json").write_text("{not json")
        with pytest.raises(IngestError):
            store.load(KEY)

    def test_format_version_mismatch_raises(self, store, demo_result):
        store.save(KEY, demo_result)
        meta_path = store.path_for(KEY) / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(IngestError):
            store.load(KEY)

    def test_save_overwrites_existing_artifact(self, store, demo_result):
        store.save(KEY, demo_result, extra_meta={"marker": "first"})
        store.save(KEY, demo_result, extra_meta={"marker": "second"})
        assert store.read_meta(KEY)["marker"] == "second"
        assert results_equal(store.load(KEY), demo_result)

    def test_extra_meta_is_merged(self, store, demo_result):
        store.save(KEY, demo_result, extra_meta={"seed": 7})
        meta = store.read_meta(KEY)
        assert meta["seed"] == 7
        assert meta["key"] == KEY

    def test_list_remove_clear(self, store, demo_result):
        other = "f" * 64
        store.save(KEY, demo_result)
        store.save(other, demo_result)
        infos = store.list()
        assert {info.key for info in infos} == {KEY, other}
        assert all(info.title == "demo" for info in infos)
        assert all(info.size_bytes > 0 for info in infos)
        assert store.clear() == 2
        assert store.list() == []
