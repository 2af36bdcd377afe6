"""Tests for ground-truth annotations."""

import pytest

from repro.errors import VideoError
from repro.types import EventKind
from repro.video.ground_truth import GroundTruth, SceneSpan, ShotSpan


def _simple_truth():
    shots = [
        ShotSpan(0, 0, 10, speaker="a", scene_id=0),
        ShotSpan(1, 10, 25, speaker="b", scene_id=0),
        ShotSpan(2, 25, 40, speaker=None, scene_id=1),
    ]
    scenes = [
        SceneSpan(0, 0, 1, event=EventKind.DIALOG, subject="talk", topic_relevant=True),
        SceneSpan(1, 2, 2, event=EventKind.UNKNOWN),
    ]
    return GroundTruth(shots=shots, groups=[[0, 1], [2]], scenes=scenes)


class TestSpans:
    def test_shot_span_validation(self):
        with pytest.raises(VideoError):
            ShotSpan(0, 5, 5)
        with pytest.raises(VideoError):
            ShotSpan(0, -1, 5)

    def test_shot_contains(self):
        span = ShotSpan(0, 10, 20)
        assert span.contains(10)
        assert span.contains(19)
        assert not span.contains(20)
        assert span.length == 10

    def test_scene_span_validation(self):
        with pytest.raises(VideoError):
            SceneSpan(0, 3, 2)

    def test_scene_shot_ids(self):
        scene = SceneSpan(0, 2, 5)
        assert list(scene.shot_ids) == [2, 3, 4, 5]
        assert scene.shot_count == 4


class TestGroundTruth:
    def test_validate_passes(self):
        _simple_truth().validate(40)

    def test_validate_frame_count_mismatch(self):
        with pytest.raises(VideoError):
            _simple_truth().validate(41)

    def test_validate_bad_groups(self):
        truth = _simple_truth()
        truth.groups = [[0], [2]]
        with pytest.raises(VideoError):
            truth.validate(40)

    def test_validate_gap_between_shots(self):
        truth = _simple_truth()
        truth.shots[1] = ShotSpan(1, 11, 25)
        with pytest.raises(VideoError):
            truth.validate(40)

    def test_validate_empty(self):
        with pytest.raises(VideoError):
            GroundTruth().validate(10)

    def test_validate_unknown_duplicate_scene(self):
        truth = _simple_truth()
        truth.duplicate_scene_sets = [[0, 99]]
        with pytest.raises(VideoError):
            truth.validate(40)

    def test_shot_boundaries(self):
        assert _simple_truth().shot_boundaries() == [10, 25]

    def test_scene_of_shot(self):
        truth = _simple_truth()
        assert truth.scene_of_shot(1).scene_id == 0
        assert truth.scene_of_shot(2).scene_id == 1
        with pytest.raises(VideoError):
            truth.scene_of_shot(99)

    def test_event_and_speaker_lookup(self):
        truth = _simple_truth()
        assert truth.event_of_shot(0) is EventKind.DIALOG
        assert truth.shots[1].speaker == "b"
        assert truth.shots[2].speaker is None


class TestGeneratedTruth:
    def test_demo_truth_is_consistent(self, demo_video):
        demo_video.truth.validate(len(demo_video.stream))

    def test_demo_truth_has_all_event_kinds(self, demo_truth):
        events = {scene.event for scene in demo_truth.scenes}
        assert EventKind.PRESENTATION in events
        assert EventKind.DIALOG in events
        assert EventKind.CLINICAL_OPERATION in events
