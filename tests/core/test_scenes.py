"""Tests for scene detection by group merging."""

import numpy as np
import pytest

from repro.core.features import Shot
from repro.core.groups import detect_groups
from repro.core.scenes import (
    detect_scenes,
    select_representative_group,
)
from repro.errors import MiningError
from tests.helpers import blank_frame


def _shot(shot_id: int, spectrum: dict[int, float], length: int = 10) -> Shot:
    histogram = np.zeros(256)
    for bin_index, mass in spectrum.items():
        histogram[bin_index] = mass
    histogram /= histogram.sum()
    return Shot(
        shot_id=shot_id,
        start=shot_id * length,
        stop=(shot_id + 1) * length,
        fps=10.0,
        representative_frame=blank_frame(4, 4),
        histogram=histogram,
        texture=np.full(10, 0.5),
    )


def _location_shots(pattern: str) -> list[Shot]:
    """Letters = locations; same letter -> strongly overlapping spectra."""
    shots = []
    for i, letter in enumerate(pattern):
        base = (20 * (ord(letter) - ord("A"))) % 250
        # Shots of one location share 80% of their mass.
        spectrum = {base: 0.8, base + 1 + (i % 3): 0.2}
        shots.append(_shot(i, spectrum))
    return shots


class TestDetectScenes:
    def test_merges_same_location_groups(self):
        # Two locations; groups inside one location should merge.
        shots = _location_shots("AAAAAA" + "BBBBBB")
        groups, _ = detect_groups(shots)
        result = detect_scenes(groups)
        assert result.scene_count == 2
        assert result.scenes[0].shot_ids == [0, 1, 2, 3, 4, 5]
        assert result.scenes[1].shot_ids == [6, 7, 8, 9, 10, 11]

    def test_small_scenes_eliminated(self):
        shots = _location_shots("AAAAAA" + "X" + "BBBBBB")
        groups, _ = detect_groups(shots)
        result = detect_scenes(groups)
        surviving = {tuple(scene.shot_ids) for scene in result.scenes}
        assert (6,) not in surviving
        assert result.eliminated  # the X unit was dropped

    def test_explicit_merge_threshold(self):
        shots = _location_shots("AAAAAA" + "BBBBBB")
        groups, _ = detect_groups(shots)
        # Impossible threshold: nothing merges; scenes = groups (>=3 shots).
        result = detect_scenes(groups, merge_threshold=2.0)
        assert result.merge_threshold == 2.0

    def test_single_group(self):
        shots = _location_shots("AAAA")
        groups, _ = detect_groups(shots)
        result = detect_scenes(groups[:1])
        assert result.scene_count == 1

    def test_rejects_empty(self):
        with pytest.raises(MiningError):
            detect_scenes([])

    def test_scene_properties(self):
        shots = _location_shots("AAAAAA")
        groups, _ = detect_groups(shots)
        result = detect_scenes(groups)
        scene = result.scenes[0]
        assert scene.shot_count == 6
        assert scene.duration == pytest.approx(6.0)
        assert scene.frame_span == (0, 60)


class TestRepresentativeGroup:
    def test_single_group(self):
        shots = _location_shots("AAA")
        groups, _ = detect_groups(shots)
        assert select_representative_group(groups[:1]) is groups[0]

    def test_two_groups_prefers_more_shots(self):
        from repro.core.groups import Group

        shots = _location_shots("AAAAA" + "BB")
        big = Group(group_id=0, shots=shots[:5])
        small = Group(group_id=1, shots=shots[5:])
        assert select_representative_group([small, big]) is big

    def test_three_groups_prefers_central(self):
        # Three groups: two locations plus a mixed middle group that is
        # most similar to both on average.
        a = [_shot(0, {0: 0.9, 1: 0.1}), _shot(1, {0: 0.9, 2: 0.1})]
        mixed = [_shot(2, {0: 0.5, 40: 0.5}), _shot(3, {0: 0.5, 40: 0.5})]
        b = [_shot(4, {40: 0.9, 41: 0.1}), _shot(5, {40: 0.9, 42: 0.1})]
        groups, _ = detect_groups(a + mixed + b)
        from repro.core.groups import Group

        built = [
            Group(group_id=0, shots=a),
            Group(group_id=1, shots=mixed),
            Group(group_id=2, shots=b),
        ]
        assert select_representative_group(built).group_id == 1

    def test_empty_raises(self):
        with pytest.raises(MiningError):
            select_representative_group([])


class TestOnDemoVideo:
    def test_scene_count_close_to_truth(self, demo_video, demo_structure):
        truth_content = sum(
            1 for scene in demo_video.truth.scenes if scene.shot_count >= 3
        )
        detected = demo_structure.scene_count
        assert truth_content - 1 <= detected <= truth_content + 2

    def test_scenes_have_representatives(self, demo_structure):
        for scene in demo_structure.scenes:
            assert scene.representative_group in scene.groups
