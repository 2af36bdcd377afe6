"""Tests for skim construction and playback."""

import pytest

from repro.errors import SkimmingError
from repro.skimming.levels import build_level_shots
from repro.skimming.skim import build_skim
from repro.types import EventKind


@pytest.fixture(scope="module")
def skim(demo_result):
    return build_skim(demo_result.structure, demo_result.events.events)


class TestLevels:
    def test_levels_are_nested_in_size(self, demo_structure):
        levels = build_level_shots(demo_structure)
        assert len(levels[1]) >= len(levels[2]) >= len(levels[3]) >= len(levels[4])
        assert len(levels[4]) >= 1

    def test_level1_is_all_shots(self, demo_structure):
        levels = build_level_shots(demo_structure)
        assert [s.shot_id for s in levels[1]] == [
            s.shot_id for s in demo_structure.shots
        ]

    def test_level_shots_are_sorted(self, demo_structure):
        levels = build_level_shots(demo_structure)
        for level, shots in levels.items():
            ids = [s.shot_id for s in shots]
            assert ids == sorted(ids), f"level {level} unsorted"

    def test_higher_levels_use_representatives(self, demo_structure):
        levels = build_level_shots(demo_structure)
        group_reps = {
            rep.shot_id
            for group in demo_structure.groups
            for rep in group.representative_shots
        }
        assert {s.shot_id for s in levels[2]} <= group_reps


class TestScalableSkim:
    def test_default_level_is_three(self, skim):
        assert skim.current_level == 3

    def test_switching(self, skim):
        skim.switch_level(4)
        assert skim.current_level == 4
        assert skim.finer() == 3
        skim.switch_level(1)
        assert skim.finer() == 1  # clamped at the bottom
        skim.switch_level(3)

    def test_switch_to_bad_level_raises(self, skim):
        with pytest.raises(SkimmingError):
            skim.switch_level(9)

    def test_events_attached(self, skim):
        kinds = {segment.event for segment in skim.segments(1)}
        assert kinds & set(EventKind.known_kinds())

    def test_frame_count_decreases_with_level(self, skim):
        assert skim.frame_count(4) <= skim.frame_count(3) <= skim.frame_count(1)

    def test_seek(self, skim):
        first = skim.seek(0.0, level=1)
        last = skim.seek(1.0, level=1)
        assert first.shot.start <= last.shot.start
        with pytest.raises(SkimmingError):
            skim.seek(1.5)

    def test_seek_hits_nearest_segment(self, skim):
        target = skim.segments(1)[3]
        centre = (target.shot.start + target.shot.stop) / 2
        position = centre / (skim.total_frames - 1)
        assert skim.seek(position, level=1).shot.shot_id == target.shot.shot_id
