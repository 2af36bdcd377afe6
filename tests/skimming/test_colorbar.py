"""Tests for the event colour bar."""

import pytest

from repro.errors import SkimmingError
from repro.skimming.colorbar import (
    build_color_bar,
    event_at_frame,
    render_text_bar,
)
from repro.types import EventKind


@pytest.fixture(scope="module")
def bar(demo_result):
    return build_color_bar(demo_result.structure, demo_result.events.events)


class TestColorBar:
    def test_tiles_entire_video(self, bar, demo_structure):
        assert bar[0].start == 0
        assert bar[-1].stop == demo_structure.shots[-1].stop
        for left, right in zip(bar, bar[1:]):
            assert left.stop == right.start

    def test_scene_spans_carry_events(self, bar, demo_result):
        mined = demo_result.scene_events()
        for scene in demo_result.structure.scenes:
            start, _ = scene.frame_span
            assert event_at_frame(bar, start) is mined[scene.scene_id]

    def test_gaps_are_unknown(self, bar, demo_structure):
        scene_frames = set()
        for scene in demo_structure.scenes:
            start, stop = scene.frame_span
            scene_frames.update(range(start, stop))
        gap_frames = [
            f for f in range(demo_structure.shots[-1].stop) if f not in scene_frames
        ]
        if gap_frames:
            assert event_at_frame(bar, gap_frames[0]) is EventKind.UNKNOWN

    def test_event_outside_bar_raises(self, bar, demo_structure):
        with pytest.raises(SkimmingError):
            event_at_frame(bar, demo_structure.shots[-1].stop + 100)

    def test_text_rendering(self, bar):
        text = render_text_bar(bar, width=40)
        assert len(text) == 40
        assert set(text) <= {"P", "D", "C", "."}

    def test_render_empty_raises(self):
        with pytest.raises(SkimmingError):
            render_text_bar([])
