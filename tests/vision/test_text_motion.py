"""Tests for video-text detection and intra-shot motion analysis."""

import numpy as np
import pytest

from repro.errors import VisionError
from repro.video.frame import Frame
from repro.video.stream import VideoStream
from repro.video.synthesis.compositions import ShotParams, render_composition
from repro.vision.motion import MotionProfile, motion_profile, shot_motion_profiles
from repro.vision.text import detect_text_lines, has_video_text, text_coverage
from tests.helpers import blank_frame


def _frame(composition: str, t: float = 0.3, **params) -> Frame:
    canvas = render_composition(
        composition, 64, 80, seed=11, params=ShotParams(**params), t=t
    )
    return Frame(pixels=canvas)


class TestTextLines:
    def test_slide_has_multiple_lines(self):
        lines = detect_text_lines(_frame("slide_fullscreen"))
        assert len(lines) >= 3  # title band + bullets
        widths = [line.width for line in lines]
        assert max(widths) > 20

    def test_slide_has_video_text(self):
        assert has_video_text(_frame("slide_fullscreen"))

    def test_dark_frames_have_no_text(self):
        assert detect_text_lines(_frame("black")) == []
        assert detect_text_lines(_frame("organ_still")) == []

    def test_natural_bright_frame_without_text(self):
        # The exam-room interview is bright but carries no text lines.
        assert not has_video_text(_frame("interview_b"))

    def test_text_coverage_bounds(self):
        coverage = text_coverage(_frame("slide_fullscreen"))
        assert 0.0 < coverage < 0.6
        assert text_coverage(_frame("black")) == 0.0

    def test_line_geometry(self):
        for line in detect_text_lines(_frame("slide_fullscreen")):
            assert line.height >= 1
            assert line.width >= 1
            assert 0.0 < line.density <= 1.0

    def test_rejects_bad_threshold(self):
        with pytest.raises(VisionError):
            detect_text_lines(blank_frame(8, 8), dark_luma=1.5)

    def test_synthetic_text_lines(self):
        pixels = np.full((40, 80, 3), 240, dtype=np.uint8)
        # Dashes with glyph gaps, as real text has.
        for left in range(8, 60, 6):
            pixels[10:12, left : left + 4] = 20
        for left in range(8, 40, 6):
            pixels[20:22, left : left + 4] = 20
        frame = Frame(pixels=pixels)
        lines = detect_text_lines(frame)
        assert len(lines) == 2
        assert lines[0].top == 10
        assert all(line.is_texty for line in lines)


class TestMotion:
    def _stream(self, compositions_and_t):
        frames = []
        for name, t in compositions_and_t:
            canvas = render_composition(name, 64, 80, seed=2, params=ShotParams(), t=t)
            frames.append(Frame(pixels=canvas))
        return VideoStream(frames=frames, fps=10)

    def test_still_content_is_static(self):
        stream = self._stream([("slide_fullscreen", 0.0)] * 10)
        profile = motion_profile(stream, 0, 10)
        assert profile.is_static
        assert profile.mean == pytest.approx(0.0, abs=1e-6)

    def test_walking_actor_is_dynamic(self):
        stream = self._stream(
            [("corridor_walk", t) for t in np.linspace(0, 0.9, 10)]
        )
        profile = motion_profile(stream, 0, 10)
        assert not profile.is_static
        assert profile.activity > 0.5

    def test_short_span_is_neutral(self):
        stream = self._stream([("black", 0.0)] * 3)
        profile = motion_profile(stream, 0, 1)
        assert profile == MotionProfile(mean=0.0, peak=0.0, activity=0.0)

    def test_invalid_span_raises(self):
        stream = self._stream([("black", 0.0)] * 3)
        with pytest.raises(VisionError):
            motion_profile(stream, 2, 2)
        with pytest.raises(VisionError):
            motion_profile(stream, 0, 99)

    def test_batch_profiles(self):
        stream = self._stream(
            [("slide_fullscreen", 0.0)] * 5
            + [("corridor_walk", t) for t in np.linspace(0, 0.9, 5)]
        )
        profiles = shot_motion_profiles(stream, [(0, 5), (5, 10)])
        assert profiles[0].is_static
        assert profiles[0].mean < profiles[1].mean
