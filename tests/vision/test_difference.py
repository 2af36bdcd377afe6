"""Tests for frame-difference signals."""

import numpy as np
import pytest

from repro.video.stream import VideoStream
from repro.vision.difference import (
    difference_signal,
    histogram_difference,
)
from tests.helpers import blank_frame


class TestPairwise:
    def test_identical_frames_zero(self):
        frame = blank_frame(8, 8, (10, 20, 30))
        assert histogram_difference(frame, frame) == 0.0

    def test_opposite_frames_large(self):
        black = blank_frame(8, 8, (0, 0, 0))
        white = blank_frame(8, 8, (255, 255, 255))
        assert histogram_difference(black, white) == pytest.approx(1.0)

    def test_histogram_difference_bounded(self, rng):
        from repro.video.frame import Frame

        a = Frame(pixels=rng.integers(0, 256, (8, 8, 3), dtype=np.uint8))
        b = Frame(pixels=rng.integers(0, 256, (8, 8, 3), dtype=np.uint8))
        value = histogram_difference(a, b)
        assert 0.0 <= value <= 1.0


class TestSignal:
    def test_length(self):
        frames = [blank_frame(4, 4, (i * 20, 0, 0)) for i in range(6)]
        stream = VideoStream(frames=frames, fps=10)
        signal = difference_signal(stream)
        assert signal.shape == (5,)

    def test_cut_produces_spike(self):
        frames = [blank_frame(8, 8, (200, 30, 30))] * 5 + [
            blank_frame(8, 8, (30, 30, 200))
        ] * 5
        stream = VideoStream(frames=list(frames), fps=10)
        signal = difference_signal(stream)
        assert signal[4] > 0.9
        assert np.all(signal[:4] == 0.0)
        assert np.all(signal[5:] == 0.0)

    def test_single_frame_stream(self):
        stream = VideoStream(frames=[blank_frame(4, 4)], fps=10)
        assert difference_signal(stream).size == 0

    def test_signal_from_frames_matches_stream(self):
        frames = [blank_frame(6, 6, (i * 40 % 256, 10, 10)) for i in range(5)]
        stream = VideoStream(frames=list(frames), fps=10)
        assert np.array_equal(difference_signal(stream.frames), difference_signal(stream))
