"""Tests for VideoStream."""

import numpy as np
import pytest

from repro.errors import VideoError
from repro.video.stream import VideoStream
from tests.helpers import blank_frame


def _frames(n, height=4, width=5):
    return [blank_frame(height, width, (i % 256, 0, 0)) for i in range(n)]


class TestVideoStream:
    def test_restamps_indices_and_timestamps(self):
        stream = VideoStream(frames=_frames(5), fps=10.0)
        assert [f.index for f in stream] == [0, 1, 2, 3, 4]
        assert stream[3].timestamp == pytest.approx(0.3)

    def test_duration_and_counts(self):
        stream = VideoStream(frames=_frames(20), fps=10.0)
        assert stream.frame_count == 20
        assert stream.duration == pytest.approx(2.0)
        assert len(stream) == 20

    def test_rejects_empty(self):
        with pytest.raises(VideoError):
            VideoStream(frames=[], fps=10.0)

    def test_rejects_bad_fps(self):
        with pytest.raises(VideoError):
            VideoStream(frames=_frames(2), fps=0.0)

    def test_rejects_mixed_shapes(self):
        frames = _frames(2) + [blank_frame(6, 5)]
        with pytest.raises(VideoError):
            VideoStream(frames=frames, fps=10.0)

    def test_slice_restamps(self):
        stream = VideoStream(frames=_frames(10), fps=10.0)
        part = stream.slice(3, 7)
        assert len(part) == 4
        assert part[0].index == 0
        assert np.array_equal(part[0].pixels, stream[3].pixels)

    def test_slice_rejects_bad_range(self):
        stream = VideoStream(frames=_frames(5), fps=10.0)
        with pytest.raises(VideoError):
            stream.slice(3, 3)
        with pytest.raises(VideoError):
            stream.slice(0, 99)

    def test_pixel_stack_shape(self):
        stream = VideoStream(frames=_frames(4, 6, 7), fps=10.0)
        stack = stream.pixel_stack()
        assert stack.shape == (4, 6, 7, 3)
