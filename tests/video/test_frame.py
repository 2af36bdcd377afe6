"""Tests for the Frame model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import VideoError
from repro.video.frame import Frame, validate_pixels
from tests.helpers import blank_frame


class TestValidatePixels:
    def test_accepts_uint8(self):
        pixels = np.zeros((4, 5, 3), dtype=np.uint8)
        assert validate_pixels(pixels) is pixels

    def test_converts_unit_floats(self):
        pixels = np.full((2, 2, 3), 0.5)
        out = validate_pixels(pixels)
        assert out.dtype == np.uint8
        assert out[0, 0, 0] == 128

    def test_rejects_wrong_shape(self):
        with pytest.raises(VideoError):
            validate_pixels(np.zeros((4, 5), dtype=np.uint8))

    def test_rejects_wrong_channel_count(self):
        with pytest.raises(VideoError):
            validate_pixels(np.zeros((4, 5, 4), dtype=np.uint8))

    def test_rejects_out_of_range_floats(self):
        with pytest.raises(VideoError):
            validate_pixels(np.full((2, 2, 3), 1.5))

    def test_rejects_non_array(self):
        with pytest.raises(VideoError):
            validate_pixels([[1, 2, 3]])

    def test_rejects_int32(self):
        with pytest.raises(VideoError):
            validate_pixels(np.zeros((2, 2, 3), dtype=np.int32))

    def test_rejects_empty(self):
        with pytest.raises(VideoError):
            validate_pixels(np.zeros((0, 5, 3), dtype=np.uint8))


class TestFrame:
    def test_properties(self):
        frame = blank_frame(10, 20, (1, 2, 3), index=4, timestamp=0.4)
        assert frame.height == 10
        assert frame.width == 20
        assert frame.shape == (10, 20, 3)
        assert frame.index == 4
        assert frame.timestamp == 0.4

    def test_rejects_negative_index(self):
        with pytest.raises(VideoError):
            Frame(pixels=np.zeros((2, 2, 3), dtype=np.uint8), index=-1)

    def test_rejects_negative_timestamp(self):
        with pytest.raises(VideoError):
            Frame(pixels=np.zeros((2, 2, 3), dtype=np.uint8), timestamp=-0.1)

    def test_as_float_range(self):
        frame = blank_frame(2, 2, (255, 0, 128))
        out = frame.as_float()
        assert out.max() <= 1.0
        assert out[0, 0, 0] == 1.0

    def test_gray_is_luma(self):
        frame = blank_frame(2, 2, (255, 255, 255))
        assert np.allclose(frame.gray(), 1.0)
        red = blank_frame(2, 2, (255, 0, 0))
        assert np.allclose(red.gray(), 0.299)

    def test_with_index_preserves_pixels(self):
        frame = blank_frame(3, 3, (9, 9, 9))
        moved = frame.with_index(7, 0.7)
        assert moved.index == 7
        assert moved.timestamp == 0.7
        assert np.array_equal(moved.pixels, frame.pixels)

    def test_equality_and_hash(self):
        a = blank_frame(2, 2, (5, 5, 5), index=1, timestamp=0.1)
        b = blank_frame(2, 2, (5, 5, 5), index=1, timestamp=0.1)
        c = blank_frame(2, 2, (6, 5, 5), index=1, timestamp=0.1)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_equality_against_other_type(self):
        assert blank_frame(2, 2) != "not a frame"


@given(
    r=st.integers(0, 255),
    g=st.integers(0, 255),
    b=st.integers(0, 255),
)
@settings(max_examples=25, deadline=None)
def test_gray_always_in_unit_interval(r, g, b):
    frame = blank_frame(2, 2, (r, g, b))
    gray = frame.gray()
    assert 0.0 <= gray.min() and gray.max() <= 1.0
