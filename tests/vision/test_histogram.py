"""Tests for HSV histograms and intersection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import VisionError
from repro.vision.histogram import (
    histogram_intersection,
    hsv_histogram,
)
from tests.helpers import blank_frame


class TestHsvHistogram:
    def test_normalised(self, rng):
        frame = blank_frame(8, 10, (20, 80, 160))
        hist = hsv_histogram(frame)
        assert hist.shape == (256,)
        assert hist.sum() == pytest.approx(1.0)

    def test_solid_frame_is_one_bin(self):
        hist = hsv_histogram(blank_frame(8, 8, (255, 0, 0)))
        assert np.count_nonzero(hist) == 1

    def test_accepts_raw_array(self, rng):
        pixels = rng.integers(0, 256, (8, 8, 3), dtype=np.uint8)
        assert hsv_histogram(pixels).sum() == pytest.approx(1.0)


class TestIntersection:
    def test_identical_is_one(self):
        hist = hsv_histogram(blank_frame(8, 8, (10, 200, 30)))
        assert histogram_intersection(hist, hist) == pytest.approx(1.0)

    def test_disjoint_is_zero(self):
        red = hsv_histogram(blank_frame(8, 8, (255, 0, 0)))
        blue = hsv_histogram(blank_frame(8, 8, (0, 0, 255)))
        assert histogram_intersection(red, blue) == pytest.approx(0.0)

    def test_symmetry(self, rng):
        h1 = hsv_histogram(rng.integers(0, 256, (8, 8, 3), dtype=np.uint8))
        h2 = hsv_histogram(rng.integers(0, 256, (8, 8, 3), dtype=np.uint8))
        assert histogram_intersection(h1, h2) == pytest.approx(
            histogram_intersection(h2, h1)
        )

    def test_shape_mismatch_raises(self):
        with pytest.raises(VisionError):
            histogram_intersection(np.ones(4) / 4, np.ones(5) / 5)

    def test_non_1d_raises(self):
        with pytest.raises(VisionError):
            histogram_intersection(np.ones((2, 2)) / 4, np.ones((2, 2)) / 4)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_intersection_bounded(seed):
    rng = np.random.default_rng(seed)
    h1 = hsv_histogram(rng.integers(0, 256, (6, 6, 3), dtype=np.uint8))
    h2 = hsv_histogram(rng.integers(0, 256, (6, 6, 3), dtype=np.uint8))
    value = histogram_intersection(h1, h2)
    assert 0.0 <= value <= 1.0 + 1e-12
