"""Tests for colour conversion and quantisation."""

import colorsys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import VisionError
from repro.vision.color import ACHROMATIC_SATURATION, TOTAL_BINS
from tests.vision.oracles import hsv_to_rgb, quantize_hsv, rgb_to_hsv


class TestRgbToHsv:
    def test_matches_colorsys(self, rng):
        image = rng.integers(0, 256, (6, 7, 3), dtype=np.uint8)
        ours = rgb_to_hsv(image)
        for y in range(6):
            for x in range(7):
                expected = colorsys.rgb_to_hsv(*(image[y, x] / 255.0))
                assert ours[y, x] == pytest.approx(expected, abs=1e-12)

    def test_gray_has_zero_saturation(self):
        image = np.full((2, 2, 3), 123, dtype=np.uint8)
        hsv = rgb_to_hsv(image)
        assert np.allclose(hsv[:, :, 1], 0.0)

    def test_accepts_float_input(self):
        image = np.full((2, 2, 3), 0.5)
        hsv = rgb_to_hsv(image)
        assert np.allclose(hsv[:, :, 2], 0.5)

    def test_rejects_bad_shape(self):
        with pytest.raises(VisionError):
            rgb_to_hsv(np.zeros((3, 3)))


class TestRoundTrip:
    @given(
        r=st.integers(0, 255), g=st.integers(0, 255), b=st.integers(0, 255)
    )
    @settings(max_examples=50, deadline=None)
    def test_hsv_rgb_round_trip(self, r, g, b):
        image = np.full((1, 1, 3), (r, g, b), dtype=np.uint8)
        back = hsv_to_rgb(rgb_to_hsv(image))
        assert np.allclose(back * 255.0, image.astype(float), atol=0.51)

    def test_hsv_to_rgb_rejects_bad_shape(self):
        with pytest.raises(VisionError):
            hsv_to_rgb(np.zeros((4, 4)))


class TestQuantize:
    def test_range(self, rng):
        image = rng.integers(0, 256, (8, 8, 3), dtype=np.uint8)
        bins = quantize_hsv(rgb_to_hsv(image))
        assert bins.min() >= 0
        assert bins.max() < TOTAL_BINS

    def test_achromatic_pixels_share_hue_bin(self):
        # Two grays whose raw hue would differ wildly after noise.
        a = np.full((1, 1, 3), (200, 201, 200), dtype=np.uint8)
        b = np.full((1, 1, 3), (200, 200, 201), dtype=np.uint8)
        bin_a = quantize_hsv(rgb_to_hsv(a))[0, 0]
        bin_b = quantize_hsv(rgb_to_hsv(b))[0, 0]
        assert bin_a == bin_b

    def test_saturated_hues_differ(self):
        red = np.full((1, 1, 3), (255, 0, 0), dtype=np.uint8)
        green = np.full((1, 1, 3), (0, 255, 0), dtype=np.uint8)
        assert (
            quantize_hsv(rgb_to_hsv(red))[0, 0]
            != quantize_hsv(rgb_to_hsv(green))[0, 0]
        )

    def test_achromatic_threshold_is_sane(self):
        assert 0.0 < ACHROMATIC_SATURATION < 0.2
