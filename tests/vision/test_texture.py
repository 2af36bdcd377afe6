"""Tests for Tamura coarseness texture."""

import numpy as np
import pytest

from repro.errors import VisionError
from repro.video.frame import Frame
from repro.vision.texture import (
    TEXTURE_DIM,
    coarseness_map,
    tamura_coarseness,
    texture_distance_squared,
)


def _checkerboard(cell: int, height: int = 64, width: int = 80) -> Frame:
    ys, xs = np.mgrid[0:height, 0:width]
    board = (((ys // cell) + (xs // cell)) % 2) * 255
    pixels = np.stack([board] * 3, axis=2).astype(np.uint8)
    return Frame(pixels=pixels)


class TestCoarsenessMap:
    def test_shape(self):
        gray = np.zeros((32, 40))
        sizes = coarseness_map(gray)
        assert sizes.shape == (32, 40)

    def test_rejects_non_2d(self):
        with pytest.raises(VisionError):
            coarseness_map(np.zeros((4, 4, 3)))

    def test_rejects_zero_scales(self):
        with pytest.raises(VisionError):
            coarseness_map(np.zeros((8, 8)), num_scales=0)

    def test_fine_texture_prefers_small_windows(self):
        fine = _checkerboard(2)
        coarse = _checkerboard(16)
        fine_map = coarseness_map(fine.gray())
        coarse_map = coarseness_map(coarse.gray())
        assert fine_map.mean() < coarse_map.mean()


class TestDescriptor:
    def test_dimension_and_range(self):
        descriptor = tamura_coarseness(_checkerboard(4))
        assert descriptor.shape == (TEXTURE_DIM,)
        assert descriptor.min() >= 0.0
        assert descriptor.max() <= 1.0

    def test_orders_by_coarseness(self):
        fine = tamura_coarseness(_checkerboard(2)).mean()
        coarse = tamura_coarseness(_checkerboard(16)).mean()
        assert fine < coarse

    def test_accepts_gray_array(self):
        gray = np.zeros((32, 40))
        descriptor = tamura_coarseness(gray)
        assert descriptor.shape == (TEXTURE_DIM,)

    def test_accepts_rgb_array(self, rng):
        rgb = rng.integers(0, 256, (32, 40, 3), dtype=np.uint8)
        assert tamura_coarseness(rgb).shape == (TEXTURE_DIM,)

    def test_deterministic(self):
        frame = _checkerboard(4)
        a = tamura_coarseness(frame)
        b = tamura_coarseness(frame)
        assert np.array_equal(a, b)


class TestDistance:
    def test_zero_for_identical(self):
        t = tamura_coarseness(_checkerboard(4))
        assert texture_distance_squared(t, t) == 0.0

    def test_symmetry(self):
        a = tamura_coarseness(_checkerboard(2))
        b = tamura_coarseness(_checkerboard(16))
        assert texture_distance_squared(a, b) == pytest.approx(
            texture_distance_squared(b, a)
        )

    def test_shape_mismatch(self):
        with pytest.raises(VisionError):
            texture_distance_squared(np.ones(10), np.ones(9))
