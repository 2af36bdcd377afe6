"""Tests for region-of-interest extraction and matching."""

import numpy as np
import pytest

from repro.errors import VisionError
from repro.video.frame import Frame
from repro.video.synthesis.compositions import ShotParams, render_composition
from repro.vision.roi import (
    background_mask,
    extract_rois,
    match_rois,
    roi_similarity,
)
from tests.helpers import blank_frame


def _frame_with_blobs() -> Frame:
    """Gray background with a red square and a blue circle."""
    pixels = np.full((64, 80, 3), (110, 112, 115), dtype=np.uint8)
    pixels[10:26, 10:26] = (200, 40, 40)
    ys, xs = np.mgrid[0:64, 0:80]
    circle = (ys - 44) ** 2 + (xs - 58) ** 2 <= 100
    pixels[circle] = (40, 60, 200)
    return Frame(pixels=pixels)


class TestBackgroundMask:
    def test_dominant_color_is_background(self):
        frame = _frame_with_blobs()
        mask = background_mask(frame)
        assert mask[0, 0]  # gray corner
        assert not mask[15, 15]  # red square
        assert not mask[44, 58]  # blue circle

    def test_rejects_bad_mass(self):
        with pytest.raises(VisionError):
            background_mask(blank_frame(8, 8), background_mass=1.5)


class TestExtractRois:
    def test_finds_both_blobs(self):
        rois = extract_rois(_frame_with_blobs())
        assert len(rois) == 2
        # Largest first: the circle (~314 px) beats the square (256 px).
        assert rois[0].region.area >= rois[1].region.area
        colors = sorted(roi.mean_color for roi in rois)
        assert colors[0][2] > colors[0][0]  # the blue one
        assert colors[1][0] > colors[1][2]  # the red one

    def test_solid_frame_has_no_rois(self):
        assert extract_rois(blank_frame(32, 40, (90, 90, 90))) == []

    def test_min_fraction_filters(self):
        rois = extract_rois(_frame_with_blobs(), min_fraction=0.2)
        assert rois == []

    def test_max_rois_caps(self):
        rois = extract_rois(_frame_with_blobs(), max_rois=1)
        assert len(rois) == 1
        with pytest.raises(VisionError):
            extract_rois(_frame_with_blobs(), max_rois=0)

    def test_descriptor_shape_and_range(self):
        for roi in extract_rois(_frame_with_blobs()):
            descriptor = roi.descriptor()
            assert descriptor.shape == (8,)
            assert np.all(descriptor >= 0.0)
            assert np.all(descriptor <= 1.0 + 1e-9)

    def test_on_synthetic_composition(self):
        canvas = render_composition(
            "organ_still", 64, 80, seed=3, params=ShotParams(), t=0.0
        )
        rois = extract_rois(Frame(pixels=canvas))
        assert rois  # the organ stands out from the drape
        reddest = max(rois, key=lambda roi: roi.mean_color[0])
        assert reddest.mean_color[0] > reddest.mean_color[1]


class TestMatching:
    def test_self_similarity_is_one(self):
        rois = extract_rois(_frame_with_blobs())
        assert roi_similarity(rois[0], rois[0]) == pytest.approx(1.0)

    def test_different_blobs_score_low(self):
        rois = extract_rois(_frame_with_blobs())
        assert roi_similarity(rois[0], rois[1]) < 0.5

    def test_match_rois_ranks_and_filters(self):
        frame = _frame_with_blobs()
        rois = extract_rois(frame)
        # A second frame with the same red square slightly moved.
        pixels = np.full((64, 80, 3), (110, 112, 115), dtype=np.uint8)
        pixels[12:28, 12:28] = (198, 42, 42)
        other = extract_rois(Frame(pixels=pixels))
        assert other
        red_query = min(rois, key=lambda roi: roi.mean_color[2])
        matches = match_rois(red_query, other, threshold=0.5)
        assert matches
        assert matches[0][1] > 0.7

    def test_symmetry(self):
        rois = extract_rois(_frame_with_blobs())
        assert roi_similarity(rois[0], rois[1]) == pytest.approx(
            roi_similarity(rois[1], rois[0])
        )
