"""The frame-feature kernel is held to the scalar oracle, bin for bin.

``hsv_bins`` / ``hsv_histograms`` (planar, chunked) are the one place a
frame histogram is computed; ``quantize_hsv(rgb_to_hsv(.))`` is what they
must reproduce exactly, and everything downstream — the difference
signal, shot boundaries, thresholds, shot histograms — must equal the
per-frame computation written out here.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import representative_frame_index
from repro.core.shots import boundary_spans, detect_boundaries, detect_shots
from repro.errors import VisionError
from repro.vision.color import (
    FRAME_CHUNK,
    TOTAL_BINS,
    hsv_bins,
    hsv_histograms,
    saturation,
)
from repro.vision.difference import difference_signal, histogram_difference
from repro.vision.histogram import frame_histograms, hsv_histogram
from tests.helpers import blank_frame
from tests.vision.oracles import quantize_hsv, rgb_to_hsv


def oracle_bins(pixels: np.ndarray) -> np.ndarray:
    return quantize_hsv(rgb_to_hsv(pixels))


def oracle_histogram(pixels: np.ndarray) -> np.ndarray:
    counts = np.bincount(oracle_bins(pixels).ravel(), minlength=TOTAL_BINS).astype(np.float64)
    return counts / counts.sum()


def oracle_signal(frames) -> np.ndarray:
    histograms = [oracle_histogram(frame.pixels) for frame in frames]
    return np.array(
        [
            0.5 * float(np.abs(histograms[i] - histograms[i + 1]).sum())
            for i in range(len(histograms) - 1)
        ]
    )


class TestBins:
    def test_every_colour_lands_in_the_oracles_bin(self):
        # All 2**24 colours, one red level (a 256 x 256 image) at a time.
        green, blue = np.meshgrid(
            np.arange(256, dtype=np.uint8), np.arange(256, dtype=np.uint8), indexing="ij"
        )
        block = np.empty((256, 256, 3), dtype=np.uint8)
        block[..., 1] = green
        block[..., 2] = blue
        for red in range(256):
            block[..., 0] = red
            assert np.array_equal(hsv_bins(block), oracle_bins(block)), red

    @given(
        height=st.integers(1, 12),
        width=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        as_float=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_frames_of_any_shape(self, height, width, seed, as_float):
        rng = np.random.default_rng(seed)
        if as_float:
            # Values on a coarse grid make ties and exact bin edges common;
            # the range overshoots [0, 1] so clipping is exercised too.
            pixels = np.round(rng.uniform(-0.1, 1.1, (height, width, 3)), 1 + seed % 3)
        else:
            pixels = rng.integers(0, 256, (height, width, 3), dtype=np.uint8)
        bins = hsv_bins(pixels)
        assert bins.shape == (height, width)
        assert np.array_equal(bins, oracle_bins(pixels))

    @pytest.mark.parametrize("level", [0, 1, 20, 127, 128, 254, 255])
    def test_grey_black_and_white_frames(self, level):
        pixels = blank_frame(3, 5, (level, level, level)).pixels
        assert np.array_equal(hsv_bins(pixels), oracle_bins(pixels))
        assert np.array_equal(hsv_bins(pixels / 255.0), oracle_bins(pixels / 255.0))

    def test_red_sextant_tiny_negative_hue_folds_to_bin_zero(self):
        # (g - b) / delta a tiny negative: ``x % 6.0`` rounds to 6.0, hue is
        # exactly 1.0 and ``% 1.0`` sends it to hue bin 0, not bin 15.
        pixels = np.array([[[0.5, 0.2, np.nextafter(0.2, 1.0)], [1.0, 0.3, 0.3 + 1e-17]]])
        assert rgb_to_hsv(pixels)[0, 0, 0] == 1.0
        assert np.array_equal(hsv_bins(pixels), oracle_bins(pixels))
        assert np.all(hsv_bins(pixels) < TOTAL_BINS // 16)

    def test_near_achromatic_pixels_take_hue_bin_zero(self):
        # Saturation just under 0.08 with a blue-ish hue.
        pixels = np.array([[[200, 200, 215], [100, 104, 100]]], dtype=np.uint8)
        assert np.all(saturation(pixels) < 0.08)
        assert np.array_equal(hsv_bins(pixels), oracle_bins(pixels))
        assert np.all(hsv_bins(pixels) < TOTAL_BINS // 16)

    def test_any_leading_shape(self, rng):
        colours = rng.integers(0, 256, (7, 3), dtype=np.uint8)
        stack = rng.integers(0, 256, (3, 4, 5, 3), dtype=np.uint8)
        assert np.array_equal(hsv_bins(colours), oracle_bins(colours[None])[0])
        assert np.array_equal(hsv_bins(stack), np.stack([oracle_bins(f) for f in stack]))

    def test_saturation_is_the_oracles(self, rng):
        pixels = rng.integers(0, 256, (9, 9, 3), dtype=np.uint8)
        pixels[0, 0] = 0
        assert np.array_equal(saturation(pixels), rgb_to_hsv(pixels)[:, :, 1])

    def test_rejects_pixels_without_three_channels(self):
        with pytest.raises(VisionError):
            hsv_bins(np.zeros((4, 4)))


class TestHistograms:
    @pytest.mark.parametrize("count", [1, FRAME_CHUNK - 1, FRAME_CHUNK, FRAME_CHUNK + 1, 37])
    def test_rows_equal_the_per_frame_oracle_across_chunk_edges(self, count, rng):
        stack = rng.integers(0, 256, (count, 6, 7, 3), dtype=np.uint8)
        expected = np.stack([oracle_histogram(frame) for frame in stack])
        assert np.array_equal(hsv_histograms(stack), expected)
        assert np.array_equal(hsv_histograms(list(stack)), expected)

    def test_rows_sum_to_one(self, demo_stream):
        histograms = frame_histograms(demo_stream)
        assert histograms.shape == (len(demo_stream), TOTAL_BINS)
        assert np.allclose(histograms.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert histograms.min() >= 0.0

    def test_single_frame_histogram_is_a_row_of_the_kernel(self, demo_stream):
        frame = demo_stream[40]
        assert np.array_equal(hsv_histogram(frame), oracle_histogram(frame.pixels))
        assert np.array_equal(hsv_histogram(frame.pixels), hsv_histogram(frame))

    def test_no_frames_give_an_empty_matrix(self):
        assert hsv_histograms([]).shape == (0, TOTAL_BINS)

    def test_rejects_empty_and_misshapen_frames(self):
        with pytest.raises(VisionError):
            hsv_histogram(np.zeros((0, 4, 3), dtype=np.uint8))
        with pytest.raises(VisionError):
            hsv_histogram(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(VisionError):
            histogram_difference(blank_frame(4, 4), blank_frame(5, 4))

    def test_scratch_memory_does_not_grow_with_the_stream(self, rng):
        # Peak beyond the (N, 256) result is a fixed number of chunk-sized
        # float64 planes, whatever N is.
        height, width = 32, 40
        plane_set = FRAME_CHUNK * height * width * 8
        peaks = {}
        for count in (4 * FRAME_CHUNK, 32 * FRAME_CHUNK):
            stack = rng.integers(0, 256, (count, height, width, 3), dtype=np.uint8)
            tracemalloc.start()
            try:
                result = hsv_histograms(stack)
                peaks[count] = tracemalloc.get_traced_memory()[1] - result.nbytes
            finally:
                tracemalloc.stop()
        assert max(peaks.values()) <= 12 * plane_set, peaks
        assert abs(peaks[32 * FRAME_CHUNK] - peaks[4 * FRAME_CHUNK]) <= plane_set // 4, peaks


class TestDownstream:
    def test_difference_signal_equals_the_per_frame_oracle(self, demo_stream):
        assert np.array_equal(difference_signal(demo_stream), oracle_signal(demo_stream))

    def test_histogram_difference_is_two_rows_of_the_same_call(self, demo_stream):
        a, b = demo_stream[29], demo_stream[30]
        expected = 0.5 * float(
            np.abs(oracle_histogram(a.pixels) - oracle_histogram(b.pixels)).sum()
        )
        assert histogram_difference(a, b) == expected
        assert histogram_difference(a, b) == difference_signal(demo_stream)[29]

    def test_detect_shots_sees_what_the_oracle_sees(self, demo_stream):
        detection = detect_shots(demo_stream)
        signal = oracle_signal(demo_stream)
        boundaries, thresholds = detect_boundaries(signal)
        assert np.array_equal(detection.differences, signal)
        assert np.array_equal(detection.thresholds, thresholds)
        assert detection.boundaries == boundaries
        assert boundaries == [
            30, 65, 95, 130, 160, 170, 200, 230, 260, 290, 320, 330, 360, 395, 430
        ]
        spans = boundary_spans(boundaries, len(demo_stream))
        assert [(shot.start, shot.stop) for shot in detection.shots] == spans
        for shot in detection.shots:
            frame = demo_stream[representative_frame_index(shot.start, shot.stop)]
            assert np.array_equal(shot.histogram, oracle_histogram(frame.pixels))
            assert shot.histogram.base is None  # a row copy, not a view pinning the matrix
