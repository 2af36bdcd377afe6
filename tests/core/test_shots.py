"""Tests for shot-boundary detection and shot features."""

import numpy as np
import pytest

from repro.core.features import representative_frame_index
from repro.core.shots import (
    boundary_spans,
    detect_boundaries,
    detect_shots,
    shots_from_ground_truth,
)
from repro.errors import MiningError
from repro.video.stream import VideoStream
from tests.helpers import blank_frame


def _cut_stream(segment_colors, frames_per_segment=12):
    frames = []
    for color in segment_colors:
        frames.extend(blank_frame(16, 20, color) for _ in range(frames_per_segment))
    return VideoStream(frames=frames, fps=10.0)


class TestRepresentativeFrame:
    def test_tenth_frame_for_long_shots(self):
        assert representative_frame_index(0, 30) == 9
        assert representative_frame_index(100, 200) == 109

    def test_middle_for_short_shots(self):
        assert representative_frame_index(0, 6) == 3
        assert representative_frame_index(10, 12) == 11


class TestDetectBoundaries:
    def test_detects_synthetic_cuts(self):
        stream = _cut_stream([(200, 30, 30), (30, 200, 30), (30, 30, 200)])
        result = detect_shots(stream)
        assert result.boundaries == [12, 24]
        assert result.shot_count == 3

    def test_thresholds_align_with_signal(self):
        stream = _cut_stream([(200, 30, 30), (30, 200, 30)])
        result = detect_shots(stream)
        assert result.thresholds.shape == result.differences.shape

    def test_empty_signal(self):
        boundaries, thresholds = detect_boundaries(np.zeros(0))
        assert boundaries == []
        assert thresholds.size == 0

    def test_rejects_tiny_window(self):
        with pytest.raises(MiningError):
            detect_boundaries(np.zeros(10), window=2)

    def test_min_shot_length_merges_near_spikes(self):
        signal = np.zeros(40)
        signal[10] = 0.9
        signal[12] = 0.95  # closer than min_shot_length
        boundaries, _ = detect_boundaries(signal, min_shot_length=5)
        assert boundaries == [13]  # the stronger spike wins

    def test_boundary_near_start_suppressed(self):
        signal = np.zeros(40)
        signal[1] = 0.9
        boundaries, _ = detect_boundaries(signal, min_shot_length=5)
        assert boundaries == []


class TestBoundarySpans:
    def test_spans_tile_frames(self):
        spans = boundary_spans([10, 25], 40)
        assert spans == [(0, 10), (10, 25), (25, 40)]

    def test_no_boundaries(self):
        assert boundary_spans([], 12) == [(0, 12)]

    def test_rejects_non_increasing(self):
        with pytest.raises(MiningError):
            boundary_spans([10, 10], 40)

    def test_rejects_empty_stream(self):
        with pytest.raises(MiningError):
            boundary_spans([], 0)


class TestShotFeatures:
    def test_build_shot_extracts_features(self):
        stream = _cut_stream([(200, 30, 30)])
        (shot,) = shots_from_ground_truth(stream, [(0, 12)])
        assert shot.histogram.shape == (256,)
        assert shot.texture.shape == (10,)
        assert shot.duration == pytest.approx(1.2)
        assert shot.time_window == (0.0, pytest.approx(1.2))

    def test_build_shot_rejects_overrun(self):
        stream = _cut_stream([(200, 30, 30)])
        with pytest.raises(MiningError):
            shots_from_ground_truth(stream, [(0, 99)])

    def test_shots_from_ground_truth(self):
        stream = _cut_stream([(200, 30, 30), (30, 200, 30)])
        shots = shots_from_ground_truth(stream, [(0, 12), (12, 24)])
        assert [s.shot_id for s in shots] == [0, 1]
        assert shots[1].start == 12


class TestOnDemoVideo:
    def test_full_recall_on_demo(self, demo_video, demo_structure):
        truth_boundaries = set(demo_video.truth.shot_boundaries())
        detected = set(demo_structure.shot_detection.boundaries)
        assert truth_boundaries <= detected

    def test_few_false_positives(self, demo_video, demo_structure):
        truth_boundaries = set(demo_video.truth.shot_boundaries())
        detected = set(demo_structure.shot_detection.boundaries)
        false_positives = detected - truth_boundaries
        assert len(false_positives) <= max(2, len(truth_boundaries) // 4)
