"""Tests for compressed-domain (DC coefficient) analysis."""

import numpy as np
import pytest

from repro.core.shots import detect_shots
from repro.errors import MiningError, VisionError
from repro.video.frame import Frame
from repro.video.stream import VideoStream
from repro.vision.compressed import dc_image, dc_images, signal_from_dc_images
from tests.helpers import blank_frame


class TestDcImage:
    def test_shape(self):
        frame = blank_frame(64, 80)
        assert dc_image(frame, block=8).shape == (8, 10)

    def test_non_multiple_shape_ceils(self):
        frame = blank_frame(60, 70)
        assert dc_image(frame, block=8).shape == (8, 9)

    def test_solid_frame_is_constant(self):
        frame = blank_frame(64, 80, (128, 128, 128))
        image = dc_image(frame)
        assert np.allclose(image, 128 / 255.0, atol=1e-3)

    def test_block_mean_is_exact(self):
        pixels = np.zeros((8, 16, 3), dtype=np.uint8)
        pixels[:, 8:] = 255
        frame = Frame(pixels=pixels)
        image = dc_image(frame, block=8)
        assert image.shape == (1, 2)
        assert image[0, 0] == pytest.approx(0.0)
        assert image[0, 1] == pytest.approx(1.0)

    def test_rejects_bad_block(self):
        with pytest.raises(VisionError):
            dc_image(blank_frame(8, 8), block=0)

    def test_accepts_gray_array(self):
        assert dc_image(np.ones((16, 16)) * 0.5, block=8).shape == (2, 2)


class TestDcSignal:
    def _stream(self):
        frames = [blank_frame(32, 32, (200, 40, 40))] * 6 + [
            blank_frame(32, 32, (40, 40, 200))
        ] * 6
        return VideoStream(frames=list(frames), fps=10)

    def test_cut_produces_spike(self):
        signal = signal_from_dc_images(dc_images(self._stream()))
        assert np.argmax(signal) == 5
        assert signal[5] > 10 * (np.delete(signal, 5).max() + 1e-9)

    def test_single_frame_stream(self):
        stream = VideoStream(frames=[blank_frame(8, 8)], fps=10)
        assert signal_from_dc_images(dc_images(stream)).size == 0


class TestDcDetectionMode:
    def test_dc_mode_finds_cuts(self, demo_video):
        result = detect_shots(demo_video.stream, mode="dc")
        truth = set(demo_video.truth.shot_boundaries())
        detected = set(result.boundaries)
        recall = len(truth & detected) / len(truth)
        assert recall >= 0.9  # slightly weaker than histogram mode is OK

    def test_unknown_mode_raises(self, demo_video):
        with pytest.raises(MiningError):
            detect_shots(demo_video.stream, mode="wavelet")
