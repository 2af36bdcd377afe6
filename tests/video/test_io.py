"""Tests for stream persistence: what ``save_stream`` writes, read back
with ``np.load``."""

import numpy as np

from repro.video.io import FORMAT_VERSION, save_stream


class TestStreamIo:
    def test_round_trip_with_audio(self, demo_stream, tmp_path):
        path = tmp_path / "demo.npz"
        save_stream(demo_stream, path)
        with np.load(path, allow_pickle=False) as loaded:
            assert int(loaded["version"]) == FORMAT_VERSION
            assert str(loaded["title"]) == demo_stream.title
            assert float(loaded["fps"]) == demo_stream.fps
            assert np.array_equal(loaded["frames"], demo_stream.pixel_stack())
            assert np.allclose(loaded["audio_samples"], demo_stream.audio.samples)
            assert int(loaded["audio_rate"]) == demo_stream.audio.sample_rate

    def test_round_trip_without_audio(self, demo_stream, tmp_path):
        from repro.video.stream import VideoStream

        silent = VideoStream(
            frames=list(demo_stream.frames[:5]), fps=demo_stream.fps, title="t"
        )
        path = tmp_path / "silent.npz"
        save_stream(silent, path)
        with np.load(path, allow_pickle=False) as loaded:
            assert "audio_samples" not in loaded
            assert loaded["frames"].shape[0] == 5
