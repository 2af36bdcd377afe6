"""Failure-injection tests: corrupted inputs must degrade, not crash.

A production pipeline sees broken material — dropped frames, sensor
garbage, silent or clipped audio, truncated files.  These tests inject
each fault and assert the system either recovers gracefully or raises
its own typed error (never an unhandled numpy/KeyError surprise).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.audio.speaker import SpeakerAnalyzer, default_speech_classifier
from repro.audio.waveform import Waveform
from repro.core.structure import mine_content_structure
from repro.errors import ReproError
from repro.video.frame import Frame
from repro.video.stream import VideoStream
from tests.helpers import silence


@pytest.fixture(scope="module")
def analyzer():
    return SpeakerAnalyzer(classifier=default_speech_classifier())


class TestCorruptedFrames:
    def _with_garbage_frame(self, stream: VideoStream, position: int) -> VideoStream:
        rng = np.random.default_rng(99)
        frames = list(stream.frames)
        garbage = rng.integers(0, 256, frames[0].shape, dtype=np.uint8)
        frames[position] = Frame(pixels=garbage)
        return VideoStream(frames=frames, fps=stream.fps, title="corrupted")

    def test_garbage_frame_does_not_crash_mining(self, demo_stream):
        corrupted = self._with_garbage_frame(demo_stream, 40)
        structure = mine_content_structure(corrupted)
        assert structure.shot_count >= 1

    def test_garbage_frame_adds_limited_boundaries(self, demo_stream, demo_structure):
        corrupted = self._with_garbage_frame(demo_stream, 40)
        structure = mine_content_structure(corrupted)
        # One noise frame can add at most two spurious cuts around it.
        assert abs(structure.shot_count - demo_structure.shot_count) <= 3

    def test_all_black_video_yields_single_scene_layer(self):
        frames = [
            Frame(pixels=np.zeros((16, 20, 3), dtype=np.uint8)) for _ in range(60)
        ]
        structure = mine_content_structure(VideoStream(frames=frames, fps=10))
        assert structure.shot_count == 1
        assert structure.scene_count <= 1

    def test_constant_flicker_video(self):
        rng = np.random.default_rng(3)
        frames = []
        for i in range(80):
            base = np.full((16, 20, 3), 100 + (i % 2) * 4, dtype=np.uint8)
            noise = rng.integers(-3, 4, base.shape)
            frames.append(
                Frame(pixels=np.clip(base.astype(int) + noise, 0, 255).astype(np.uint8))
            )
        structure = mine_content_structure(VideoStream(frames=frames, fps=10))
        # Flicker must not explode into dozens of shots.
        assert structure.shot_count <= 5


class TestDegenerateAudio:
    def test_pure_silence_shot(self, analyzer):
        shot = analyzer.analyze_shot(silence(6.0), 0, 0.0, 6.0)
        assert not shot.has_speech

    def test_clipped_audio_does_not_crash(self, analyzer):
        square = np.sign(np.sin(np.linspace(0, 800 * np.pi, 24000)))
        wave = Waveform(samples=square * 1.0)
        shot = analyzer.analyze_shot(wave, 0, 0.0, 3.0)
        assert shot.mfcc_vectors.shape[1] == 14

    def test_dc_offset_audio(self, analyzer):
        wave = Waveform(samples=np.full(24000, 0.8))
        shot = analyzer.analyze_shot(wave, 0, 0.0, 3.0)
        assert not shot.has_speech

    def test_events_survive_missing_audio(self, demo_structure):
        from repro.events.miner import EventMiner

        events = EventMiner().mine(demo_structure.scenes, audio=None)
        assert len(events.events) == len(demo_structure.scenes)


class TestCorruptPersistence:
    def test_repro_error_is_catchable_base(self, demo_stream):
        from repro.errors import MiningError

        with pytest.raises(ReproError):
            raise MiningError("typed errors share one base")
