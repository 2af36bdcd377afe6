"""Tests for the 14 clip-level audio features."""

import numpy as np
import pytest

from repro.audio.features import FEATURE_DIM, FEATURE_NAMES, clip_features
from repro.audio.synthesis import (
    VOICE_BANK,
    synthesize_ambient,
    synthesize_music,
    synthesize_speech,
)
from repro.audio.waveform import Waveform
from repro.errors import AudioError
from tests.helpers import silence


def _index(name: str) -> int:
    return FEATURE_NAMES.index(name)


class TestClipFeatures:
    def test_dimension(self):
        wave = synthesize_speech(VOICE_BANK["narrator"], 2.0)
        features = clip_features(wave)
        assert features.shape == (FEATURE_DIM,)
        assert len(FEATURE_NAMES) == FEATURE_DIM

    def test_rejects_empty(self):
        with pytest.raises(AudioError):
            clip_features(Waveform(samples=np.zeros(0)))

    def test_rejects_sub_window(self):
        with pytest.raises(AudioError):
            clip_features(Waveform(samples=np.zeros(100)))

    def test_silence_features(self):
        quiet = silence(2.0)
        features = clip_features(quiet)
        assert features[_index("volume_mean")] == 0.0
        assert features[_index("non_silence_ratio")] == 0.0

    def test_speech_has_strong_4hz_modulation(self):
        speech = clip_features(synthesize_speech(VOICE_BANK["narrator"], 2.0))
        music = clip_features(synthesize_music(2.0))
        idx = _index("four_hz_modulation")
        assert speech[idx] > music[idx]

    def test_speech_has_pitch(self):
        speech = clip_features(synthesize_speech(VOICE_BANK["dr_baker"], 2.0))
        ambient = clip_features(synthesize_ambient(2.0))
        idx = _index("pitch_strength")
        assert speech[idx] > ambient[idx]

    def test_music_volume_steadier_than_speech(self):
        speech = clip_features(synthesize_speech(VOICE_BANK["narrator"], 2.0))
        music = clip_features(synthesize_music(2.0))
        idx = _index("volume_std")
        assert music[idx] < speech[idx]

    def test_features_finite(self):
        for maker in (
            lambda: synthesize_speech(VOICE_BANK["patient_chen"], 2.0),
            lambda: synthesize_music(2.0),
            lambda: synthesize_ambient(2.0),
        ):
            features = clip_features(maker())
            assert np.all(np.isfinite(features))
