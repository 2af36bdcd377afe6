"""Tests for per-shot speaker analysis."""

import numpy as np
import pytest

from repro.audio.mfcc import mfcc
from repro.audio.speaker import (
    NON_SPEECH_LABEL,
    SPEECH_LABEL,
    SpeakerAnalyzer,
    default_speech_classifier,
)
from repro.audio.synthesis import (
    VOICE_BANK,
    synthesize_ambient,
    synthesize_music,
    synthesize_speech,
)
from repro.audio.features import clip_features
from repro.audio.waveform import Waveform
from repro.errors import AudioError


@pytest.fixture(scope="module")
def classifier():
    return default_speech_classifier()


@pytest.fixture(scope="module")
def analyzer(classifier):
    return SpeakerAnalyzer(classifier=classifier)


def _track(parts):
    return Waveform.concatenate(parts)


class TestDefaultClassifier:
    def test_speech_vs_nonspeech(self, classifier):
        for name, voice in VOICE_BANK.items():
            clip = synthesize_speech(voice, 2.0, seed=77)
            label = classifier.predict(clip_features(clip)[None, :])[0]
            assert label == SPEECH_LABEL, name
        for clip in (synthesize_music(2.0, seed=77), synthesize_ambient(2.0, seed=77)):
            label = classifier.predict(clip_features(clip)[None, :])[0]
            assert label == NON_SPEECH_LABEL

    def test_cached(self):
        assert default_speech_classifier() is default_speech_classifier()


class TestAnalyzeShot:
    def test_speech_shot(self, analyzer):
        audio = synthesize_speech(VOICE_BANK["dr_adams"], 4.0, seed=1)
        shot = analyzer.analyze_shot(audio, 0, 0.0, 4.0)
        assert shot.has_speech
        assert shot.clip_window in [(0.0, 2.0), (2.0, 4.0)]
        assert shot.sample_rate == audio.sample_rate
        assert shot.mfcc_vectors.shape[1] == 14

    def test_short_shot_discarded(self, analyzer):
        audio = synthesize_speech(VOICE_BANK["dr_adams"], 4.0, seed=1)
        shot = analyzer.analyze_shot(audio, 0, 0.0, 1.0)
        assert shot.clip_window is None
        assert not shot.has_speech

    def test_ambient_shot_has_no_speech(self, analyzer):
        audio = synthesize_ambient(4.0, seed=1)
        shot = analyzer.analyze_shot(audio, 0, 0.0, 4.0)
        assert not shot.has_speech

    def test_representative_clip_prefers_speech(self, analyzer):
        # First 2 s music, last 2 s speech: the speech clip must win.
        track = _track(
            [
                synthesize_music(2.0, seed=2),
                synthesize_speech(VOICE_BANK["narrator"], 2.0, seed=2),
            ]
        )
        shot = analyzer.analyze_shot(track, 0, 0.0, 4.0)
        assert shot.has_speech
        assert shot.clip_window == pytest.approx((2.0, 4.0))
        # The window is what is kept: its samples, cut again, give the MFCCs.
        clip = track.slice_seconds(*shot.clip_window)
        assert np.array_equal(mfcc(clip), shot.mfcc_vectors)


class TestSpeakerChange:
    def test_same_voice(self, analyzer):
        audio = synthesize_speech(VOICE_BANK["dr_adams"], 8.0, seed=3)
        a = analyzer.analyze_shot(audio, 0, 0.0, 4.0)
        b = analyzer.analyze_shot(audio, 1, 4.0, 8.0)
        assert not analyzer.speaker_change(a, b).is_change

    def test_different_voice(self, analyzer):
        track = _track(
            [
                synthesize_speech(VOICE_BANK["dr_adams"], 4.0, seed=3),
                synthesize_speech(VOICE_BANK["dr_baker"], 4.0, seed=3),
            ]
        )
        a = analyzer.analyze_shot(track, 0, 0.0, 4.0)
        b = analyzer.analyze_shot(track, 1, 4.0, 8.0)
        assert analyzer.speaker_change(a, b).is_change

    def test_untestable_pair_returns_none(self, analyzer):
        audio = _track(
            [
                synthesize_speech(VOICE_BANK["dr_adams"], 4.0, seed=3),
                synthesize_ambient(4.0, seed=3),
            ]
        )
        a = analyzer.analyze_shot(audio, 0, 0.0, 4.0)
        b = analyzer.analyze_shot(audio, 1, 4.0, 8.0)
        assert analyzer.speaker_change(a, b) is None


class TestAnalyzeShots:
    def test_rejects_empty_window(self, analyzer):
        audio = synthesize_ambient(4.0)
        with pytest.raises(AudioError):
            analyzer.analyze_shot(audio, 0, 2.0, 2.0)
