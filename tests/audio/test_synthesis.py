"""Tests for the formant speech synthesiser and non-speech sources."""

import numpy as np
import pytest

from repro.audio.synthesis import (
    VOICE_BANK,
    SpeakerVoice,
    synthesize_ambient,
    synthesize_music,
    synthesize_speech,
)
from repro.errors import AudioError


class TestSpeakerVoice:
    def test_bank_is_distinct(self):
        pitches = [voice.pitch_hz for voice in VOICE_BANK.values()]
        assert len(set(pitches)) == len(pitches)

    def test_validation(self):
        with pytest.raises(AudioError):
            SpeakerVoice(name="x", pitch_hz=0, formants_hz=(500,), bandwidths_hz=(80,))
        with pytest.raises(AudioError):
            SpeakerVoice(name="x", pitch_hz=100, formants_hz=(500,), bandwidths_hz=())
        with pytest.raises(AudioError):
            SpeakerVoice(name="x", pitch_hz=100, formants_hz=(), bandwidths_hz=())
        # A resonator needs a pole strictly inside the unit circle, off the real axis.
        with pytest.raises(AudioError):
            SpeakerVoice(name="x", pitch_hz=100, formants_hz=(0,), bandwidths_hz=(80,))
        with pytest.raises(AudioError):
            SpeakerVoice(name="x", pitch_hz=100, formants_hz=(500,), bandwidths_hz=(0,))


class TestSynthesizeSpeech:
    def test_length_and_level(self):
        wave = synthesize_speech(VOICE_BANK["narrator"], 1.5, level=0.6)
        assert wave.duration == pytest.approx(1.5, abs=0.01)
        assert np.abs(wave.samples).max() == pytest.approx(0.6, abs=0.01)

    def test_deterministic_per_seed(self):
        a = synthesize_speech(VOICE_BANK["dr_adams"], 1.0, seed=5)
        b = synthesize_speech(VOICE_BANK["dr_adams"], 1.0, seed=5)
        assert np.array_equal(a.samples, b.samples)

    def test_different_seeds_differ(self):
        a = synthesize_speech(VOICE_BANK["dr_adams"], 1.0, seed=5)
        b = synthesize_speech(VOICE_BANK["dr_adams"], 1.0, seed=6)
        assert not np.array_equal(a.samples, b.samples)

    def test_pitch_appears_in_spectrum(self):
        voice = VOICE_BANK["dr_baker"]  # 205 Hz
        wave = synthesize_speech(voice, 2.0)
        spectrum = np.abs(np.fft.rfft(wave.samples))
        freqs = np.fft.rfftfreq(len(wave), 1.0 / wave.sample_rate)
        # Strongest low-frequency line should sit near a pitch harmonic.
        band = (freqs > 50) & (freqs < 450)
        peak = freqs[band][np.argmax(spectrum[band])]
        harmonic_offset = min(
            abs(peak - k * voice.pitch_hz) for k in (1, 2)
        )
        assert harmonic_offset < 12.0

    def test_rejects_bad_duration(self):
        with pytest.raises(AudioError):
            synthesize_speech(VOICE_BANK["narrator"], 0.0)


class TestNonSpeech:
    def test_music_is_periodic_not_noisy(self):
        music = synthesize_music(2.0, seed=1)
        # Autocorrelation at small lag stays high for sustained chords.
        x = music.samples - music.samples.mean()
        ac = np.correlate(x, x, "full")[len(x) - 1 :]
        # A chord has a strong periodic peak within one pitch period
        # (220-330 Hz root -> lag 24-36 samples at 8 kHz).
        assert ac[20:40].max() / ac[0] > 0.2

    def test_ambient_level_is_low(self):
        ambient = synthesize_ambient(2.0, seed=1, level=0.15)
        assert np.abs(ambient.samples).max() <= 0.15 + 1e-9

    def test_rejects_bad_duration(self):
        with pytest.raises(AudioError):
            synthesize_music(-1.0)
        with pytest.raises(AudioError):
            synthesize_ambient(0.0)
