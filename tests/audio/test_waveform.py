"""Tests for the Waveform model."""

import numpy as np
import pytest

from repro.audio.waveform import Waveform
from repro.errors import AudioError


class TestWaveform:
    def test_duration(self):
        wave = Waveform(samples=np.zeros(8000), sample_rate=8000)
        assert wave.duration == pytest.approx(1.0)
        assert len(wave) == 8000

    def test_rejects_2d(self):
        with pytest.raises(AudioError):
            Waveform(samples=np.zeros((10, 2)))

    def test_rejects_bad_rate(self):
        with pytest.raises(AudioError):
            Waveform(samples=np.zeros(10), sample_rate=0)

    def test_rejects_clipping(self):
        with pytest.raises(AudioError):
            Waveform(samples=np.array([0.0, 1.5]))

    def test_rms(self):
        wave = Waveform(samples=np.full(100, 0.5))
        assert wave.rms() == pytest.approx(0.5)
        assert Waveform(samples=np.zeros(0)).rms() == 0.0

    def test_slice_seconds(self):
        samples = np.arange(8000) / 8000.0
        wave = Waveform(samples=samples, sample_rate=8000)
        part = wave.slice_seconds(0.25, 0.5)
        assert len(part) == 2000
        assert part.samples[0] == pytest.approx(0.25)

    def test_slice_clamps_end(self):
        wave = Waveform(samples=np.zeros(8000), sample_rate=8000)
        part = wave.slice_seconds(0.9, 5.0)
        assert len(part) == 800

    def test_slice_rejects_bad_window(self):
        wave = Waveform(samples=np.zeros(800), sample_rate=8000)
        with pytest.raises(AudioError):
            wave.slice_seconds(0.5, 0.5)
        with pytest.raises(AudioError):
            wave.slice_seconds(1.0, 2.0)  # starts past the end

    def test_concatenate(self):
        a = Waveform(samples=np.zeros(100))
        b = Waveform(samples=np.ones(50) * 0.5)
        joined = Waveform.concatenate([a, b])
        assert len(joined) == 150
        assert joined.samples[120] == 0.5

    def test_concatenate_rejects_mixed_rates(self):
        a = Waveform(samples=np.zeros(10), sample_rate=8000)
        b = Waveform(samples=np.zeros(10), sample_rate=16000)
        with pytest.raises(AudioError):
            Waveform.concatenate([a, b])

    def test_concatenate_rejects_empty_list(self):
        with pytest.raises(AudioError):
            Waveform.concatenate([])
