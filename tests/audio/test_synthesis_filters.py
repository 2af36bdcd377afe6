"""The synthesiser's numpy-only filters against direct-form recursions.

``resonator`` and ``one_pole`` apply an all-pole filter as an FFT
convolution with its truncated closed-form impulse response; the
recursions below are the filters' definitions, run sample by sample.
"""

import numpy as np
import pytest

from repro.audio.synthesis import (
    TAIL_CUTOFF,
    VOICE_BANK,
    _tap_count,
    fir_filter,
    one_pole,
    resonator,
)

SAMPLE_RATE = 8000
#: Allowed deviation from the recursion, relative to the output's peak.
TOLERANCE = 1e-12


def recursive_resonator(signal, freq_hz, bandwidth_hz, sample_rate):
    """y[n] = x[n] + 2 r cos(theta) y[n-1] - r^2 y[n-2]."""
    r = np.exp(-np.pi * bandwidth_hz / sample_rate)
    a1 = 2.0 * r * np.cos(2.0 * np.pi * freq_hz / sample_rate)
    a2 = r * r
    out = np.zeros(len(signal))
    y1 = y2 = 0.0
    for i, x in enumerate(signal):
        y = x + a1 * y1 - a2 * y2
        out[i] = y
        y1, y2 = y, y1
    return out


def recursive_one_pole(signal, gain, pole):
    """y[n] = gain x[n] + pole y[n-1]."""
    out = np.zeros(len(signal))
    y = 0.0
    for i, x in enumerate(signal):
        y = gain * x + pole * y
        out[i] = y
    return out


def relative_deviation(got, expected):
    return float(np.abs(got - expected).max() / np.abs(expected).max())


FORMANTS = sorted(
    {
        (freq, bandwidth)
        for voice in VOICE_BANK.values()
        for freq, bandwidth in zip(voice.formants_hz, voice.bandwidths_hz)
    }
)


class TestResonator:
    @pytest.mark.parametrize("freq_hz,bandwidth_hz", FORMANTS)
    def test_every_bank_formant_matches_the_recursion(self, freq_hz, bandwidth_hz, rng):
        signal = rng.normal(size=20_000)
        got = resonator(signal, freq_hz, bandwidth_hz, SAMPLE_RATE)
        expected = recursive_resonator(signal, freq_hz, bandwidth_hz, SAMPLE_RATE)
        assert relative_deviation(got, expected) <= TOLERANCE

    def test_impulse_train_like_the_glottal_source(self):
        signal = np.zeros(16_000)
        signal[::73] = 1.0
        got = resonator(signal, 450.0, 60.0, SAMPLE_RATE)
        expected = recursive_resonator(signal, 450.0, 60.0, SAMPLE_RATE)
        assert relative_deviation(got, expected) <= TOLERANCE

    @pytest.mark.parametrize("length", [2, 3, 17, 500, 1799])
    def test_inputs_shorter_than_the_tap_count(self, length, rng):
        # The narrowest formant rings for ~1 800 taps; a shorter input
        # takes only the taps that can reach its last sample.
        signal = rng.normal(size=length)
        got = resonator(signal, 450.0, 60.0, SAMPLE_RATE)
        assert got.shape == (length,)
        expected = recursive_resonator(signal, 450.0, 60.0, SAMPLE_RATE)
        assert relative_deviation(got, expected) <= TOLERANCE

    def test_length_zero_and_one(self):
        assert resonator(np.zeros(0), 450.0, 60.0, SAMPLE_RATE).shape == (0,)
        assert resonator(np.array([2.5]), 450.0, 60.0, SAMPLE_RATE) == pytest.approx([2.5])

    def test_truncation_bound_at_the_narrowest_formant(self):
        # 60 Hz is the narrowest bandwidth in the bank: r = 0.9767.  The
        # dropped tail of its impulse response is below TAIL_CUTOFF of the
        # first tap, term by term, and sums to far less than one ulp.
        r = np.exp(-np.pi * 60.0 / SAMPLE_RATE)
        theta = 2.0 * np.pi * 450.0 / SAMPLE_RATE
        taps = _tap_count(r, 1.0 / abs(np.sin(theta)), 10**9)
        assert 1_500 < taps < 2_000
        impulse = np.zeros(taps + 400)
        impulse[0] = 1.0
        tail = recursive_resonator(impulse, 450.0, 60.0, SAMPLE_RATE)[taps:]
        assert np.abs(tail).max() < TAIL_CUTOFF
        assert r**taps / (abs(np.sin(theta)) * (1.0 - r)) < 1e-16


class TestOnePole:
    def test_matches_the_recursion(self, rng):
        signal = rng.normal(size=20_000)
        got = one_pole(signal, gain=0.08, pole=0.92)
        assert relative_deviation(got, recursive_one_pole(signal, 0.08, 0.92)) <= TOLERANCE

    @pytest.mark.parametrize("length", [0, 1, 2, 100, 497, 498])
    def test_short_inputs(self, length, rng):
        signal = rng.normal(size=length)
        got = one_pole(signal, gain=0.08, pole=0.92)
        assert got.shape == (length,)
        if length:
            expected = recursive_one_pole(signal, 0.08, 0.92)
            assert relative_deviation(got, expected) <= TOLERANCE


class TestFirFilter:
    @pytest.mark.parametrize("taps", [1, 5, 64])
    def test_block_boundaries(self, taps, rng):
        # Blocks are 7 x taps samples: lengths on, just under and just over
        # one and several blocks must all equal the direct convolution.
        kernel = rng.normal(size=taps)
        for length in (7 * taps - 1, 7 * taps, 7 * taps + 1, 21 * taps, 21 * taps + 3):
            signal = rng.normal(size=length)
            expected = np.convolve(signal, kernel)[:length]
            got = fir_filter(signal, kernel)
            assert got.shape == (length,)
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_does_not_modify_its_input(self, rng):
        signal = rng.normal(size=300)
        before = signal.copy()
        fir_filter(signal, np.array([0.5, 0.25]))
        assert np.array_equal(signal, before)
