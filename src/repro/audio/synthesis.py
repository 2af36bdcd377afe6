"""Synthetic audio sources: formant speakers, music, noise, silence.

The paper's audio analysis needs (a) clean speech it can tell apart from
non-speech, and (b) speakers that are statistically distinct in MFCC
space so the BIC test can detect speaker changes.  A formant synthesiser
gives both: each :class:`SpeakerVoice` is a vocal-tract configuration
(fundamental pitch + formant resonances) driving a glottal pulse train.
Different configurations produce clearly different spectral envelopes —
exactly what MFCCs measure.

Both filters here are all-pole with their poles well inside the unit
circle, so each is applied as a convolution with its impulse response,
written in closed form and cut where it has decayed past any effect on a
float64 sum (:data:`TAIL_CUTOFF`); numpy's FFT does the convolution.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.audio.waveform import DEFAULT_SAMPLE_RATE, Waveform
from repro.errors import AudioError


@dataclass(frozen=True)
class SpeakerVoice:
    """One synthetic speaker: a fixed vocal-tract configuration.

    Attributes
    ----------
    name:
        Stable identifier (used as ground-truth speaker label).
    pitch_hz:
        Fundamental frequency of the glottal pulse train.
    formants_hz:
        Centre frequencies of the vocal-tract resonances.
    bandwidths_hz:
        Bandwidth of each resonance (same length as ``formants_hz``).
    syllable_rate_hz:
        Amplitude-envelope modulation rate (speech rhythm).
    """

    name: str
    pitch_hz: float
    formants_hz: tuple[float, ...]
    bandwidths_hz: tuple[float, ...]
    syllable_rate_hz: float = 4.0

    def __post_init__(self) -> None:
        if self.pitch_hz <= 0:
            raise AudioError("pitch must be positive")
        if len(self.formants_hz) != len(self.bandwidths_hz):
            raise AudioError("formants and bandwidths must align")
        if not self.formants_hz:
            raise AudioError("a voice needs at least one formant")
        if min(self.formants_hz) <= 0 or min(self.bandwidths_hz) <= 0:
            raise AudioError("formant frequencies and bandwidths must be positive")


#: A small cast of clearly distinct voices for the synthetic corpus.
VOICE_BANK: dict[str, SpeakerVoice] = {
    "dr_adams": SpeakerVoice(
        name="dr_adams",
        pitch_hz=110.0,
        formants_hz=(600.0, 1100.0, 2400.0),
        bandwidths_hz=(80.0, 110.0, 160.0),
        syllable_rate_hz=3.6,
    ),
    "dr_baker": SpeakerVoice(
        name="dr_baker",
        pitch_hz=205.0,
        formants_hz=(850.0, 1900.0, 2900.0),
        bandwidths_hz=(90.0, 130.0, 180.0),
        syllable_rate_hz=4.4,
    ),
    "patient_chen": SpeakerVoice(
        name="patient_chen",
        pitch_hz=150.0,
        formants_hz=(500.0, 1500.0, 2600.0),
        bandwidths_hz=(70.0, 120.0, 170.0),
        syllable_rate_hz=3.9,
    ),
    "nurse_diaz": SpeakerVoice(
        name="nurse_diaz",
        pitch_hz=240.0,
        formants_hz=(700.0, 2100.0, 3200.0),
        bandwidths_hz=(85.0, 140.0, 190.0),
        syllable_rate_hz=4.8,
    ),
    "narrator": SpeakerVoice(
        name="narrator",
        pitch_hz=95.0,
        formants_hz=(450.0, 1300.0, 2200.0),
        bandwidths_hz=(60.0, 100.0, 150.0),
        syllable_rate_hz=3.2,
    ),
}


def _glottal_pulse_train(
    duration: float, pitch_hz: float, sample_rate: int, rng: np.random.Generator
) -> np.ndarray:
    """Impulse train at ``pitch_hz`` with ±2% period jitter."""
    count = int(round(duration * sample_rate))
    excitation = np.zeros(count)
    period = sample_rate / pitch_hz
    position = 0.0
    while position < count:
        excitation[int(position)] = 1.0
        jitter = 1.0 + rng.normal(0.0, 0.02)
        position += period * max(jitter, 0.5)
    return excitation


#: An impulse response is cut at the tap where its envelope has fallen to
#: this fraction of its first tap: what is dropped is far below one ulp of
#: any output sample the kept taps produce.
TAIL_CUTOFF = 1e-18


def _tap_count(radius: float, envelope: float, limit: int) -> int:
    """Taps until ``envelope * radius**n`` falls below the cutoff, at most ``limit``."""
    return min(limit, int(np.log(TAIL_CUTOFF / envelope) / np.log(radius)) + 1)


def fir_filter(signal: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Causal convolution ``signal * taps`` cut to ``signal.size`` samples.

    Overlap-add over real FFTs: the signal is cut into blocks a few times
    the tap count, so the work is ``O(n log taps)`` and the scratch memory
    is one block whatever the signal's length.
    """
    count = signal.size
    taps = taps[:count]
    if count == 0 or taps.size == 0:
        return np.zeros(count, dtype=np.float64)
    # Seven taps' worth of samples plus the tail: 7/8 of each transform is payload.
    block = min(count, 7 * taps.size)
    fft_size = 1 << (block + taps.size - 2).bit_length()
    spectrum = np.fft.rfft(taps, fft_size)
    output = np.zeros(count + taps.size - 1, dtype=np.float64)
    for start in range(0, count, block):
        piece = signal[start : start + block]
        span = piece.size + taps.size - 1
        output[start : start + span] += np.fft.irfft(
            np.fft.rfft(piece, fft_size) * spectrum, fft_size
        )[:span]
    return output[:count]


def resonator(
    signal: np.ndarray, freq_hz: float, bandwidth_hz: float, sample_rate: int
) -> np.ndarray:
    """Two-pole resonator ``1 / (1 - 2 r cos(theta) z^-1 + r^2 z^-2)``.

    With ``r = exp(-pi * bandwidth / sample_rate)`` and ``theta`` the
    centre frequency in radians per sample, its impulse response is
    ``r^n * sin((n + 1) theta) / sin(theta)``.
    """
    r = np.exp(-np.pi * bandwidth_hz / sample_rate)
    theta = 2.0 * np.pi * freq_hz / sample_rate
    n = np.arange(_tap_count(r, 1.0 / abs(np.sin(theta)), signal.size))
    return fir_filter(signal, r**n * np.sin((n + 1) * theta) / np.sin(theta))


def one_pole(signal: np.ndarray, gain: float, pole: float) -> np.ndarray:
    """One-pole low-pass ``gain / (1 - pole z^-1)``: impulse response ``gain * pole^n``."""
    n = np.arange(_tap_count(pole, 1.0, signal.size))
    return fir_filter(signal, gain * pole**n)


def _formant_filter(
    excitation: np.ndarray, voice: SpeakerVoice, sample_rate: int
) -> np.ndarray:
    """Pass excitation through cascaded two-pole resonators."""
    output = excitation
    for freq, bandwidth in zip(voice.formants_hz, voice.bandwidths_hz):
        if freq >= sample_rate / 2:
            continue  # resonance above Nyquist contributes nothing
        output = resonator(output, freq, bandwidth, sample_rate)
    return output


def synthesize_speech(
    voice: SpeakerVoice,
    duration: float,
    sample_rate: int = DEFAULT_SAMPLE_RATE,
    seed: int = 0,
    level: float = 0.6,
) -> Waveform:
    """Render ``duration`` seconds of speech in the given voice.

    The glottal pulse train is filtered through the voice's formant
    resonators, amplitude-modulated at the syllable rate (with short
    inter-word gaps) and mixed with a whisper of aspiration noise.
    """
    if duration <= 0:
        raise AudioError("duration must be positive")
    # zlib.crc32 is stable across processes (unlike hash() with PYTHONHASHSEED).
    rng = np.random.default_rng(seed + zlib.crc32(voice.name.encode()) % 100_000)
    excitation = _glottal_pulse_train(duration, voice.pitch_hz, sample_rate, rng)
    speech = _formant_filter(excitation, voice, sample_rate)

    count = speech.size
    t = np.arange(count) / sample_rate
    syllables = 0.55 + 0.45 * np.sin(2.0 * np.pi * voice.syllable_rate_hz * t)
    # Inter-word pauses: brief dips roughly every second.
    word_gate = (np.sin(2.0 * np.pi * 0.9 * t + rng.uniform(0, np.pi)) > -0.95).astype(
        float
    )
    envelope = syllables * (0.2 + 0.8 * word_gate)
    aspiration = rng.normal(0.0, 0.01, count)
    speech = speech * envelope + aspiration

    peak = np.abs(speech).max()
    if peak > 0:
        speech = speech / peak * level
    return Waveform(samples=speech, sample_rate=sample_rate)


def synthesize_music(
    duration: float,
    sample_rate: int = DEFAULT_SAMPLE_RATE,
    seed: int = 0,
    level: float = 0.4,
) -> Waveform:
    """Simple sustained-chord background music (non-speech)."""
    if duration <= 0:
        raise AudioError("duration must be positive")
    rng = np.random.default_rng(seed)
    count = int(round(duration * sample_rate))
    t = np.arange(count) / sample_rate
    root = rng.choice([220.0, 262.0, 330.0])
    chord = sum(
        np.sin(2.0 * np.pi * root * ratio * t + rng.uniform(0, 2 * np.pi))
        for ratio in (1.0, 1.25, 1.5)
    )
    tremolo = 0.9 + 0.1 * np.sin(2.0 * np.pi * 0.5 * t)
    music = chord * tremolo / 3.0
    return Waveform(samples=music * level, sample_rate=sample_rate)


def synthesize_ambient(
    duration: float,
    sample_rate: int = DEFAULT_SAMPLE_RATE,
    seed: int = 0,
    level: float = 0.15,
) -> Waveform:
    """Operating-room ambience: filtered noise plus a monitor beep."""
    if duration <= 0:
        raise AudioError("duration must be positive")
    rng = np.random.default_rng(seed)
    count = int(round(duration * sample_rate))
    noise = rng.normal(0.0, 1.0, count)
    # One-pole low-pass to make it a dull rumble rather than white noise.
    smooth = one_pole(noise, gain=0.08, pole=0.92)
    t = np.arange(count) / sample_rate
    beep_gate = (np.sin(2.0 * np.pi * 1.1 * t) > 0.995).astype(float)
    beep = 0.5 * np.sin(2.0 * np.pi * 880.0 * t) * beep_gate
    ambience = smooth / max(np.abs(smooth).max(), 1e-9) + beep
    peak = np.abs(ambience).max()
    if peak > 0:
        ambience = ambience / peak * level
    return Waveform(samples=ambience, sample_rate=sample_rate)
