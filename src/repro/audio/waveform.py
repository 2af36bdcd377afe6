"""Waveform model: a mono PCM audio track.

Samples are ``float64`` in ``[-1, 1]``.  The synthetic corpus uses a
modest sample rate (8 kHz) which is plenty for MFCC-based speaker
analysis while keeping feature extraction fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.errors import AudioError

#: Default sample rate of the synthetic corpus.
DEFAULT_SAMPLE_RATE = 8000


class AudioSource(Protocol):
    """What the speaker analysis reads: a held :class:`Waveform`, or a
    track that renders a window when it is asked for one."""

    def slice_seconds(self, start: float, stop: float) -> "Waveform":
        """The samples in the window ``[start, stop)`` seconds."""


def sample_window(start: float, stop: float, sample_rate: int, size: int) -> tuple[int, int]:
    """``(i0, i1)``: a ``size``-sample track's samples in ``[start, stop)`` seconds."""
    if start < 0 or stop <= start:
        raise AudioError(f"invalid window [{start}, {stop})")
    i0 = int(round(start * sample_rate))
    if i0 >= size:
        raise AudioError(
            f"window starts at {start:.2f}s but audio is {size / sample_rate:.2f}s"
        )
    return i0, min(int(round(stop * sample_rate)), size)


@dataclass
class Waveform:
    """Mono audio samples at a fixed sample rate.

    Attributes
    ----------
    samples:
        1-D float array in ``[-1, 1]``.
    sample_rate:
        Samples per second (> 0).
    """

    samples: np.ndarray = field(repr=False)
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise AudioError(f"samples must be 1-D, got {self.samples.ndim}-D")
        if self.sample_rate <= 0:
            raise AudioError(f"sample_rate must be positive, got {self.sample_rate}")
        peak = np.abs(self.samples).max() if self.samples.size else 0.0
        if peak > 1.0 + 1e-9:
            raise AudioError(f"samples exceed [-1, 1] (peak {peak:.3f})")

    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return self.samples.size / self.sample_rate

    def slice_seconds(self, start: float, stop: float) -> "Waveform":
        """Return samples in the time window ``[start, stop)`` seconds."""
        i0, i1 = sample_window(start, stop, self.sample_rate, self.samples.size)
        return Waveform(samples=self.samples[i0:i1].copy(), sample_rate=self.sample_rate)

    def rms(self) -> float:
        """Root-mean-square amplitude."""
        if self.samples.size == 0:
            return 0.0
        return float(np.sqrt((self.samples**2).mean()))

    @staticmethod
    def concatenate(parts: list["Waveform"]) -> "Waveform":
        """Join waveforms; all must share one sample rate."""
        if not parts:
            raise AudioError("cannot concatenate zero waveforms")
        rate = parts[0].sample_rate
        for part in parts[1:]:
            if part.sample_rate != rate:
                raise AudioError("sample rates differ across parts")
        return Waveform(
            samples=np.concatenate([part.samples for part in parts]),
            sample_rate=rate,
        )
