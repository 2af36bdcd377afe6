"""Builders and comparisons the tests share; nothing in the program calls them."""

from __future__ import annotations

import numpy as np

from repro.audio.waveform import DEFAULT_SAMPLE_RATE, Waveform
from repro.core.pipeline import ClassMinerResult
from repro.ingest.artifacts import encode_result
from repro.video.frame import DEFAULT_HEIGHT, DEFAULT_WIDTH, Frame


def blank_frame(
    height: int = DEFAULT_HEIGHT,
    width: int = DEFAULT_WIDTH,
    color: tuple[int, int, int] = (0, 0, 0),
    index: int = 0,
    timestamp: float = 0.0,
) -> Frame:
    """A solid-colour frame."""
    pixels = np.empty((height, width, 3), dtype=np.uint8)
    pixels[:, :] = np.asarray(color, dtype=np.uint8)
    return Frame(pixels=pixels, index=index, timestamp=timestamp)


def silence(duration: float) -> Waveform:
    """``duration`` seconds of zeros at the default sample rate."""
    return Waveform(samples=np.zeros(int(round(duration * DEFAULT_SAMPLE_RATE))))


def results_equal(a: ClassMinerResult, b: ClassMinerResult) -> bool:
    """Deep equality of two mined results: same metadata, same arrays."""
    meta_a, arrays_a = encode_result(a)
    meta_b, arrays_b = encode_result(b)
    return (
        meta_a == meta_b
        and set(arrays_a) == set(arrays_b)
        and all(np.array_equal(arrays_a[name], arrays_b[name]) for name in arrays_a)
    )
