"""Frame-difference signals used by the shot-boundary detector (Sec. 3.1).

The paper detects cuts from inter-frame differences with thresholds that
adapt to the *local* activity of the sequence.  This module supplies the
raw difference signal; :mod:`repro.core.shots` supplies the adaptive
thresholding on top of it.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.video.frame import Frame
from repro.video.stream import VideoStream
from repro.vision.histogram import frame_histograms


def histogram_difference(a: Frame, b: Frame) -> float:
    """Half the L1 distance between HSV histograms, in [0, 1].

    0 means identical colour content; 1 means disjoint content.  This is
    the statistic the shot detector thresholds.
    """
    return float(difference_signal([a, b])[0])


def difference_signal(frames: VideoStream | Sequence[Frame]) -> np.ndarray:
    """Inter-frame histogram difference ``d[i] = diff(frame_i, frame_{i+1})``.

    Returns an array of length ``len(frames) - 1``; element ``i`` is the
    difference across the boundary between frames ``i`` and ``i + 1``.
    """
    return signal_from_histograms(frame_histograms(frames))


def signal_from_histograms(histograms: np.ndarray) -> np.ndarray:
    """:func:`difference_signal` of frames whose ``(N, 256)`` histograms are at hand."""
    return 0.5 * np.abs(histograms[:-1] - histograms[1:]).sum(axis=1)
