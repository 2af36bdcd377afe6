"""The paper's 256-dimensional HSV colour histogram (Sec. 3.1).

After shot segmentation the 10th frame of each shot becomes the
representative frame and a normalised 256-bin HSV histogram is extracted
from it.  Shot similarity (Eq. 1) uses histogram intersection, which is
provided here as :func:`histogram_intersection`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import VisionError
from repro.video.frame import Frame
from repro.vision.color import hsv_histograms


def hsv_histogram(frame: Frame | np.ndarray) -> np.ndarray:
    """Compute the normalised 256-bin HSV histogram of a frame.

    The histogram sums to 1 (L1-normalised), matching the ``min``-based
    intersection term of Eq. (1).
    """
    return frame_histograms([frame])[0]


def frame_histograms(frames: Sequence[Frame | np.ndarray]) -> np.ndarray:
    """``(N, 256)`` matrix of the frames' histograms, row ``i`` for frame ``i``."""
    return hsv_histograms(
        [frame.pixels if isinstance(frame, Frame) else frame for frame in frames]
    )


def histogram_intersection(h1: np.ndarray, h2: np.ndarray) -> float:
    """Histogram intersection: ``sum_k min(h1[k], h2[k])``.

    Both inputs must be L1-normalised histograms of equal length; the
    result lies in ``[0, 1]`` with 1 meaning identical histograms.
    """
    h1 = np.asarray(h1, dtype=np.float64)
    h2 = np.asarray(h2, dtype=np.float64)
    if h1.shape != h2.shape:
        raise VisionError(f"histogram shapes differ: {h1.shape} vs {h2.shape}")
    if h1.ndim != 1:
        raise VisionError(f"histograms must be 1-D, got {h1.ndim}-D")
    return float(np.minimum(h1, h2).sum())
