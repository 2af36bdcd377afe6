"""The batch shot-boundary detector, as it stood before detection became incremental.

``repro.core.shots.BoundaryDetector`` decides the same thing one
difference at a time; ``test_streaming_shots.py`` holds it to this
whole-signal version, which sees every threshold and every neighbour
before it judges anything.
"""

from __future__ import annotations

import numpy as np

from repro.core.threshold import adaptive_local_threshold


def batch_detect_boundaries(
    differences: np.ndarray, window: int = 30, min_shot_length: int = 5
) -> tuple[list[int], np.ndarray]:
    """``(boundaries, thresholds)`` of a difference signal, all of it in hand."""
    differences = np.asarray(differences, dtype=np.float64)
    n = differences.size
    if n == 0:
        return [], np.zeros(0)

    thresholds = np.empty(n, dtype=np.float64)
    for start in range(0, n, window):
        stop = min(start + window, n)
        thresholds[start:stop] = adaptive_local_threshold(differences[start:stop])

    boundaries: list[int] = []
    for i in range(n):
        if differences[i] <= thresholds[i]:
            continue
        left = differences[i - 1] if i > 0 else -np.inf
        right = differences[i + 1] if i < n - 1 else -np.inf
        if differences[i] < max(left, right):
            continue  # not the local peak of this cut
        boundary = i + 1  # cut between frames i and i+1: new shot at i+1
        if boundaries and boundary - boundaries[-1] < min_shot_length:
            # Two spikes too close together: keep the stronger one.
            previous = boundaries[-1] - 1
            if differences[i] > differences[previous]:
                boundaries[-1] = boundary
            continue
        if boundary < min_shot_length:
            continue
        boundaries.append(boundary)
    return boundaries, thresholds
