"""Shot-boundary detection with adaptive local thresholds (Sec. 3.1).

The stream's inter-frame histogram-difference signal is processed in
small windows (30 frames by default).  Each window gets its own
threshold — the fast-entropy pick combined with a robust local-activity
floor — so quiet passages and busy passages are judged by their own
statistics, exactly the adaptation the paper argues for.

A boundary is declared at frame transition ``i`` when ``d[i]`` exceeds
its window's threshold *and* is the local maximum among its immediate
neighbours (cuts are single-frame spikes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.features import Shot, build_shot
from repro.core.threshold import adaptive_local_threshold
from repro.errors import MiningError
from repro.video.stream import VideoStream
from repro.vision.difference import signal_from_histograms
from repro.vision.histogram import frame_histograms

#: Paper window size: "a small window (e.g., 30 frames in our current work)".
DEFAULT_WINDOW = 30

#: Minimum frames per shot; spikes closer together than this are merged.
MIN_SHOT_LENGTH = 5


@dataclass
class ShotDetectionResult:
    """Everything the detector saw — kept for Fig. 5 style inspection.

    Attributes
    ----------
    shots:
        The detected shots with features.
    differences:
        The inter-frame difference signal (length ``frames - 1``).
    thresholds:
        The per-transition threshold actually applied (same length).
    boundaries:
        Frame indices where new shots start (excluding frame 0).
    """

    shots: list[Shot]
    differences: np.ndarray = field(repr=False)
    thresholds: np.ndarray = field(repr=False)
    boundaries: list[int]

    @property
    def shot_count(self) -> int:
        """Number of detected shots."""
        return len(self.shots)


def detect_boundaries(
    differences: np.ndarray,
    window: int = DEFAULT_WINDOW,
    min_shot_length: int = MIN_SHOT_LENGTH,
) -> tuple[list[int], np.ndarray]:
    """Find cut positions in a difference signal.

    Returns ``(boundaries, thresholds)`` where ``boundaries`` holds the
    frame indices at which a new shot starts and ``thresholds`` the
    per-transition adaptive threshold.
    """
    differences = np.asarray(differences, dtype=np.float64)
    n = differences.size
    if n == 0:
        return [], np.zeros(0)
    if window < 4:
        raise MiningError(f"window must be at least 4 frames, got {window}")

    thresholds = np.empty(n, dtype=np.float64)
    for start in range(0, n, window):
        stop = min(start + window, n)
        local = differences[start:stop]
        thresholds[start:stop] = adaptive_local_threshold(local)

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


def detect_shots(
    stream: VideoStream,
    window: int = DEFAULT_WINDOW,
    min_shot_length: int = MIN_SHOT_LENGTH,
    mode: str = "histogram",
) -> ShotDetectionResult:
    """Segment a stream into shots and extract per-shot features.

    ``mode`` selects the difference signal: ``"histogram"`` (full-frame
    HSV histogram differences, the default) or ``"dc"`` (compressed-
    domain DC-coefficient differences, as the paper's MPEG detector
    [10] used — much cheaper, slightly less colour-sensitive).
    """
    histograms = None
    if mode == "histogram":
        # The one pass over every frame; each shot's feature is a row of it.
        histograms = frame_histograms(stream)
        differences = signal_from_histograms(histograms)
    elif mode == "dc":
        from repro.vision.compressed import dc_difference_signal

        differences = dc_difference_signal(stream)
    else:
        raise MiningError(f"unknown detection mode {mode!r}")
    boundaries, thresholds = detect_boundaries(
        differences, window=window, min_shot_length=min_shot_length
    )
    spans = boundary_spans(boundaries, len(stream))
    shots = [
        build_shot(stream, shot_id, start, stop, histograms)
        for shot_id, (start, stop) in enumerate(spans)
    ]
    return ShotDetectionResult(
        shots=shots,
        differences=differences,
        thresholds=thresholds,
        boundaries=boundaries,
    )


def boundary_spans(boundaries: list[int], frame_count: int) -> list[tuple[int, int]]:
    """Convert boundary positions to half-open ``(start, stop)`` spans."""
    if frame_count < 1:
        raise MiningError("stream has no frames")
    starts = [0] + list(boundaries)
    stops = list(boundaries) + [frame_count]
    spans = []
    for start, stop in zip(starts, stops):
        if stop <= start:
            raise MiningError(f"boundary list is not strictly increasing: {boundaries}")
        spans.append((start, stop))
    return spans


def shots_from_ground_truth(stream: VideoStream, spans: list[tuple[int, int]]) -> list[Shot]:
    """Build feature-bearing shots from known spans (oracle segmentation).

    Used by evaluations that want to isolate the grouping/scene stages
    from shot-detection errors.
    """
    return [
        build_shot(stream, shot_id, start, stop)
        for shot_id, (start, stop) in enumerate(spans)
    ]
