"""Shot-boundary detection with adaptive local thresholds (Sec. 3.1).

The stream's inter-frame histogram-difference signal is processed in
small windows (30 frames by default).  Each window gets its own
threshold — the fast-entropy pick combined with a robust local-activity
floor — so quiet passages and busy passages are judged by their own
statistics, exactly the adaptation the paper argues for.

A boundary is declared at frame transition ``i`` when ``d[i]`` exceeds
its window's threshold *and* is the local maximum among its immediate
neighbours (cuts are single-frame spikes).

Detection is one pass over a frame *iterator*: every decision needs
only a bounded look at the signal, so a frame is dropped as soon as no
open decision can still pick it as a shot's representative and the
resident pixels do not grow with the length of the video.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import DEFAULT_WINDOW
from repro.core.features import (
    REPRESENTATIVE_FRAME_OFFSET,
    Shot,
    representative_frame_index,
    shot_from_frame,
)
from repro.core.threshold import adaptive_local_threshold
from repro.errors import MiningError
from repro.video.frame import Frame
from repro.video.stream import FrameStream
from repro.vision.color import FRAME_CHUNK
from repro.vision.compressed import dc_images, signal_from_dc_images
from repro.vision.difference import signal_from_histograms
from repro.vision.histogram import frame_histograms

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


class BoundaryDetector:
    """The cut detector, fed one inter-frame difference at a time.

    Three things keep a decision open, each for a bounded stretch: a
    window's threshold closes when its last transition arrives, the
    local-peak test of transition ``i`` waits for ``d[i + 1]``, and the
    newest boundary can be replaced by a stronger spike until every
    transition within ``min_shot_length`` of it has been judged.  So of
    ``boundaries`` (frame indices where a new shot starts) the first
    ``settled`` can no longer change; ``judged`` counts the transitions
    tested so far.  ``differences`` and ``thresholds`` are kept whole
    (the Fig. 5 record, 16 bytes a frame); :meth:`flush` ends the signal.
    """

    def __init__(
        self, window: int = DEFAULT_WINDOW, min_shot_length: int = MIN_SHOT_LENGTH
    ) -> None:
        if window < 4:
            raise MiningError(f"window must be at least 4 frames, got {window}")
        self._window = window
        self._min_shot_length = min_shot_length
        self.differences = array("d")
        self.thresholds = array("d")
        self.boundaries: list[int] = []
        self.judged = 0
        self.settled = 0

    @property
    def open_from(self) -> int:
        """The earliest frame a boundary that is not settled yet can fall on."""
        if self.settled < len(self.boundaries):
            return self.boundaries[-1]
        return self.judged + 1

    def feed(self, difference: float) -> None:
        """Take ``d[i]`` for the next transition ``i``."""
        self.differences.append(difference)
        if len(self.differences) % self._window == 0:
            self._close_window()
        self._judge(min(len(self.thresholds), len(self.differences) - 1))

    def flush(self) -> None:
        """The signal has ended: close the last window and settle every boundary."""
        if len(self.thresholds) < len(self.differences):
            self._close_window()
        self._judge(len(self.differences))
        self.settled = len(self.boundaries)

    def _close_window(self) -> None:
        local = self.differences[len(self.thresholds) :]
        self.thresholds.extend([adaptive_local_threshold(local)] * len(local))

    def _judge(self, upto: int) -> None:
        """Test transitions ``[judged, upto)``; ``d[upto]`` is known unless the signal ended."""
        d, boundaries = self.differences, self.boundaries
        for i in range(self.judged, upto):
            if d[i] <= self.thresholds[i]:
                continue
            left = d[i - 1] if i > 0 else -np.inf
            right = d[i + 1] if i + 1 < len(d) else -np.inf
            if d[i] < max(left, right):
                continue  # not the local peak of this cut
            boundary = i + 1  # cut between frames i and i+1: new shot at i+1
            if boundaries and boundary - boundaries[-1] < self._min_shot_length:
                # Two spikes too close together: keep the stronger one.
                if d[i] > d[boundaries[-1] - 1]:
                    boundaries[-1] = boundary
            elif boundary >= self._min_shot_length:
                boundaries.append(boundary)
        self.judged = upto
        replaceable = boundaries and upto + 1 - boundaries[-1] < self._min_shot_length
        self.settled = len(boundaries) - bool(replaceable)


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
    detector = BoundaryDetector(window, min_shot_length)
    for difference in np.asarray(differences, dtype=np.float64).tolist():
        detector.feed(difference)
    detector.flush()
    return detector.boundaries, np.array(detector.thresholds)


#: Difference signal -> (per-frame signature rows of a chunk, differences
#: between consecutive rows, whether a row is also the shot's histogram).
_SIGNALS = {
    "histogram": (frame_histograms, signal_from_histograms, True),
    "dc": (dc_images, signal_from_dc_images, False),
}


def detect_shots(
    stream: FrameStream,
    window: int = DEFAULT_WINDOW,
    min_shot_length: int = MIN_SHOT_LENGTH,
    mode: str = "histogram",
) -> ShotDetectionResult:
    """Segment a stream into shots and extract per-shot features.

    ``stream`` is read once, front to back.  Frames are held only while
    an open decision can still make them a shot's representative — the
    ten from the start of the shot being closed, plus everything from
    :attr:`BoundaryDetector.open_from` on: at most ``window +
    min_shot_length + 10`` frames between chunks.

    ``mode`` selects the difference signal: ``"histogram"`` (full-frame
    HSV histogram differences, the default) or ``"dc"`` (compressed-
    domain DC-coefficient differences, as the paper's MPEG detector
    [10] used — much cheaper, slightly less colour-sensitive).
    """
    if mode not in _SIGNALS:
        raise MiningError(f"unknown detection mode {mode!r}")
    signatures, differences_of, rows_are_features = _SIGNALS[mode]
    detector = BoundaryDetector(window, min_shot_length)
    shots: list[Shot] = []
    held: dict[int, tuple[Frame, np.ndarray | None]] = {}
    count = 0
    last_row = None

    def close_shots(stops: list[int]) -> None:
        for stop in stops:
            start = shots[-1].stop if shots else 0
            frame, row = held[representative_frame_index(start, stop)]
            shots.append(shot_from_frame(frame, len(shots), start, stop, stream.fps, row))

    frames = iter(stream)
    # The one pass over every frame; each shot's feature is a row of it.
    while chunk := list(itertools.islice(frames, FRAME_CHUNK)):
        rows = signatures(chunk)
        joined = rows if last_row is None else np.concatenate([last_row, rows])
        for difference in differences_of(joined).tolist():
            detector.feed(difference)
        last_row = rows[-1:]
        for frame, row in zip(chunk, rows if rows_are_features else itertools.repeat(None)):
            held[count] = (frame, row)
            count += 1
        close_shots(detector.boundaries[len(shots) : detector.settled])
        head = shots[-1].stop if shots else 0
        tail = detector.open_from
        held = {
            index: kept
            for index, kept in held.items()
            if index >= tail or head <= index <= head + REPRESENTATIVE_FRAME_OFFSET
        }
    if not count:
        raise MiningError("stream has no frames")
    detector.flush()
    close_shots(detector.boundaries[len(shots) :] + [count])
    return ShotDetectionResult(
        shots=shots,
        differences=np.array(detector.differences),
        thresholds=np.array(detector.thresholds),
        boundaries=detector.boundaries,
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


def shots_from_ground_truth(stream: FrameStream, spans: list[tuple[int, int]]) -> list[Shot]:
    """Build feature-bearing shots from known spans (oracle segmentation).

    Used by evaluations that want to isolate the grouping/scene stages
    from shot-detection errors.  One pass over the stream, keeping only
    the spans' representative frames.
    """
    picks = [representative_frame_index(start, stop) for start, stop in spans]
    wanted = set(picks)
    frames: dict[int, Frame] = {}
    count = 0
    for frame in stream:
        if count in wanted:
            frames[count] = frame
        count += 1
    for start, stop in spans:
        if stop > count:
            raise MiningError(f"shot span [{start}, {stop}) exceeds stream length")
    return [
        shot_from_frame(frames[pick], shot_id, start, stop, stream.fps)
        for shot_id, (pick, (start, stop)) in enumerate(zip(picks, spans))
    ]
