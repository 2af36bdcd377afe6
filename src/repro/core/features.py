"""Per-shot visual features (Sec. 3.1).

After segmentation, the 10th frame of each shot becomes its
representative frame and two descriptors are extracted: a 256-bin HSV
colour histogram and a 10-dimensional Tamura coarseness texture vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import MiningError
from repro.video.frame import Frame
from repro.vision.histogram import hsv_histogram
from repro.vision.texture import tamura_coarseness

#: The paper takes the 10th frame of each shot as representative.
REPRESENTATIVE_FRAME_OFFSET = 9


@dataclass
class Shot:
    """A detected shot with its representative frame and features.

    Attributes
    ----------
    shot_id:
        Zero-based index in detection order.
    start / stop:
        Frame range, half-open.
    fps:
        Stream frame rate (for second-based durations).
    representative_frame:
        The paper's 10th frame (or the middle frame of shorter shots).
    histogram / texture:
        256-bin HSV histogram and 10-dim Tamura coarseness.
    """

    shot_id: int
    start: int
    stop: int
    fps: float
    representative_frame: Frame = field(repr=False)
    histogram: np.ndarray = field(repr=False)
    texture: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop <= self.start:
            raise MiningError(f"invalid shot span [{self.start}, {self.stop})")
        if self.fps <= 0:
            raise MiningError("fps must be positive")

    @property
    def length(self) -> int:
        """Number of frames."""
        return self.stop - self.start

    @property
    def duration(self) -> float:
        """Duration in seconds."""
        return self.length / self.fps

    @property
    def time_window(self) -> tuple[float, float]:
        """``(start, stop)`` in seconds."""
        return (self.start / self.fps, self.stop / self.fps)


def representative_frame_index(start: int, stop: int) -> int:
    """Pick the representative frame index for a shot span.

    The paper uses the 10th frame; shots shorter than 10 frames fall
    back to the middle frame.
    """
    if stop - start > REPRESENTATIVE_FRAME_OFFSET:
        return start + REPRESENTATIVE_FRAME_OFFSET
    return start + (stop - start) // 2


def shot_from_frame(
    frame: Frame,
    shot_id: int,
    start: int,
    stop: int,
    fps: float,
    histogram: np.ndarray | None = None,
) -> Shot:
    """A :class:`Shot` over ``[start, stop)`` with ``frame`` as its representative.

    ``histogram`` is the frame's histogram row when the caller already
    has it (the shot detector does); the shot keeps a copy instead of
    computing it again.
    """
    return Shot(
        shot_id=shot_id,
        start=start,
        stop=stop,
        fps=fps,
        representative_frame=frame,
        histogram=hsv_histogram(frame) if histogram is None else histogram.copy(),
        texture=tamura_coarseness(frame),
    )
