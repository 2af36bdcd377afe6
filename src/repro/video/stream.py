"""Video stream model: a sequence of frames with optional audio.

The shot detector reads any source that iterates :class:`Frame` objects
and carries ``fps``, ``title`` and ``audio``.  A :class:`VideoStream` is one
that owns its frame list (indexable, re-readable); a :class:`FrameStream`
is one read front to back from an iterator, so a video never has to be
resident whole.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import VideoError
from repro.video.frame import Frame

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.audio.waveform import AudioSource


@dataclass
class FrameStream:
    """A video read front to back: frames from any iterable, audio by window.

    Attributes
    ----------
    frames:
        Frames in presentation order.  May be a generator (a decoder, a
        renderer): it is consumed by its one reading, and its frames
        carry their own index and timestamp.
    fps:
        Frames per second; must be positive.
    title:
        Human-readable name (e.g. ``"laparoscopy"``).
    audio:
        Optional synchronised audio track: anything that cuts a window
        out of it (``slice_seconds``) — a held :class:`Waveform`, or a
        source that renders each window as it is asked for.
    """

    frames: Iterable[Frame]
    fps: float = 10.0
    title: str = "untitled"
    audio: Optional["AudioSource"] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.fps <= 0:
            raise VideoError(f"fps must be positive, got {self.fps}")

    def __iter__(self) -> Iterator[Frame]:
        return iter(self.frames)


@dataclass
class VideoStream(FrameStream):
    """A decoded video held whole: an indexable, re-readable frame list.

    Frame indices and timestamps are re-stamped on construction so they
    are always consistent.
    """

    frames: list[Frame]

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.frames:
            raise VideoError("a VideoStream needs at least one frame")
        shape = self.frames[0].shape
        restamped = []
        for i, frame in enumerate(self.frames):
            if frame.shape != shape:
                raise VideoError(
                    f"frame {i} has shape {frame.shape}, expected {shape}"
                )
            restamped.append(frame.with_index(i, i / self.fps))
        self.frames = restamped

    def __len__(self) -> int:
        return len(self.frames)

    def __getitem__(self, index: int) -> Frame:
        return self.frames[index]

    @property
    def frame_count(self) -> int:
        """Number of frames in the stream."""
        return len(self.frames)

    @property
    def duration(self) -> float:
        """Total duration in seconds."""
        return len(self.frames) / self.fps

    @property
    def frame_shape(self) -> tuple[int, int, int]:
        """``(height, width, 3)`` of every frame."""
        return self.frames[0].shape

    def slice(self, start: int, stop: int) -> "VideoStream":
        """Return frames ``[start, stop)`` as a new stream (audio dropped).

        Frames in the result are re-stamped starting from index 0.
        """
        if not 0 <= start < stop <= len(self.frames):
            raise VideoError(
                f"invalid slice [{start}, {stop}) for {len(self.frames)} frames"
            )
        return VideoStream(
            frames=list(self.frames[start:stop]),
            fps=self.fps,
            title=f"{self.title}[{start}:{stop}]",
        )

    def pixel_stack(self) -> np.ndarray:
        """Return all frames as one ``(N, H, W, 3)`` uint8 array."""
        return np.stack([frame.pixels for frame in self.frames])
