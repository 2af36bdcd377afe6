"""Frame model: a single RGB video frame plus its temporal coordinates.

Frames are stored as ``numpy`` arrays of shape ``(height, width, 3)`` with
``uint8`` channels in RGB order.  The class is a thin, validated wrapper so
the rest of the system can pass frames around without re-checking shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import VideoError

#: Default frame geometry used by the synthetic corpus.
DEFAULT_HEIGHT = 64
DEFAULT_WIDTH = 80


def validate_pixels(pixels: np.ndarray) -> np.ndarray:
    """Validate and normalise a pixel array to ``uint8`` RGB.

    Accepts ``uint8`` arrays directly and float arrays in ``[0, 1]`` which
    are rescaled.  Raises :class:`VideoError` for anything else.
    """
    if not isinstance(pixels, np.ndarray):
        raise VideoError(f"pixels must be an ndarray, got {type(pixels).__name__}")
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise VideoError(f"pixels must have shape (H, W, 3), got {pixels.shape}")
    if pixels.shape[0] < 1 or pixels.shape[1] < 1:
        raise VideoError(f"frame must be at least 1x1, got {pixels.shape}")
    if pixels.dtype == np.uint8:
        return pixels
    if np.issubdtype(pixels.dtype, np.floating):
        if pixels.min() < -1e-6 or pixels.max() > 1.0 + 1e-6:
            raise VideoError("float pixels must lie in [0, 1]")
        return (np.clip(pixels, 0.0, 1.0) * 255.0).round().astype(np.uint8)
    raise VideoError(f"unsupported pixel dtype {pixels.dtype}")


@dataclass(frozen=True)
class Frame:
    """One RGB video frame.

    Attributes
    ----------
    pixels:
        ``(H, W, 3)`` ``uint8`` RGB array.
    index:
        Zero-based position of the frame in its stream.
    timestamp:
        Presentation time in seconds.
    """

    pixels: np.ndarray = field(repr=False)
    index: int = 0
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "pixels", validate_pixels(self.pixels))
        if self.index < 0:
            raise VideoError(f"frame index must be >= 0, got {self.index}")
        if self.timestamp < 0:
            raise VideoError(f"timestamp must be >= 0, got {self.timestamp}")

    @property
    def height(self) -> int:
        """Frame height in pixels."""
        return int(self.pixels.shape[0])

    @property
    def width(self) -> int:
        """Frame width in pixels."""
        return int(self.pixels.shape[1])

    @property
    def shape(self) -> tuple[int, int, int]:
        """``(height, width, 3)``."""
        return tuple(self.pixels.shape)  # type: ignore[return-value]

    def as_float(self) -> np.ndarray:
        """Return pixels as ``float64`` in ``[0, 1]``."""
        return self.pixels.astype(np.float64) / 255.0

    def gray(self) -> np.ndarray:
        """Return a luma (ITU-R BT.601) grayscale image in ``[0, 1]``."""
        rgb = self.as_float()
        return 0.299 * rgb[:, :, 0] + 0.587 * rgb[:, :, 1] + 0.114 * rgb[:, :, 2]

    def with_index(self, index: int, timestamp: float) -> "Frame":
        """Return a copy of this frame re-addressed to a new position."""
        return Frame(pixels=self.pixels, index=index, timestamp=timestamp)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return (
            self.index == other.index
            and self.timestamp == other.timestamp
            and self.pixels.shape == other.pixels.shape
            and bool(np.array_equal(self.pixels, other.pixels))
        )

    def __hash__(self) -> int:
        return hash((self.index, self.timestamp, self.pixels.tobytes()))
