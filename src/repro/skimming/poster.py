"""Pictorial summarisation: a poster image of the skim (Sec. 5).

"The mined video content structure and event categories can also
facilitate more applications like ... pictorial summarization."  This
module composes the representative frames of a skim level into a
single poster image — an actual pixel grid with event-coloured borders
— and writes it as a binary PPM (P6), a format that needs no imaging
library.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.errors import SkimmingError
from repro.skimming.skim import ScalableSkim
from repro.types import EventKind

#: Border colour per event (RGB, uint8) — matches the colour bar.
BORDER_COLORS: dict[EventKind, tuple[int, int, int]] = {
    EventKind.PRESENTATION: (60, 90, 200),
    EventKind.DIALOG: (60, 180, 90),
    EventKind.CLINICAL_OPERATION: (200, 60, 60),
    EventKind.UNKNOWN: (120, 120, 120),
}

#: Pixels of event-coloured border around each cell.
BORDER = 2
#: Pixels of background gutter between cells.
GUTTER = 4


def compose_poster(
    skim: ScalableSkim,
    level: int | None = None,
    columns: int = 4,
    background: tuple[int, int, int] = (24, 24, 28),
) -> np.ndarray:
    """Compose the skim's representative frames into one RGB image.

    Returns a ``(H, W, 3)`` uint8 array: a ``columns``-wide grid of the
    level's representative frames, each wrapped in a border coloured by
    its scene's mined event.
    """
    if columns < 1:
        raise SkimmingError("need at least one column")
    segments = skim.segments(level)
    if not segments:
        raise SkimmingError("nothing to compose")

    frame_h, frame_w, _ = segments[0].shot.representative_frame.shape
    cell_h = frame_h + 2 * BORDER
    cell_w = frame_w + 2 * BORDER
    rows = -(-len(segments) // columns)
    height = rows * cell_h + (rows + 1) * GUTTER
    width = columns * cell_w + (columns + 1) * GUTTER

    poster = np.empty((height, width, 3), dtype=np.uint8)
    poster[:, :] = np.asarray(background, dtype=np.uint8)

    for index, segment in enumerate(segments):
        row, col = divmod(index, columns)
        top = GUTTER + row * (cell_h + GUTTER)
        left = GUTTER + col * (cell_w + GUTTER)
        border_color = np.asarray(BORDER_COLORS[segment.event], dtype=np.uint8)
        poster[top : top + cell_h, left : left + cell_w] = border_color
        poster[
            top + BORDER : top + BORDER + frame_h,
            left + BORDER : left + BORDER + frame_w,
        ] = segment.shot.representative_frame.pixels
    return poster


def write_ppm(image: np.ndarray, path: str | Path) -> None:
    """Write an RGB uint8 image as binary PPM (P6).

    PPM is self-describing and viewable by most image tools; writing it
    needs nothing beyond the standard library.
    """
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise SkimmingError("write_ppm expects an (H, W, 3) uint8 image")
    height, width = image.shape[:2]
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + image.tobytes())


def save_poster(
    skim: ScalableSkim,
    path: str | Path,
    level: int | None = None,
    columns: int = 4,
) -> np.ndarray:
    """Compose and write the poster; returns the composed image."""
    poster = compose_poster(skim, level=level, columns=columns)
    write_ppm(poster, path)
    return poster
