"""Special-frame classification: black / slide / clip-art / sketch (Sec. 4.1).

The paper observes that man-made frames (slides, clip art, black frames)
carry less motion and colour information than natural footage and then
separates them using video text and gray-level information.  Our
classifier works per frame:

* **man-made test** — low colour diversity (histogram entropy) and a
  dominant flat background;
* **black** — nearly no luminance anywhere;
* **slide** — bright background with horizontal dark text bands;
* **sketch** — bright background with thin dark strokes but no text-band
  structure;
* **clip art** — flat saturated colour regions without text bands.

Anything else is *natural* footage.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.video.frame import Frame
from repro.vision.color import saturation
from repro.vision.histogram import hsv_histogram


class SpecialFrameKind(str, Enum):
    """Category assigned to a representative frame."""

    NATURAL = "natural"
    BLACK = "black"
    SLIDE = "slide"
    CLIPART = "clipart"
    SKETCH = "sketch"

    @property
    def is_man_made(self) -> bool:
        """True for the paper's man-made frame types."""
        return self is not SpecialFrameKind.NATURAL

    @property
    def is_slide_like(self) -> bool:
        """Slide or clip-art — the evidence the Presentation rule needs."""
        return self in (SpecialFrameKind.SLIDE, SpecialFrameKind.CLIPART)


#: Thresholds, grouped for easy ablation.
BLACK_LUMA = 0.08
MANMADE_LUMA = 0.6
MANMADE_ENTROPY = 1.3
MANMADE_BACKGROUND = 0.65
TEXT_BAND_MIN = 2
CLIPART_SATURATION = 0.15
SLIDE_DARK_FRACTION = 0.06


def _entropy(histogram: np.ndarray) -> float:
    nonzero = histogram[histogram > 0]
    return float(-(nonzero * np.log2(nonzero)).sum())


def text_band_count(frame: Frame, dark_threshold: float = 0.5) -> int:
    """Count horizontal dark text bands on a bright background.

    A text band is a maximal run of rows whose dark-pixel fraction
    exceeds 8%, separated from the next band by at least one clean row.
    """
    gray = frame.gray()
    dark_rows = (gray < dark_threshold).mean(axis=1) > 0.08
    bands = 0
    in_band = False
    for row_is_text in dark_rows:
        if row_is_text and not in_band:
            bands += 1
            in_band = True
        elif not row_is_text:
            in_band = False
    return bands


def classify_special_frame(
    frame: Frame, histogram: np.ndarray | None = None
) -> SpecialFrameKind:
    """Classify one representative frame.

    ``histogram`` is the frame's 256-bin HSV histogram when the caller
    holds it already (a :class:`~repro.core.features.Shot` does).

    Man-made graphics are *bright* frames dominated by a single flat
    background colour (or with almost no colour diversity).  Among
    those, saturated shape content means clip art, substantial dark
    content with horizontal bands means a slide, and sparse thin
    strokes mean a sketch.
    """
    gray = frame.gray()
    mean_luma = float(gray.mean())

    if mean_luma < BLACK_LUMA and float(gray.std()) < 0.05:
        return SpecialFrameKind.BLACK

    if histogram is None:
        histogram = hsv_histogram(frame)
    entropy = _entropy(histogram)
    background = float(histogram.max())
    man_made = mean_luma > MANMADE_LUMA and (
        background >= MANMADE_BACKGROUND or entropy <= MANMADE_ENTROPY
    )
    if not man_made:
        return SpecialFrameKind.NATURAL

    saturated_fraction = float((saturation(frame.pixels) > 0.4).mean())
    if saturated_fraction > CLIPART_SATURATION:
        return SpecialFrameKind.CLIPART

    dark_fraction = float((gray < 0.5).mean())
    bands = text_band_count(frame)
    if dark_fraction >= SLIDE_DARK_FRACTION and bands >= TEXT_BAND_MIN:
        return SpecialFrameKind.SLIDE
    return SpecialFrameKind.SKETCH
