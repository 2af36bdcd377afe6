"""Background sets: the rooms and locations of the synthetic clinic.

Each set function paints a full background onto a canvas.  Sets carry
distinct colour palettes so that scenes shot in different locations have
clearly different HSV histograms (the signal the scene detector keys on)
while shots inside one location stay similar.  A ``variant`` integer
nudges the palette so that repeated scenes can be rendered as near — but
not exact — copies.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro.errors import VideoError
from repro.video.synthesis.draw import (
    Color,
    draw_hline,
    draw_vline,
    fill_rect,
    value_noise_texture,
    vertical_gradient,
)


def _shade(color: Color, factor: float) -> Color:
    return tuple(float(np.clip(c * factor, 0.0, 1.0)) for c in color)  # type: ignore[return-value]


def _apply_texture(canvas: np.ndarray, rng: np.random.Generator, amplitude: float) -> None:
    field = value_noise_texture(canvas.shape[0], canvas.shape[1], rng, amplitude=amplitude)
    canvas += field[:, :, None]
    np.clip(canvas, 0.0, 1.0, out=canvas)


def lecture_hall(canvas: np.ndarray, rng: np.random.Generator, variant: int = 0) -> None:
    """Auditorium: warm curtain backdrop, stage line, wooden podium."""
    warm = (0.35 + 0.02 * (variant % 3), 0.18, 0.16)
    vertical_gradient(canvas, _shade(warm, 1.3), _shade(warm, 0.7))
    _apply_texture(canvas, rng, 0.05)
    # Stage floor.
    fill_rect(canvas, 0.78, 0.0, 1.0, 1.0, (0.27, 0.27, 0.30))
    # Podium on the right.
    fill_rect(canvas, 0.45, 0.68, 0.80, 0.88, (0.24, 0.27, 0.36))
    draw_hline(canvas, 0.45, 0.68, 0.88, (0.36, 0.40, 0.50), thickness=2)


def exam_room(canvas: np.ndarray, rng: np.random.Generator, variant: int = 0) -> None:
    """Examination room: pale green walls, window, examination bed."""
    wall = (0.72, 0.80 - 0.02 * (variant % 3), 0.74)
    vertical_gradient(canvas, _shade(wall, 1.05), _shade(wall, 0.85))
    _apply_texture(canvas, rng, 0.03)
    # Window with sky.
    fill_rect(canvas, 0.10, 0.06, 0.42, 0.30, (0.55, 0.70, 0.88))
    draw_vline(canvas, 0.18, 0.10, 0.42, (0.92, 0.92, 0.92), thickness=1)
    # Examination bed.
    fill_rect(canvas, 0.62, 0.55, 0.78, 0.97, (0.85, 0.86, 0.90))
    fill_rect(canvas, 0.78, 0.58, 0.92, 0.62, (0.45, 0.45, 0.48))
    fill_rect(canvas, 0.78, 0.90, 0.92, 0.94, (0.45, 0.45, 0.48))


def operating_room(canvas: np.ndarray, rng: np.random.Generator, variant: int = 0) -> None:
    """Operating room: teal drapes, instrument tray, overhead lamp."""
    teal = (0.10, 0.42 + 0.02 * (variant % 3), 0.44)
    vertical_gradient(canvas, _shade(teal, 1.1), _shade(teal, 0.8))
    _apply_texture(canvas, rng, 0.04)
    # Overhead lamp.
    fill_rect(canvas, 0.04, 0.38, 0.12, 0.62, (0.88, 0.88, 0.84))
    # Instrument tray with steel instruments.
    fill_rect(canvas, 0.70, 0.04, 0.82, 0.34, (0.70, 0.72, 0.75))
    draw_hline(canvas, 0.74, 0.07, 0.30, (0.50, 0.52, 0.56), thickness=1)
    draw_hline(canvas, 0.78, 0.07, 0.26, (0.50, 0.52, 0.56), thickness=1)


def corridor(canvas: np.ndarray, rng: np.random.Generator, variant: int = 0) -> None:
    """Hospital corridor: neutral walls and a row of doors (filler set)."""
    wall = (0.62, 0.60, 0.58 + 0.02 * (variant % 3))
    vertical_gradient(canvas, _shade(wall, 1.05), _shade(wall, 0.8))
    _apply_texture(canvas, rng, 0.03)
    for i in range(3):
        left = 0.08 + 0.30 * i
        fill_rect(canvas, 0.25, left, 0.75, left + 0.16, (0.30, 0.34, 0.42))
    fill_rect(canvas, 0.75, 0.0, 1.0, 1.0, (0.48, 0.47, 0.46))


def imaging_lab(canvas: np.ndarray, rng: np.random.Generator, variant: int = 0) -> None:
    """Nuclear-medicine lab: dark blue room with glowing monitors."""
    blue = (0.10, 0.12, 0.30 + 0.02 * (variant % 3))
    vertical_gradient(canvas, _shade(blue, 1.2), _shade(blue, 0.7))
    _apply_texture(canvas, rng, 0.04)
    # Monitor bank.
    for i in range(2):
        left = 0.12 + 0.40 * i
        fill_rect(canvas, 0.20, left, 0.50, left + 0.30, (0.05, 0.05, 0.08))
        fill_rect(canvas, 0.24, left + 0.03, 0.46, left + 0.27, (0.20, 0.70, 0.45))
    fill_rect(canvas, 0.72, 0.0, 1.0, 1.0, (0.16, 0.16, 0.22))


#: Registry used by the screenplay compiler.
SET_REGISTRY = {
    "lecture_hall": lecture_hall,
    "exam_room": exam_room,
    "operating_room": operating_room,
    "corridor": corridor,
    "imaging_lab": imaging_lab,
}


#: The last few sets painted: ``(name, variant, shape, generator state on
#: entry) -> (pixels, generator state on exit)``.  Every frame of a shot
#: repaints the same set from the same seed; restoring pixels *and* state
#: leaves canvas and ``rng`` exactly as painting would.
_PAINTED: dict[tuple, tuple[np.ndarray, dict]] = {}


def render_set(name: str, canvas: np.ndarray, rng: np.random.Generator, variant: int = 0) -> None:
    """Paint the named background set onto ``canvas`` (the whole of it)."""
    try:
        painter = SET_REGISTRY[name]
    except KeyError:
        raise VideoError(f"unknown set {name!r}; known: {sorted(SET_REGISTRY)}") from None
    key = (name, variant, canvas.shape, pickle.dumps(rng.bit_generator.state))
    painted = _PAINTED.get(key)
    if painted is None:
        painter(canvas, rng, variant)
        if len(_PAINTED) >= 4:
            del _PAINTED[next(iter(_PAINTED))]
        _PAINTED[key] = (canvas.copy(), rng.bit_generator.state)
    else:
        canvas[...] = painted[0]
        rng.bit_generator.state = painted[1]
