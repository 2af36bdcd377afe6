"""Low-level procedural drawing primitives on RGB pixel buffers.

All functions mutate a ``(H, W, 3)`` ``float64`` canvas with channels in
``[0, 1]`` — the generator converts to ``uint8`` once per frame.  Shapes
use fractional coordinates in ``[0, 1]`` relative to the canvas so the
same composition renders at any resolution.
"""

from __future__ import annotations

import numpy as np

from repro.errors import VideoError

Color = tuple[float, float, float]


def new_canvas(height: int, width: int, color: Color = (0.0, 0.0, 0.0)) -> np.ndarray:
    """Allocate a float canvas pre-filled with ``color``."""
    if height < 1 or width < 1:
        raise VideoError("canvas must be at least 1x1")
    canvas = np.empty((height, width, 3), dtype=np.float64)
    canvas[:, :] = np.asarray(color, dtype=np.float64)
    return canvas


def _to_px(value: float, limit: int) -> int:
    return int(round(min(max(value, 0.0), 1.0) * limit))


def fill_rect(
    canvas: np.ndarray,
    top: float,
    left: float,
    bottom: float,
    right: float,
    color: Color,
) -> None:
    """Fill an axis-aligned rectangle given in fractional coordinates."""
    height, width = canvas.shape[:2]
    y0, y1 = _to_px(top, height), _to_px(bottom, height)
    x0, x1 = _to_px(left, width), _to_px(right, width)
    if y1 > y0 and x1 > x0:
        canvas[y0:y1, x0:x1] = np.asarray(color, dtype=np.float64)


def fill_ellipse(
    canvas: np.ndarray,
    cy: float,
    cx: float,
    ry: float,
    rx: float,
    color: Color,
) -> None:
    """Fill an ellipse centred at ``(cy, cx)`` with fractional radii."""
    height, width = canvas.shape[:2]
    ys = (np.arange(height) + 0.5) / height
    xs = (np.arange(width) + 0.5) / width
    if ry <= 0 or rx <= 0:
        return
    mask = ((ys[:, None] - cy) / ry) ** 2 + ((xs[None, :] - cx) / rx) ** 2 <= 1.0
    canvas[mask] = np.asarray(color, dtype=np.float64)


def vertical_gradient(canvas: np.ndarray, top_color: Color, bottom_color: Color) -> None:
    """Fill the whole canvas with a vertical linear gradient."""
    height = canvas.shape[0]
    t = np.linspace(0.0, 1.0, height)[:, None, None]
    top = np.asarray(top_color, dtype=np.float64)[None, None, :]
    bottom = np.asarray(bottom_color, dtype=np.float64)[None, None, :]
    canvas[:, :, :] = top * (1.0 - t) + bottom * t


def draw_hline(
    canvas: np.ndarray, y: float, left: float, right: float, color: Color, thickness: int = 1
) -> None:
    """Horizontal line at fractional row ``y`` spanning ``[left, right]``."""
    height, width = canvas.shape[:2]
    y0 = _to_px(y, height - 1)
    x0, x1 = _to_px(left, width), _to_px(right, width)
    y1 = min(y0 + max(thickness, 1), height)
    if x1 > x0:
        canvas[y0:y1, x0:x1] = np.asarray(color, dtype=np.float64)


def draw_vline(
    canvas: np.ndarray, x: float, top: float, bottom: float, color: Color, thickness: int = 1
) -> None:
    """Vertical line at fractional column ``x`` spanning ``[top, bottom]``."""
    height, width = canvas.shape[:2]
    x0 = _to_px(x, width - 1)
    y0, y1 = _to_px(top, height), _to_px(bottom, height)
    x1 = min(x0 + max(thickness, 1), width)
    if y1 > y0:
        canvas[y0:y1, x0:x1] = np.asarray(color, dtype=np.float64)


def add_noise(canvas: np.ndarray, rng: np.random.Generator, sigma: float = 0.012) -> None:
    """Sensor noise: small Gaussian perturbation, clipped back to [0, 1]."""
    canvas += rng.normal(0.0, sigma, canvas.shape)
    np.clip(canvas, 0.0, 1.0, out=canvas)


def adjust_brightness(canvas: np.ndarray, factor: float) -> None:
    """Global brightness flicker (factor near 1.0)."""
    canvas *= factor
    np.clip(canvas, 0.0, 1.0, out=canvas)


def camera_jitter(canvas: np.ndarray, rng: np.random.Generator, max_shift: int = 1) -> np.ndarray:
    """Handheld jitter: roll the image by up to ``max_shift`` pixels."""
    dy = int(rng.integers(-max_shift, max_shift + 1))
    dx = int(rng.integers(-max_shift, max_shift + 1))
    return np.roll(canvas, shift=(dy, dx), axis=(0, 1))


def value_noise_texture(
    height: int,
    width: int,
    rng: np.random.Generator,
    cells: int = 6,
    amplitude: float = 0.08,
) -> np.ndarray:
    """Smooth value-noise field in ``[-amplitude, amplitude]``.

    Bilinear interpolation of a coarse random grid — used to give
    backgrounds organic, natural-image statistics so they are not
    mistaken for man-made frames.
    """
    grid = rng.uniform(-1.0, 1.0, (cells + 1, cells + 1))
    ys = np.linspace(0.0, cells, height)
    xs = np.linspace(0.0, cells, width)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y0 = np.minimum(y0, cells - 1)
    x0 = np.minimum(x0, cells - 1)
    ty = (ys - y0)[:, None]
    tx = (xs - x0)[None, :]
    top = grid[y0][:, x0] * (1 - tx) + grid[y0][:, x0 + 1] * tx
    bottom = grid[y0 + 1][:, x0] * (1 - tx) + grid[y0 + 1][:, x0 + 1] * tx
    field = top * (1 - ty) + bottom * ty
    return field * amplitude
