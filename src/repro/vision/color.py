"""Colour-space conversions implemented from scratch on numpy arrays.

The paper's features are computed in HSV space (256-bin HSV histogram) and
its region detectors (skin, blood-red) use colour models.  Everything here
is vectorised over whole frames.

:func:`hsv_bins` / :func:`hsv_histograms` are the frame-feature kernel:
the one place a per-frame histogram is computed (shot detection, shot
features, the special-frame and ROI cues all go through it).  The scalar
conversion it is held to, bin for bin, lives with the tests
(``tests/vision/oracles.py``).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import VisionError

# Quantisation layout for the 256-bin HSV histogram: 16 hue x 4 sat x 4 val.
HUE_BINS = 16
SAT_BINS = 4
VAL_BINS = 4
TOTAL_BINS = HUE_BINS * SAT_BINS * VAL_BINS


#: Below this saturation hue is numerically meaningless (sensor noise
#: flips it arbitrarily), so such pixels share a canonical hue bin.
ACHROMATIC_SATURATION = 0.08

#: Frames per kernel pass.  Sixteen 64x80 planes are 640 KiB of float64,
#: so a stream's scratch memory is a few such planes however long it is.
FRAME_CHUNK = 16

#: Smallest positive double: ``max(x, _TINY)`` is x for every x > 0 and a
#: safe divisor at x == 0 (where the numerator is 0 too).
_TINY = 5e-324


def _unit_planes(pixels: np.ndarray) -> np.ndarray:
    """``(..., 3)`` pixels as three contiguous float64 planes ``(3, ...)`` in [0, 1]."""
    pixels = np.asarray(pixels)
    if pixels.ndim < 1 or pixels.shape[-1] != 3:
        raise VisionError(f"expected (..., 3) pixels, got {pixels.shape}")
    planes = np.empty((3, *pixels.shape[:-1]), dtype=np.float64)
    if pixels.dtype == np.uint8:
        for channel in range(3):
            np.divide(pixels[..., channel], 255.0, out=planes[channel])
    else:
        planes[...] = np.moveaxis(pixels, -1, 0)
        np.clip(planes, 0.0, 1.0, out=planes)
    return planes


def _value_chroma(planes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max channel and max-minus-min of R, G, B planes."""
    r, g, b = planes
    value = np.maximum(r, g)
    np.maximum(value, b, out=value)
    chroma = np.minimum(r, g)
    np.minimum(chroma, b, out=chroma)
    np.subtract(value, chroma, out=chroma)
    return value, chroma


def saturation(pixels: np.ndarray) -> np.ndarray:
    """HSV saturation of a ``(..., 3)`` pixel block: ``rgb_to_hsv(.)[..., 1]``."""
    value, chroma = _value_chroma(_unit_planes(pixels))
    return np.divide(chroma, np.maximum(value, _TINY), out=chroma)


def hsv_bins(pixels: np.ndarray) -> np.ndarray:
    """Map each RGB pixel of a ``(..., 3)`` block to its 256-bin HSV index.

    Bin for bin the same as the scalar ``quantize_hsv(rgb_to_hsv(pixels))``
    of ``tests/vision/oracles.py``, for
    ``uint8`` or float input of any leading shape, but computed on three
    contiguous channel planes: no reductions over a length-3 axis, no
    boolean scatter assignments, no float ``%``.

    Returns a ``uint8`` array of shape ``pixels.shape[:-1]``.
    """
    planes = _unit_planes(pixels)
    r, g, b = planes
    value, chroma = _value_chroma(planes)

    # Red wins ties, then green.  A grey pixel (chroma 0) takes the red
    # branch with numerator 0: hue 0, as the oracle leaves it.
    r_max = value == r
    g_max = value == g
    hue = np.where(r_max, g - b, np.where(g_max, b - r, r - g))
    hue /= np.maximum(chroma, _TINY)
    # The oracle's ``x % 6.0`` on the red sextant is x + 6.0 for x < 0 (a
    # tiny negative x rounds to exactly 6.0, hue 1.0) and x otherwise.
    hue += np.where(r_max, np.where(hue < 0, 6.0, 0.0), np.where(g_max, 2.0, 4.0))
    hue /= 6.0
    hue *= HUE_BINS
    # Hue 1.0 is the one value the oracle's ``% 1.0`` moves (to bin 0); it
    # arrives here as 16.
    bins = hue.astype(np.uint8)
    bins &= HUE_BINS - 1

    sat = np.divide(chroma, np.maximum(value, _TINY), out=chroma)
    bins *= sat >= ACHROMATIC_SATURATION
    sat *= SAT_BINS
    bins *= SAT_BINS
    bins += np.minimum(sat.astype(np.uint8), SAT_BINS - 1)
    value *= VAL_BINS
    bins *= VAL_BINS
    bins += np.minimum(value.astype(np.uint8), VAL_BINS - 1)
    return bins


def hsv_histograms(frames: np.ndarray | Sequence[np.ndarray]) -> np.ndarray:
    """Normalised 256-bin HSV histograms of a run of equal-sized frames.

    ``frames`` is an ``(N, H, W, 3)`` array or a sequence of ``(H, W, 3)``
    arrays; it is walked :data:`FRAME_CHUNK` frames at a time, so scratch
    memory does not grow with ``N``.  Returns an ``(N, 256)`` float64
    matrix whose rows each sum to 1.
    """
    histograms = np.empty((len(frames), TOTAL_BINS), dtype=np.float64)
    for start in range(0, len(frames), FRAME_CHUNK):
        chunk = frames[start : start + FRAME_CHUNK]
        if not isinstance(chunk, np.ndarray):
            try:
                chunk = np.stack(chunk)
            except ValueError as exc:
                raise VisionError(f"frames of one run must share a shape: {exc}") from exc
        if chunk.ndim != 4 or chunk.shape[3] != 3:
            raise VisionError(f"expected (N, H, W, 3) frames, got {chunk.shape}")
        count, pixels_per_frame = len(chunk), chunk.shape[1] * chunk.shape[2]
        if pixels_per_frame == 0:
            raise VisionError("cannot build a histogram from an empty frame")
        # One bincount for the chunk: frame k counts into bins [256k, 256k + 256).
        flat = hsv_bins(chunk).reshape(count, pixels_per_frame) + np.arange(
            0, count * TOTAL_BINS, TOTAL_BINS
        ).reshape(count, 1)
        counts = np.bincount(flat.ravel(), minlength=count * TOTAL_BINS)
        np.divide(
            counts.reshape(count, TOTAL_BINS),
            float(pixels_per_frame),
            out=histograms[start : start + count],
        )
    return histograms
