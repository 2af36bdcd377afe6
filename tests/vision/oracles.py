"""Scalar HSV conversion and quantisation: the oracle the frame kernel is held to.

``repro.vision.color.hsv_bins`` must equal ``quantize_hsv(rgb_to_hsv(.))``
bin for bin (``test_color_kernel.py``, all 2^24 colours); nothing in the
program calls these, so they live with the tests.
"""

from __future__ import annotations

import numpy as np

from repro.errors import VisionError
from repro.vision.color import ACHROMATIC_SATURATION, HUE_BINS, SAT_BINS, VAL_BINS


def rgb_to_hsv(rgb: np.ndarray) -> np.ndarray:
    """Convert an RGB image to HSV.

    Parameters
    ----------
    rgb:
        ``(H, W, 3)`` array, ``uint8`` in ``[0, 255]`` or float in ``[0, 1]``.

    Returns
    -------
    ``(H, W, 3)`` float array with hue in ``[0, 1)``, saturation and value
    in ``[0, 1]``.
    """
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise VisionError(f"expected (H, W, 3) image, got {rgb.shape}")
    if rgb.dtype == np.uint8:
        rgb = rgb.astype(np.float64) / 255.0
    else:
        rgb = np.clip(rgb.astype(np.float64), 0.0, 1.0)

    r, g, b = rgb[:, :, 0], rgb[:, :, 1], rgb[:, :, 2]
    maxc = rgb.max(axis=2)
    minc = rgb.min(axis=2)
    value = maxc
    delta = maxc - minc

    saturation = np.zeros_like(maxc)
    nonzero = maxc > 0
    saturation[nonzero] = delta[nonzero] / maxc[nonzero]

    hue = np.zeros_like(maxc)
    has_delta = delta > 0
    # Avoid divide-by-zero; only has_delta pixels are kept.
    safe_delta = np.where(has_delta, delta, 1.0)
    r_max = has_delta & (maxc == r)
    g_max = has_delta & (maxc == g) & ~r_max
    b_max = has_delta & ~r_max & ~g_max
    hue[r_max] = ((g - b)[r_max] / safe_delta[r_max]) % 6.0
    hue[g_max] = (b - r)[g_max] / safe_delta[g_max] + 2.0
    hue[b_max] = (r - g)[b_max] / safe_delta[b_max] + 4.0
    hue = hue / 6.0

    return np.stack([hue, saturation, value], axis=2)


def hsv_to_rgb(hsv: np.ndarray) -> np.ndarray:
    """Convert an HSV image (all channels in ``[0, 1]``) back to float RGB."""
    if hsv.ndim != 3 or hsv.shape[2] != 3:
        raise VisionError(f"expected (H, W, 3) image, got {hsv.shape}")
    h = (hsv[:, :, 0] % 1.0) * 6.0
    s = np.clip(hsv[:, :, 1], 0.0, 1.0)
    v = np.clip(hsv[:, :, 2], 0.0, 1.0)

    i = np.floor(h).astype(int)
    f = h - i
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))

    rgb = np.zeros_like(hsv)
    conditions = [i % 6 == k for k in range(6)]
    channels = [
        (v, t, p),
        (q, v, p),
        (p, v, t),
        (p, q, v),
        (t, p, v),
        (v, p, q),
    ]
    for cond, (rr, gg, bb) in zip(conditions, channels):
        rgb[:, :, 0] = np.where(cond, rr, rgb[:, :, 0])
        rgb[:, :, 1] = np.where(cond, gg, rgb[:, :, 1])
        rgb[:, :, 2] = np.where(cond, bb, rgb[:, :, 2])
    return rgb


def quantize_hsv(hsv: np.ndarray) -> np.ndarray:
    """Map each HSV pixel to one of 256 bins (16H x 4S x 4V).

    Near-achromatic pixels (S < 0.08) are forced into hue bin 0 so that
    grays and whites land in stable bins regardless of the random hue
    their noise happens to produce.

    Returns an integer array of shape ``(H, W)`` with values in
    ``[0, 255]``.
    """
    if hsv.ndim != 3 or hsv.shape[2] != 3:
        raise VisionError(f"expected (H, W, 3) image, got {hsv.shape}")
    saturation = np.clip(hsv[:, :, 1], 0, 1)
    h_idx = np.minimum((hsv[:, :, 0] % 1.0 * HUE_BINS).astype(int), HUE_BINS - 1)
    h_idx = np.where(saturation < ACHROMATIC_SATURATION, 0, h_idx)
    s_idx = np.minimum((saturation * SAT_BINS).astype(int), SAT_BINS - 1)
    v_idx = np.minimum((np.clip(hsv[:, :, 2], 0, 1) * VAL_BINS).astype(int), VAL_BINS - 1)
    return (h_idx * SAT_BINS + s_idx) * VAL_BINS + v_idx
