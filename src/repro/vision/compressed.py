"""Compressed-domain analysis: DC-coefficient images (after ref. [10]).

The paper's original shot detector "has been developed to work on MPEG
compressed videos": instead of decoding full frames it reads each 8x8
block's DC coefficient, which is (up to scale) the block mean.  We
reproduce that data path — a DC image is the frame downsampled by block
averaging — so the adaptive-threshold detector can run on either full
frames or the 64x-smaller DC stream, exactly like the reference.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.errors import VisionError
from repro.video.frame import Frame

#: MPEG macro-block DCT size.
DEFAULT_BLOCK = 8


def dc_image(frame: Frame | np.ndarray, block: int = DEFAULT_BLOCK) -> np.ndarray:
    """The DC-coefficient image of a frame: per-block mean luma.

    Returns a float array of shape ``(ceil(H / block), ceil(W / block))``
    in ``[0, 1]``.  This is what an MPEG decoder recovers from the DC
    terms without inverse-transforming the blocks.
    """
    if block < 1:
        raise VisionError("block size must be >= 1")
    gray = frame.gray() if isinstance(frame, Frame) else np.asarray(frame, dtype=np.float64)
    if gray.ndim == 3:
        gray = Frame(pixels=np.asarray(frame)).gray()
    if gray.ndim != 2:
        raise VisionError(f"expected a frame or 2-D image, got {gray.ndim}-D")
    height, width = gray.shape
    out_h = -(-height // block)
    out_w = -(-width // block)
    padded = np.zeros((out_h * block, out_w * block))
    padded[:height, :width] = gray
    # Edge blocks replicate the border so padding does not bias means.
    if out_h * block > height:
        padded[height:, :width] = gray[-1:, :]
    if out_w * block > width:
        padded[:, width:] = padded[:, width - 1 : width]
    return padded.reshape(out_h, block, out_w, block).mean(axis=(1, 3))


def dc_images(frames: Iterable[Frame], block: int = DEFAULT_BLOCK) -> np.ndarray:
    """``(N, h, w)`` stack of the frames' DC images."""
    return np.stack([dc_image(frame, block) for frame in frames])


def signal_from_dc_images(images: np.ndarray) -> np.ndarray:
    """Mean absolute difference between each DC image and the next."""
    return np.array([float(np.abs(a - b).mean()) for a, b in zip(images[:-1], images[1:])])
