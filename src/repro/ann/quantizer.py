"""Seeded coarse quantizer + scalar code quantization (pure NumPy).

Two deterministic building blocks for the ANN tier:

* :func:`kmeans_cells` — a seeded Lloyd's k-means over packed feature
  rows.  Initialisation draws from ``np.random.default_rng(seed)`` and
  every reduction (assignment argmin, member mean) is order-stable, so
  the same ``(data, cells, seed)`` triple yields byte-identical
  centroids and assignments *in every process* — shard builders each
  train their own quantizer and still agree with a rebuilt one.
* :func:`scalar_quantize` — per-dimension affine uint8 codes
  (``value ≈ offset[d] + scale[d] * code``).  The scale is non-negative
  by construction, which is what lets
  :func:`repro.core.kernels.quantized_intersection_to_many` compute the
  intersection score directly on the codes.

Distance computations use the ``‖a‖² + ‖b‖² − 2·a·b`` expansion so the
assignment step is one matmul plus rank-1 adds — no ``(N, C, d)``
temporary, keeping training memory flat in the corpus dimension.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import column_sums, scan_chunks, squared_distances
from repro.errors import DatabaseError

#: Coarse cells trained per leaf (clamped to the leaf population).
DEFAULT_ANN_CELLS = 16

#: Seed of every quantizer training run.
ANN_SEED = 0

#: Lloyd iterations; few suffice for a routing-quality clustering.
_KMEANS_ITERATIONS = 4


def _assign(data: np.ndarray, centroids: np.ndarray, data_sq: np.ndarray) -> np.ndarray:
    """Nearest-centroid assignment via the norm expansion (ties → lowest)."""
    cent_sq = (centroids * centroids).sum(axis=1)
    d2 = data_sq[:, None] + cent_sq[None, :] - 2.0 * (data @ centroids.T)
    return np.argmin(d2, axis=1)


def kmeans_cells(
    data: np.ndarray,
    cells: int = DEFAULT_ANN_CELLS,
    seed: int = ANN_SEED,
    iterations: int = _KMEANS_ITERATIONS,
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded k-means: ``(centroids (C, d), assignment (N,) int64)``.

    ``cells`` is clamped to ``[1, N]``.  An emptied cell keeps its
    previous centroid (deterministic, no resampling), so the output
    depends only on the inputs and the seed.
    """
    data = np.ascontiguousarray(np.atleast_2d(data), dtype=np.float64)
    n = data.shape[0]
    if n == 0:
        raise DatabaseError("cannot train a quantizer on an empty population")
    cells = max(1, min(int(cells), n))
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(n, size=cells, replace=False))
    centroids = data[chosen]
    # ``(data * data).sum(axis=1)`` and ``data[members].mean(axis=0)``,
    # bit for bit, a scratch chunk at a time (``x - 0.0`` is ``x``).
    data_sq = squared_distances(np.zeros(data.shape[1]), data)
    assignment = _assign(data, centroids, data_sq)
    for _ in range(max(0, int(iterations))):
        for c in range(cells):
            members = np.flatnonzero(assignment == c)
            if members.size:
                centroids[c] = column_sums(data, members) / members.size
        assignment = _assign(data, centroids, data_sq)
    return centroids, assignment.astype(np.int64)


def scalar_quantize(
    data: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-dim affine uint8 codes: ``(codes (N, d), scale (d,), offset (d,))``.

    ``offset`` is the per-dim minimum, ``scale`` the per-dim range over
    255 (zero for constant dimensions, whose rows all encode as 0 and
    dequantize exactly to the constant).  Codes round to nearest, so the
    reconstruction error per dimension is at most half a scale step.
    """
    data = np.ascontiguousarray(np.atleast_2d(data), dtype=np.float64)
    if data.shape[0] == 0:
        raise DatabaseError("cannot quantize an empty population")
    offset = data.min(axis=0)
    scale = (data.max(axis=0) - offset) / 255.0
    safe = np.where(scale > 0.0, scale, 1.0)
    codes = np.empty(data.shape, dtype=np.uint8)
    for start, stop, scratch in scan_chunks(*data.shape):
        np.divide(np.subtract(data[start:stop], offset, out=scratch), safe, out=scratch)
        codes[start:stop] = np.clip(np.rint(scratch, out=scratch), 0, 255, out=scratch)
    return codes, scale, offset


def quantize_queries(
    data: np.ndarray, scale: np.ndarray, offset: np.ndarray
) -> np.ndarray:
    """Encode query rows with a trained quantizer's scale/offset.

    Values outside the training range clip to the code range ends —
    the monotone ``min`` decomposition stays valid because clipping can
    only move the reconstructed value toward the data range, and the
    exact re-rank tail corrects any survivor it misjudged.
    """
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    safe = np.where(np.asarray(scale) > 0.0, scale, 1.0)
    codes = np.clip(np.rint((data - offset[None, :]) / safe[None, :]), 0, 255)
    return codes.astype(np.uint8)
