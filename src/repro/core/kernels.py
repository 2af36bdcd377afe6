"""Vectorized StSim/GpSim kernels: one engine for every hot path.

Every similarity in the pipeline reduces to Eq. (1):

    StSim(Si, Sj) = W_C * sum_k min(H_i,k, H_j,k)
                  + W_T * max(1 - sum_k (T_i,k - T_j,k)^2, 0)

Computed shot-by-shot this is dominated by Python dispatch, not
arithmetic.  This module packs shots into contiguous arrays
(:class:`FeatureMatrix`) and evaluates Eq. (1) over whole blocks:

* the colour term is a broadcast ``min``-sum (histogram intersection);
* the texture term uses the ``‖a‖² + ‖b‖² − 2·a·b`` expansion so a
  block of squared distances is one BLAS matmul plus two rank-1 adds,
  clamped at 0 exactly as the scalar oracle clamps;
* the pairwise kernels are chunked (:data:`DEFAULT_BLOCK_PAIRS` pair
  evaluations per broadcast) and the one-to-many scans evaluate the
  ``min``-sum in row chunks of :data:`SCAN_SCRATCH_ELEMS` elements into
  one reused per-thread scratch, so no call allocates more than a few
  hundred KB however many rows are packed (nor keeps more than a chunk
  and a 2 MiB run of a stored leaf block resident: :func:`_stsim_rows`).
  Rows are independent, so a chunked scan is bit-identical to an
  unchunked one.  The exception is :func:`quantized_intersection_to_many`:
  its BLAS matvec is *not* row-independent in the last bit, so it stays
  one block (its input is one leaf's candidates, never the corpus).

The scalar implementations in :mod:`repro.core.similarity` remain the
reference oracle; every kernel here matches them to ``<= 1e-9``
(enforced by ``tests/core/test_kernels.py``), so the paper-fidelity
tests keep their meaning while the hot paths run at NumPy speed.

Group-level reductions implement Eq. (8)/(9) exactly: the *benchmark*
group is the smaller one (ties go to the first argument), each
benchmark shot contributes its best match in the other group, and the
mean is returned.

The module is deliberately dependency-light (NumPy + the error type):
both the mining core and the database layer import it without pulling
in each other.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence

import numpy as np

from repro.errors import MiningError

#: Paper weights of Eq. (1): W_C = 0.7, W_T = 0.3.  Single source of
#: truth — :mod:`repro.core.similarity` and the database index both
#: resolve their defaults here so the weights cannot drift apart.
DEFAULT_COLOR_WEIGHT = 0.7
DEFAULT_TEXTURE_WEIGHT = 0.3

#: Descriptor dimensions (Sec. 3.1): 256-bin HSV histogram, 10-dim
#: Tamura coarseness vector.
HISTOGRAM_DIM = 256
TEXTURE_DIM = 10

#: Pair evaluations per broadcast block.  The colour term materialises
#: a ``(rows, cols, 256)`` float64 temporary, so 4096 pairs cap the
#: scratch at ~8 MB — small enough to stay cache-resident, which is
#: what the memory-bound ``min``-sum wants (measured ~4x faster than
#: 64 MB blocks on a 200-shot matrix).
DEFAULT_BLOCK_PAIRS = 4096

#: float64 elements of the per-thread scratch the one-to-many scans
#: write their ``min`` rows into: 512 KB, i.e. 256 rows of a 256-bin
#: histogram or 1024 rows of a 64-d reduced block per chunk.  Measured
#: on 3 000- and 12 000-row blocks, 256-512 KB chunks scan as fast as
#: or faster than one unchunked temporary (which misses cache from a
#: few thousand rows on); a constant, not a knob.
SCAN_SCRATCH_ELEMS = 65536


class KernelStats:
    """Lock-free hot-path counters for the batch engine.

    Plain attribute increments: the chunk loop must not pay a lock per
    block, so these are CPython-GIL-approximate (an increment can in
    principle be lost under heavy thread contention, never negative or
    wildly off).  The process-global :data:`KERNEL_STATS` instance is
    published as read-time gauges through
    :func:`repro.obs.bridge.kernel_stats_collector`.
    """

    __slots__ = ("packs", "packed_rows", "chunks", "pair_evals")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter."""
        self.packs = 0
        self.packed_rows = 0
        self.chunks = 0
        self.pair_evals = 0

    def snapshot(self) -> dict[str, int]:
        """Point-in-time copy of the counters."""
        return {
            "packs": self.packs,
            "packed_rows": self.packed_rows,
            "chunks": self.chunks,
            "pair_evals": self.pair_evals,
        }


#: Process-wide kernel counters (exported via the obs registry).
KERNEL_STATS = KernelStats()


def _resolve_weights(weights) -> tuple[float, float]:
    """``(W_C, W_T)`` from a weights object (duck-typed) or the defaults."""
    if weights is None:
        return DEFAULT_COLOR_WEIGHT, DEFAULT_TEXTURE_WEIGHT
    return float(weights.color), float(weights.texture)


_SCRATCH = threading.local()


def scan_chunks(count: int, width: int, carry: int = 0):
    """``(start, stop, scratch)`` over ``count`` rows of ``width`` columns.

    ``scratch`` is a ``(stop - start, width)`` view of this thread's
    reused buffer (``carry`` rows longer after the first chunk, for the
    caller's own use); the chunks are counted into :data:`KERNEL_STATS`.
    """
    size = max(SCAN_SCRATCH_ELEMS, (carry + 1) * width)
    step = max(1, size // max(width, 1) - carry)
    buffer = getattr(_SCRATCH, "buffer", None)
    if buffer is None or buffer.size < size:
        buffer = _SCRATCH.buffer = np.empty(size)
    KERNEL_STATS.chunks += -(-count // step)
    for start in range(0, count, step):
        stop = min(start + step, count)
        rows = stop - start + (carry if start else 0)
        yield start, stop, buffer[: rows * width].reshape(-1, width)


def squared_distances(query: np.ndarray, matrix: np.ndarray, rows=None) -> np.ndarray:
    """``sum_k (row_k - query_k)^2`` per row of ``matrix`` (or of ``rows``)."""
    count = matrix.shape[0] if rows is None else rows.shape[0]
    out = np.empty(count, dtype=np.float64)
    for start, stop, scratch in scan_chunks(count, matrix.shape[1]):
        pick = slice(start, stop) if rows is None else rows[start:stop]
        diff = np.subtract(matrix[pick], query, out=scratch)
        np.multiply(diff, diff, out=diff).sum(axis=1, out=out[start:stop])
    return out


def column_sums(matrix: np.ndarray, rows=None, center=None) -> np.ndarray:
    """Column sums of ``matrix`` (or of its ``rows``), or of ``(row - center)²``.

    Bit for bit ``np.add.reduce(x, axis=0)``: NumPy adds a C-ordered
    block's rows one after another (a single column it sums pairwise), and
    so does this, a chunk at a time, carrying the total in as a chunk's
    first row.
    """
    count = matrix.shape[0] if rows is None else rows.shape[0]
    total = np.zeros(matrix.shape[1])
    for start, stop, scratch in scan_chunks(count, matrix.shape[1], carry=1):
        body = scratch[1:] if start else scratch
        body[...] = matrix[start:stop] if rows is None else matrix[rows[start:stop]]
        if center is not None:
            np.subtract(body, center, out=body)
            np.square(body, out=body)
        if start:
            scratch[0] = total
        np.add.reduce(scratch, axis=0, out=total)
    return total


def column_variances(matrix: np.ndarray) -> np.ndarray:
    """``matrix.var(axis=0)``, bit for bit, with no temporary beyond a chunk."""
    count = matrix.shape[0]
    return column_sums(matrix, center=matrix.sum(axis=0) / count) / count


def _stsim_rows(q_hist, q_tex, hists, texs, weights, rows) -> np.ndarray:
    """Eq. (1) of one shot against ``hists``/``texs`` rows (or ``rows`` of them).

    One chunk loop scores both terms.  A scan of every row of a block whose
    mapping can give pages back (a stored leaf's: ``release_pages``) hands
    it each chunk once scored, so it holds a chunk and a 2 MiB run of them.
    """
    wc, wt = _resolve_weights(weights)
    count = hists.shape[0] if rows is None else rows.shape[0]
    color, distance = np.empty(count), np.empty(count)
    owner = hists
    while isinstance(owner, np.ndarray):
        owner = owner.base
    release = getattr(owner, "release_pages", None) if rows is None else None
    diffs = None  # the texture term's (chunk, width) scratch, made on the first chunk
    for start, stop, mins in scan_chunks(count, hists.shape[1]):
        pick = slice(start, stop) if rows is None else rows[start:stop]
        np.minimum(q_hist, hists[pick], out=mins)
        np.add.reduce(mins, axis=1, out=color[start:stop])
        if diffs is None:
            diffs = np.empty((stop - start, texs.shape[1]))
        diff = np.subtract(texs[pick], q_tex, out=diffs[: stop - start])
        np.add.reduce(np.multiply(diff, diff, out=diff), axis=1, out=distance[start:stop])
        if release is not None:
            release(hists[pick])
    KERNEL_STATS.pair_evals += count
    return wc * color + wt * np.maximum(1.0 - distance, 0.0)


class FeatureMatrix:
    """Shots packed as contiguous ``(N, 256)`` + ``(N, 10)`` arrays.

    The packing is done once; every kernel then works on array blocks.
    Squared texture norms are cached lazily — they are reused by every
    cross-similarity the matrix participates in.
    """

    __slots__ = ("histograms", "textures", "_texture_sq")

    def __init__(self, histograms: np.ndarray, textures: np.ndarray) -> None:
        histograms = np.ascontiguousarray(histograms, dtype=np.float64)
        textures = np.ascontiguousarray(textures, dtype=np.float64)
        if histograms.ndim != 2 or textures.ndim != 2:
            raise MiningError("feature matrices must be 2-D")
        if histograms.shape[0] != textures.shape[0]:
            raise MiningError(
                "histogram and texture row counts disagree: "
                f"{histograms.shape[0]} vs {textures.shape[0]}"
            )
        self.histograms = histograms
        self.textures = textures
        self._texture_sq: np.ndarray | None = None
        KERNEL_STATS.packs += 1
        KERNEL_STATS.packed_rows += histograms.shape[0]

    @classmethod
    def from_shots(cls, shots: Sequence) -> "FeatureMatrix":
        """Pack objects exposing ``histogram``/``texture`` (e.g. Shots)."""
        if not shots:
            return cls(
                np.empty((0, HISTOGRAM_DIM)), np.empty((0, TEXTURE_DIM))
            )
        return cls(
            np.stack([np.asarray(shot.histogram, dtype=np.float64) for shot in shots]),
            np.stack([np.asarray(shot.texture, dtype=np.float64) for shot in shots]),
        )

    @classmethod
    def concatenate(cls, matrices: Sequence["FeatureMatrix"]) -> "FeatureMatrix":
        """Stack several matrices into one (used to pack group sets)."""
        if not matrices:
            return cls(np.empty((0, HISTOGRAM_DIM)), np.empty((0, TEXTURE_DIM)))
        return cls(
            np.concatenate([m.histograms for m in matrices]),
            np.concatenate([m.textures for m in matrices]),
        )

    @property
    def texture_sq(self) -> np.ndarray:
        """Cached per-row squared texture norms ``‖T_i‖²``."""
        if self._texture_sq is None:
            self._texture_sq = (self.textures * self.textures).sum(axis=1)
        return self._texture_sq

    def take(self, indices) -> "FeatureMatrix":
        """Row subset as a new matrix."""
        return FeatureMatrix(self.histograms[indices], self.textures[indices])

    def __len__(self) -> int:
        return self.histograms.shape[0]


def cross_stsim(
    a: FeatureMatrix,
    b: FeatureMatrix,
    weights=None,
    block_pairs: int = DEFAULT_BLOCK_PAIRS,
) -> np.ndarray:
    """Eq. (1) over every pair: ``out[i, j] = StSim(a_i, b_j)``.

    Rows of ``a`` are processed in chunks sized so each broadcast block
    evaluates at most ``block_pairs`` pairs.
    """
    na, nb = len(a), len(b)
    out = np.empty((na, nb), dtype=np.float64)
    if na == 0 or nb == 0:
        return out
    wc, wt = _resolve_weights(weights)
    rows = max(1, block_pairs // nb)
    KERNEL_STATS.chunks += -(-na // rows)
    KERNEL_STATS.pair_evals += na * nb
    b_hist = b.histograms
    b_tex_t = b.textures.T
    b_sq = b.texture_sq
    for start in range(0, na, rows):
        stop = min(start + rows, na)
        color = np.minimum(
            a.histograms[start:stop, None, :], b_hist[None, :, :]
        ).sum(axis=2)
        sq = (
            a.texture_sq[start:stop, None]
            + b_sq[None, :]
            - 2.0 * (a.textures[start:stop] @ b_tex_t)
        )
        out[start:stop] = wc * color + wt * np.maximum(1.0 - sq, 0.0)
    return out


def pairwise_stsim(
    fm: FeatureMatrix,
    weights=None,
    block_pairs: int = DEFAULT_BLOCK_PAIRS,
) -> np.ndarray:
    """Symmetric ``(N, N)`` StSim matrix with an analytic diagonal.

    ``StSim(s, s)`` needs no arithmetic: the intersection of a
    histogram with itself is its own mass and the texture distance is
    exactly zero, so the diagonal is ``W_C * ΣH_i + W_T``.

    Eq. (1) is symmetric, so only the upper-triangle blocks are
    evaluated; each is mirrored into the lower triangle, halving the
    work relative to :func:`cross_stsim` on the same matrix.
    """
    n = len(fm)
    out = np.empty((n, n), dtype=np.float64)
    if n == 0:
        return out
    wc, wt = _resolve_weights(weights)
    rows = max(1, block_pairs // n)
    KERNEL_STATS.chunks += -(-n // rows)
    KERNEL_STATS.pair_evals += n * (n + 1) // 2
    hist = fm.histograms
    tex = fm.textures
    sq = fm.texture_sq
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        color = np.minimum(
            hist[start:stop, None, :], hist[None, start:, :]
        ).sum(axis=2)
        dist = (
            sq[start:stop, None]
            + sq[None, start:]
            - 2.0 * (tex[start:stop] @ tex[start:].T)
        )
        block = wc * color + wt * np.maximum(1.0 - dist, 0.0)
        out[start:stop, start:] = block
        out[start:, start:stop] = block.T
    np.fill_diagonal(out, wc * hist.sum(axis=1) + wt)
    return out


def stsim_to_many(
    histogram: np.ndarray, texture: np.ndarray, fm: FeatureMatrix, weights=None
) -> np.ndarray:
    """Eq. (1) of one shot against every row of ``fm`` (shape ``(N,)``).

    The texture term uses direct squared differences — for a single
    query row that is as fast as the norm expansion and matches the
    scalar oracle bit-for-bit.
    """
    histogram = np.asarray(histogram, dtype=np.float64)
    texture = np.asarray(texture, dtype=np.float64)
    return _stsim_rows(
        histogram, texture, fm.histograms, fm.textures, weights, None
    )


def banded_stsim(fm: FeatureMatrix, offset: int, weights=None) -> np.ndarray:
    """``StSim(s_i, s_{i+offset})`` for every valid ``i``.

    Group detection (Eqs. 2-5) and the baselines only compare shots a
    few positions apart; a band needs ``N`` pair evaluations, not
    ``N²``.
    """
    if offset < 1:
        raise MiningError("band offset must be >= 1")
    n = len(fm)
    if n <= offset:
        return np.zeros(0, dtype=np.float64)
    wc, wt = _resolve_weights(weights)
    KERNEL_STATS.chunks += 1
    KERNEL_STATS.pair_evals += n - offset
    color = np.minimum(fm.histograms[:-offset], fm.histograms[offset:]).sum(axis=1)
    diff = fm.textures[:-offset] - fm.textures[offset:]
    texture_term = np.maximum(1.0 - (diff * diff).sum(axis=1), 0.0)
    return wc * color + wt * texture_term


def group_stsim(a: FeatureMatrix, b: FeatureMatrix, weights=None) -> float:
    """GpSim of Eq. (9): benchmark-averaged best-match similarity.

    The smaller group is the benchmark (ties go to ``a``, matching the
    scalar oracle's argument order); each benchmark shot contributes
    its best match in the other group.
    """
    if len(a) == 0 or len(b) == 0:
        raise MiningError("cannot compare empty groups")
    cross = cross_stsim(a, b, weights=weights)
    if len(a) <= len(b):
        return float(cross.max(axis=1).mean())
    return float(cross.max(axis=0).mean())


def _group_offsets(groups: Sequence[FeatureMatrix]) -> np.ndarray:
    sizes = np.array([len(g) for g in groups], dtype=np.intp)
    if np.any(sizes == 0):
        raise MiningError("cannot compare empty groups")
    offsets = np.zeros(len(groups) + 1, dtype=np.intp)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def _reduce_block(sub: np.ndarray, a_rows: bool) -> float:
    """Eq. (9) reduction of one cross block.

    ``sub`` is ``(rows, cols)``; ``a_rows`` says whether group *a* of
    the pair sits on the row axis.  The benchmark is the smaller group,
    ties going to *a*.
    """
    rows, cols = sub.shape
    a_size, b_size = (rows, cols) if a_rows else (cols, rows)
    benchmark_is_a = a_size <= b_size
    benchmark_on_rows = benchmark_is_a == a_rows
    if benchmark_on_rows:
        return float(sub.max(axis=1).mean())
    return float(sub.max(axis=0).mean())


def group_stsim_row(
    target: FeatureMatrix,
    others: Sequence[FeatureMatrix],
    weights=None,
    target_first: bool = True,
) -> np.ndarray:
    """GpSim of one group against many, in one packed kernel call.

    ``target_first`` preserves the scalar oracle's argument order for
    benchmark tie-breaks: ``True`` evaluates ``GpSim(target, g)``,
    ``False`` evaluates ``GpSim(g, target)``.
    """
    if len(target) == 0:
        raise MiningError("cannot compare empty groups")
    if not others:
        return np.zeros(0, dtype=np.float64)
    offsets = _group_offsets(others)
    packed = FeatureMatrix.concatenate(list(others))
    cross = cross_stsim(target, packed, weights=weights)
    out = np.empty(len(others), dtype=np.float64)
    for g in range(len(others)):
        sub = cross[:, offsets[g] : offsets[g + 1]]
        out[g] = _reduce_block(sub, a_rows=target_first)
    return out


def group_pairwise_matrix(
    groups: Sequence[FeatureMatrix], weights=None
) -> np.ndarray:
    """``out[i, j] = GpSim(groups[i], groups[j])`` for every ordered pair.

    All member shots are packed once and a single chunked cross-StSim
    feeds every block reduction.  The matrix is asymmetric only where
    the scalar oracle is: equal-sized groups benchmark on the first
    argument, so ``out[i, j]`` and ``out[j, i]`` can differ there —
    callers that want the scalar upper-triangle semantics read
    ``out[i, j]`` with ``i < j`` and mirror it themselves.
    """
    n = len(groups)
    out = np.empty((n, n), dtype=np.float64)
    if n == 0:
        return out
    offsets = _group_offsets(groups)
    packed = FeatureMatrix.concatenate(list(groups))
    cross = cross_stsim(packed, packed, weights=weights)
    for i in range(n):
        rows = slice(offsets[i], offsets[i + 1])
        for j in range(n):
            sub = cross[rows, offsets[j] : offsets[j + 1]]
            out[i, j] = _reduce_block(sub, a_rows=True)
    return out


# ---------------------------------------------------------------------------
# Combined-vector kernels (database layer: 256-d histogram ‖ 10-d texture).
# ---------------------------------------------------------------------------


def combined_stsim_to_many(
    query: np.ndarray,
    matrix: np.ndarray,
    weights=None,
    histogram_dim: int = HISTOGRAM_DIM,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Eq. (1) of one combined 266-d query against stacked entries.

    Mirrors :func:`repro.database.index.feature_similarity` without the
    per-entry Python dispatch: one call scores a whole candidate block.
    ``rows`` restricts the scan to those row indices of ``matrix`` (in
    the given order), gathered chunk by chunk.
    """
    query = np.asarray(query, dtype=np.float64)
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    return _stsim_rows(
        query[:histogram_dim],
        query[histogram_dim:],
        matrix[:, :histogram_dim],
        matrix[:, histogram_dim:],
        weights,
        rows,
    )


def intersection_to_many(
    query: np.ndarray, matrix: np.ndarray, rows: np.ndarray | None = None
) -> np.ndarray:
    """Plain ``min``-sum of a query against stacked (already-reduced) rows.

    The reduced-sub-space branch of ``feature_similarity``: both sides
    are restricted to a node's discriminating dimensions before the
    call.  ``rows`` restricts the scan to those row indices of
    ``matrix`` (in the given order), gathered chunk by chunk.
    """
    query = np.asarray(query, dtype=np.float64)
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    count = matrix.shape[0] if rows is None else rows.shape[0]
    out = np.empty(count, dtype=np.float64)
    for start, stop, scratch in scan_chunks(count, matrix.shape[1]):
        pick = slice(start, stop) if rows is None else rows[start:stop]
        np.minimum(query, matrix[pick], out=scratch).sum(axis=1, out=out[start:stop])
    KERNEL_STATS.pair_evals += count
    return out


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` best scores, best first, ties by index.

    Exactly the first ``k`` positions ``list.sort(key=score,
    reverse=True)`` leaves at the head of a list held in index order (a
    stable descending sort), without sorting more than the winners and
    the ties at the cut.
    """
    scores = np.asarray(scores, dtype=np.float64)
    count = scores.shape[0]
    k = max(0, min(int(k), count))
    if k == 0:
        return np.empty(0, dtype=np.intp)
    if k < count:
        cut = np.partition(scores, count - k)[count - k]
        keep = np.flatnonzero(scores >= cut)
        if keep.size > k:  # ties at the cut: the lowest indices win
            tied = np.flatnonzero(scores[keep] == cut)
            keep = np.delete(keep, tied[k - (keep.size - tied.size) :])
    else:
        keep = np.arange(count)
    return keep[np.argsort(-scores[keep], kind="stable")]


def quantized_intersection_to_many(
    query_codes: np.ndarray,
    codes: np.ndarray,
    scale: np.ndarray,
    offset_total: float,
) -> np.ndarray:
    """Approximate ``min``-sum over per-dimension affine uint8 codes.

    Both sides carry the same scalar quantization
    ``value ≈ offset[d] + scale[d] * code`` with ``scale >= 0``, so the
    affine map commutes with the minimum and the intersection score
    decomposes exactly over the codes::

        sum_d min(deq(q_d), deq(x_d)) = sum_d scale_d * min(q_d, x_d)
                                      + sum_d offset_d

    The scan therefore touches only uint8 bytes (an 8x bandwidth
    reduction against the float64 sub-space scan) plus one matvec
    against the per-dim scales; ``offset_total`` is the precomputed
    ``sum_d offset_d``.  The result approximates
    :func:`intersection_to_many` up to quantization error — the ANN
    tier re-ranks survivors with the exact kernel.
    """
    query_codes = np.asarray(query_codes, dtype=np.uint8)
    codes = np.atleast_2d(np.asarray(codes, dtype=np.uint8))
    KERNEL_STATS.chunks += 1
    KERNEL_STATS.pair_evals += codes.shape[0]
    mins = np.minimum(query_codes[None, :], codes)
    scale = np.asarray(scale, dtype=np.float64)
    return mins.astype(np.float64) @ scale + float(offset_total)
