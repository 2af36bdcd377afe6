"""Per-leaf IVF index: coarse cells + uint8 codes + exact re-rank rows.

One :class:`AnnLeafIndex` shadows one scene-concept leaf.  It is built
over the leaf's packed population in **insertion order** (the same row
order of :attr:`~repro.database.index.LeafHashIndex.reduced`),
restricted to the leaf's discriminating sub-space:

* ``centroids`` — seeded k-means cells over the reduced rows;
* ``assign`` — each row's cell (the inverted lists, kept as one flat
  array so membership tests are a vectorised ``isin``);
* ``codes`` + ``scale``/``offset`` — per-dim scalar-quantized uint8
  codes of the reduced rows;
* ``sigs`` — each row's leaf-hash signature: the leaf's own
  ``signatures`` array (shared, not copied); the
  bucket row sets are the leaf's ``buckets``, not a second table.

Bit-identity contract
---------------------
:meth:`AnnLeafIndex.search_rows` returns surviving row indices in
**ascending row order** — the exact path's candidate order.  With
``nprobe >= cells`` no cell is pruned, and with an unbounded re-rank
tail (``rerank_k=None``) no approximate score is even computed: the
survivors are precisely the rows the exact scan would visit, in the
same order, so exact scoring and the global stable sort reproduce the
exact path bit for bit.  The uint8 scan runs only
when it can prune (a finite ``rerank_k`` below the candidate count);
its evaluations are reported so ``QueryStats.approx_comparisons`` stays
honest.
"""

from __future__ import annotations

import numpy as np

from repro.ann.quantizer import (
    ANN_SEED,
    DEFAULT_ANN_CELLS,
    kmeans_cells,
    quantize_queries,
    scalar_quantize,
)
from repro.core.kernels import (
    intersection_to_many,
    quantized_intersection_to_many,
)
from repro.database.index import leaf_signatures

#: Default cells probed per leaf when a query enables the ANN tier.
#: Half the trained cells: recall@10 on the synthetic corpus is ~0.97 here
#: (``recall_at_10`` on the layered benchmark's ``ann_probe`` workload).
DEFAULT_NPROBE = 8

#: Default exact-re-rank tail length (None would mean "all survivors").
DEFAULT_RERANK_K = 32


class AnnLeafIndex:
    """IVF cells + scalar codes over one leaf's reduced feature rows."""

    __slots__ = (
        "dims",
        "centroids",
        "assign",
        "codes",
        "scale",
        "offset",
        "offset_total",
        "sigs",
    )

    def __init__(
        self,
        dims: np.ndarray,
        centroids: np.ndarray,
        assign: np.ndarray,
        codes: np.ndarray,
        scale: np.ndarray,
        offset: np.ndarray,
        sigs: np.ndarray,
    ) -> None:
        self.dims = np.asarray(dims, dtype=np.int64)
        self.centroids = np.atleast_2d(np.asarray(centroids, dtype=np.float64))
        self.assign = np.asarray(assign, dtype=np.int64)
        self.codes = np.atleast_2d(np.asarray(codes, dtype=np.uint8))
        self.scale = np.asarray(scale, dtype=np.float64)
        self.offset = np.asarray(offset, dtype=np.float64)
        self.offset_total = float(self.offset.sum())
        self.sigs = np.atleast_2d(np.asarray(sigs, dtype=np.int64))

    @property
    def n_cells(self) -> int:
        """Trained coarse cells."""
        return int(self.centroids.shape[0])

    def digest(self) -> str:
        """Content digest over every array (determinism probe)."""
        import hashlib  # here, not at module level: a shard worker hashes nothing
        hasher = hashlib.sha256()
        for array in (
            self.dims, self.centroids, self.assign,
            self.codes, self.scale, self.offset, self.sigs,
        ):
            hasher.update(str(array.shape).encode())
            hasher.update(np.ascontiguousarray(array).tobytes())
        return hasher.hexdigest()

    def search_rows(
        self,
        features: np.ndarray,
        rows: np.ndarray,
        nprobe: int,
        rerank_k: int | None = None,
    ) -> tuple[np.ndarray, int]:
        """The survivors among ``rows`` for one query, in ascending row order.

        ``rows`` are the ascending rows the caller would scan exactly:
        the query's bucket, or every row.  Returns ``(rows, approx_evals)``: the rows the exact re-rank
        tail must score, plus the number of quantized-code evaluations
        performed (0 when the uint8 scan could not prune anything and
        was skipped).
        """
        if rows.size == 0:
            return rows, 0
        nprobe = max(1, int(nprobe))
        query = np.asarray(features, dtype=np.float64)[self.dims]
        if nprobe < self.n_cells:
            cell_scores = intersection_to_many(query, self.centroids)
            probed = np.lexsort(
                (np.arange(self.n_cells), -cell_scores)
            )[:nprobe]
            rows = rows[np.isin(self.assign[rows], probed)]
            if rows.size == 0:
                return rows, 0
        if rerank_k is None or int(rerank_k) >= rows.size:
            # Nothing to prune: the exact tail scores every candidate,
            # so the approximate scan would be pure overhead.
            return rows, 0
        query_codes = quantize_queries(query, self.scale, self.offset)[0]
        approx = quantized_intersection_to_many(
            query_codes, self.codes[rows], self.scale, self.offset_total
        )
        evals = int(rows.size)
        # Top rerank_k by approximate score, ascending-row tie-break,
        # then back to ascending row order for the exact tail.
        top = np.lexsort((rows, -approx))[: int(rerank_k)]
        return np.sort(rows[top]), evals


def build_leaf_ann(
    population: np.ndarray,
    dims: np.ndarray,
    cells: int = DEFAULT_ANN_CELLS,
    seed: int = ANN_SEED,
) -> AnnLeafIndex:
    """Train one leaf's ANN index from its packed ``(N, 266)`` rows.

    ``population`` must be in leaf insertion order; ``dims`` is the
    leaf's discriminating sub-space.  Fully deterministic: same rows,
    dims, cells and seed give byte-identical state in any process (see
    ``AnnLeafIndex.digest``).
    """
    population = np.atleast_2d(np.asarray(population, dtype=np.float64))
    dims = np.asarray(dims, dtype=np.int64)
    return _train(population.take(dims, axis=1), leaf_signatures(population), dims, cells, seed)


def _train(
    reduced: np.ndarray, sigs: np.ndarray, dims: np.ndarray, cells: int, seed: int
) -> AnnLeafIndex:
    """Cells and codes over a leaf's reduced rows and row signatures."""
    reduced = np.ascontiguousarray(reduced, dtype=np.float64)
    centroids, assign = kmeans_cells(reduced, cells=cells, seed=seed)
    codes, scale, offset = scalar_quantize(reduced)
    return AnnLeafIndex(
        dims=dims,
        centroids=centroids,
        assign=assign,
        codes=codes,
        scale=scale,
        offset=offset,
        sigs=sigs,
    )


def train_leaf_ann(leaf) -> AnnLeafIndex:
    """Train the ANN index of a :class:`~repro.database.index.LeafHashIndex`.

    The leaf already holds what training reads — its reduced block and
    its row signatures — so the state equals
    ``build_leaf_ann(leaf.block, leaf.dims)`` without gathering either
    again.
    """
    return _train(
        leaf.reduced, leaf.signatures, leaf.dims, DEFAULT_ANN_CELLS, ANN_SEED
    )


def resolve_ann(node) -> AnnLeafIndex | None:
    """The leaf node's ANN index, or None when the leaf has no rows.

    The tier lives on the leaf (``node.leaf.ann``), so it outlives the
    tree: a cached :class:`AnnLeafIndex`, else one trained from what the
    leaf holds (:func:`train_leaf_ann`) and cached.  A concurrent build
    races benignly — both produce identical state.  Nothing is stored,
    so the tier fails only where the leaf's own blocks do, with their
    typed errors.
    """
    leaf = node.leaf
    if leaf is None or len(leaf) == 0:
        return None
    if leaf.ann is None:
        leaf.ann = train_leaf_ann(leaf)
    return leaf.ann
