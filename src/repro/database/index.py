"""Cluster-based hierarchical index (Sec. 2 and Sec. 6.2).

Two mechanisms, exactly as the paper prescribes:

* **Leaf nodes** (scene-level concepts) index their shots with a *hash
  table*: a coarse signature of the feature vector keys buckets, so a
  query probes one bucket (plus its neighbours) instead of every shot.
* **Non-leaf nodes** keep *multiple centres* — a single Gaussian cannot
  model a high-level concept made of several visual components — and a
  query descends through whichever child owns the best-matching centre.

Every node also records the *discriminating dimensions* of its feature
population (dimension reduction), so similarity inside a node is
computed on a sub-space: the paper's ``T_c, T_sc, T_s, T_o <= T_m``.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.kernels import (
    column_sums,
    column_variances,
    combined_stsim_to_many,
    intersection_to_many,
    scan_chunks,
    squared_distances,
)
from repro.core.similarity import SimilarityWeights
from repro.database.hierarchy import ConceptLevel, ConceptNode
from repro.errors import DatabaseError

#: Shared Eq. (1) weights: resolved from the core defaults so the index
#: and the mining layer cannot drift apart.
_DEFAULT_WEIGHTS = SimilarityWeights()

#: Number of centres kept per non-leaf node.
DEFAULT_CENTERS = 4
#: Dimensions retained by per-node dimension reduction.
DEFAULT_REDUCED_DIM = 64
#: Histogram bins folded into the leaf hash signature.
SIGNATURE_BINS = 4


class IndexStats:
    """Lock-free hot-path counters for the hierarchical index.

    Plain attribute increments (same GIL-approximate trade as
    :class:`repro.core.kernels.KernelStats`): the descent must not pay
    a lock per query.  Published as read-time gauges through
    :func:`repro.obs.bridge.index_stats_collector`.
    """

    __slots__ = ("descents", "center_block_builds")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter."""
        self.descents = 0
        self.center_block_builds = 0

    def snapshot(self) -> dict[str, int]:
        """Point-in-time copy of the counters."""
        return {"descents": self.descents, "center_block_builds": self.center_block_builds}


#: Process-wide index counters (exported via the obs registry).
INDEX_STATS = IndexStats()


@dataclass(frozen=True)
class ShotEntry:
    """One indexed shot.

    Attributes
    ----------
    video_title / shot_id:
        Identity of the shot.
    scene_id:
        The mined scene it belongs to.
    features:
        Concatenated 256-d histogram + 10-d texture (266-d); ``None`` on
        a hit that crossed a wire (:class:`~repro.serving.engine.QueryFront`).
    """

    video_title: str
    shot_id: int
    scene_id: int
    features: np.ndarray | None = field(repr=False, hash=False, compare=False)

    @property
    def key(self) -> tuple[str, int]:
        """Globally unique shot key."""
        return (self.video_title, self.shot_id)


def combine_features(histogram: np.ndarray, texture: np.ndarray) -> np.ndarray:
    """Concatenate the paper's two descriptors into one vector."""
    histogram = np.asarray(histogram, dtype=np.float64).ravel()
    texture = np.asarray(texture, dtype=np.float64).ravel()
    return np.concatenate([histogram, texture])


def feature_similarity(
    a: np.ndarray,
    b: np.ndarray,
    dims: np.ndarray | None = None,
    weights: SimilarityWeights = _DEFAULT_WEIGHTS,
) -> float:
    """Eq. (1)-style similarity on (optionally reduced) feature vectors.

    Histogram part uses intersection; texture part uses the quadratic
    term, mixed with the shared :class:`SimilarityWeights` defaults
    (W_C = 0.7, W_T = 0.3) so index and core weights stay one value.
    When ``dims`` is given both vectors are restricted to those
    dimensions first (the node's discriminating sub-space).
    """
    if dims is not None:
        # Reduced sub-space: intersection kernel over the retained dims.
        a = a[dims]
        b = b[dims]
        return float(np.minimum(a, b).sum())
    color = float(np.minimum(a[:256], b[:256]).sum())
    texture = max(1.0 - float(((a[256:] - b[256:]) ** 2).sum()), 0.0)
    return weights.color * color + weights.texture * texture


def feature_similarity_batch(
    features: np.ndarray,
    matrix: np.ndarray,
    dims: np.ndarray | None = None,
    weights: SimilarityWeights = _DEFAULT_WEIGHTS,
) -> np.ndarray:
    """Batched :func:`feature_similarity`: one query against stacked rows.

    ``matrix`` is ``(M, 266)``; the result is ``(M,)`` with
    ``out[m] == feature_similarity(features, matrix[m], dims)`` to
    kernel precision.  One call replaces ``M`` interpreter dispatches —
    the Eq. (25) descent and the leaf ranking both run through here.
    """
    if dims is not None:
        return intersection_to_many(features[dims], matrix[:, dims])
    return combined_stsim_to_many(features, matrix, weights=weights)


def discriminating_dimensions(
    features: np.ndarray, keep: int = DEFAULT_REDUCED_DIM
) -> np.ndarray:
    """Pick the ``keep`` highest-variance dimensions of a population.

    This is the paper's dimension-reduction step: only dimensions that
    actually vary inside the node are worth comparing there.
    """
    features = np.atleast_2d(features)
    variances = column_variances(features)
    keep = min(keep, features.shape[1])
    return np.sort(np.argsort(variances)[::-1][:keep])


def leaf_signature(features: np.ndarray, bins: int = SIGNATURE_BINS) -> tuple[int, ...]:
    """Hash signature: which coarse histogram quadrants dominate.

    The 256-bin histogram is folded into ``bins`` super-bins; the
    signature lists the two heaviest super-bins, but a rank is only
    recorded when it carries real mass (> 0.1) — ties between
    near-empty super-bins would otherwise flip under feature noise.
    """
    histogram = features[:256]
    folded = histogram.reshape(bins, -1).sum(axis=1)
    order = np.argsort(folded)[::-1]
    signature = []
    for rank in order[:2]:
        signature.append(int(rank) if folded[rank] > 0.1 else -1)
    return tuple(signature)


def leaf_signatures(matrix: np.ndarray, bins: int = SIGNATURE_BINS) -> np.ndarray:
    """:func:`leaf_signature` of every row of ``matrix`` in one pass.

    Returns ``(N, 2)`` int64 with ``out[i] == leaf_signature(matrix[i])``
    (``tests/database/test_leaf_arrays.py`` holds the two together row
    by row, near-empty and exactly tied super-bins included): each
    super-bin is summed over its own contiguous columns and the ranks
    come from the same per-row ``argsort``.
    """
    matrix = np.atleast_2d(matrix)
    width = 256 // bins
    folded = np.stack(
        [matrix[:, b * width : (b + 1) * width].sum(axis=1) for b in range(bins)],
        axis=1,
    )
    top = np.argsort(folded, axis=1)[:, ::-1][:, :2]
    mass = np.take_along_axis(folded, top, axis=1)
    return np.where(mass > 0.1, top, -1)


def rows_by_signature(signatures: np.ndarray) -> dict[tuple[int, ...], np.ndarray]:
    """Hash buckets as ascending row-index arrays, keyed by signature."""
    if not signatures.shape[0]:
        return {}
    keys, inverse = np.unique(signatures, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    order = np.argsort(inverse, kind="stable")
    bounds = np.cumsum(np.bincount(inverse, minlength=keys.shape[0]))[:-1]
    return {tuple(int(v) for v in key): rows for key, rows in zip(keys, np.split(order, bounds))}


_NO_ROWS = np.empty(0, dtype=np.intp)


class LeafRows(NamedTuple):
    """One leaf's rows as columns, in insertion (= stored block-row) order.

    ``block`` is ``(n, 266)`` float64 — a RAM array for a registered
    corpus, a read-only mmap for an opened store; ``ordinals`` are the
    rows' flat ordinals (``None`` only in a hand-built tree whose leaves
    share no shot); ``titles`` is an object array, one ``str`` per video.
    """

    block: np.ndarray
    ordinals: np.ndarray | None
    titles: np.ndarray
    shot_ids: np.ndarray
    scene_ids: np.ndarray

    @classmethod
    def from_entries(
        cls, entries: Sequence[ShotEntry], ordinals: np.ndarray | None = None
    ) -> "LeafRows":
        """Columns of a list of entries (hand-built trees in tests and benches)."""
        return cls(
            block=np.stack([e.features for e in entries]) if entries else np.empty((0, 0)),
            ordinals=None if ordinals is None else np.asarray(ordinals, dtype=np.int64),
            titles=np.array([entry.video_title for entry in entries], dtype=object),
            shot_ids=np.array([entry.shot_id for entry in entries], dtype=np.int64),
            scene_ids=np.array([entry.scene_id for entry in entries], dtype=np.int64),
        )


def leaf_routing(
    block: np.ndarray,
    num_centers: int = DEFAULT_CENTERS,
    reduced_dim: int = DEFAULT_REDUCED_DIM,
) -> tuple[np.ndarray, np.ndarray]:
    """A leaf's routing ``(centers, dims)`` from its ``(n, 266)`` rows.

    The one place a leaf population is clustered and reduced: the index
    build, the SQL writer and, through the catalog, every shard worker's
    and the coordinator's view read what this returned, off the leaf.
    """
    return (
        _kcenters(block, num_centers),
        discriminating_dimensions(block, reduced_dim).astype(np.int64),
    )


class LeafHashIndex:
    """One scene-concept leaf of the corpus: rows, routing, hash table.

    ``len()`` is known from construction, and so is ``ann`` — the leaf's
    approximate tier: an ``AnnLeafIndex`` or ``None`` until
    ``repro.ann.index.resolve_ann`` trains one over this leaf (untyped so
    this layer does not import the ANN package).  Everything else is
    an array in insertion order, read-only once set:

    ``rows``: ``block`` / ``ordinals`` / ``titles`` / ``shot_ids`` / ``scene_ids``
        the :class:`LeafRows` columns — given (a registered corpus) or
        loaded by the ``rows`` callable (an opened store);
    ``centers`` / ``dims``
        the routing — :func:`leaf_routing` of the block unless the
        caller pins stored or full-corpus values;
    ``reduced``
        ``(N, |dims|)`` C-ordered float64 (what the ANN tier trains on and
        the catalog stores, uncopied) — every row restricted to the leaf's
        discriminating dimensions, the only feature bytes an exact scan
        touches (the paper's per-node reduced features, stored); made on its
        own first read, not on one of ``dims`` or ``signatures``, and a save
        that finds it unmade streams it into the block it writes (:meth:`adopt`);
    ``signatures`` / ``buckets``
        each row's hash signature, and the ascending row indices of
        every non-empty bucket (``buckets`` is made on its own first read:
        a save stores signatures, never buckets).

    Whatever was not given is made on its first read, once, under a
    lock, while racing readers wait: the columns by running ``rows``
    (a source returns its :class:`LeafRows` and whichever derived arrays
    it stores — an opened store maps ``reduced`` and reads ``signatures``
    instead of paging every 266-d row in to make them), the rest of the
    routing and hash state from the columns.  A flat scan therefore
    reads blocks and ordinals without clustering anything, and opening a
    store reads no row.

    :meth:`scan` is the one leaf scan every consumer runs (exact
    search, the ANN re-rank tail, shard workers); a :class:`ShotEntry`
    is built only for the rows that win (:meth:`entry`).
    """

    _COLUMNS = frozenset({"rows", "block", "ordinals", "titles", "shot_ids", "scene_ids"})
    _DERIVED = frozenset({"centers", "dims", "reduced", "signatures", "buckets"})

    def __init__(
        self,
        rows: LeafRows | Callable[[], tuple[LeafRows, Mapping[str, np.ndarray]]] | None = None,
        centers: np.ndarray | None = None,
        dims: np.ndarray | None = None,
        count: int | None = None,
        ann: object | None = None,
    ) -> None:
        self.ann = ann
        self._load_lock = threading.Lock()
        if dims is not None:
            self.centers, self.dims = centers, dims
        if callable(rows):
            self._count = count
            self._source = rows
        else:
            self._set_columns(LeafRows.from_entries([]) if rows is None else rows)

    def _set_columns(self, rows: LeafRows) -> None:
        self._count = rows.block.shape[0]
        self.rows = rows
        self.block, self.ordinals, self.titles, self.shot_ids, self.scene_ids = rows

    def _derive(self, name: str) -> None:
        """Routing (unless pinned) and signatures, and ``reduced`` or
        ``buckets`` only when it is what was read: what the source gave
        stays, the rest is made from the block, which may be a read-only
        mmap (only ``reduced`` copies out of it, and no temporary is)."""
        block, given = self.block, self.__dict__
        if "dims" not in given:
            self.centers, self.dims = leaf_routing(block) if len(self) else (None, None)
        if name == "reduced":
            self.reduced = np.asarray(block).take(self.dims, axis=1) if len(self) else block
        if "signatures" not in given:
            self.signatures = leaf_signatures(block)
        if name == "buckets":
            self.buckets = rows_by_signature(self.signatures)

    def __getattr__(self, name: str):
        # Reached only while ``name`` is not set: its first touch.
        if name not in self._COLUMNS and name not in self._DERIVED:
            raise AttributeError(name)
        with self._load_lock:
            if "block" not in self.__dict__:
                rows, stored = self._source()
                self._set_columns(rows)
                self.__dict__.update(stored)
            if name not in self.__dict__:
                self._derive(name)
        return self.__dict__[name]

    def __len__(self) -> int:
        return self._count

    def adopt(self, store) -> None:
        """Hand ``reduced`` to ``store(rows, shape)`` — a save's — and read the
        read-only block it returns from here on; one not set yet goes as row
        chunks gathered into the kernels' per-thread scratch, never whole."""
        block, dims = self.block, self.dims
        with self._load_lock:
            rows = self.__dict__.get("reduced")
            if rows is None:  # "clip": dims are in range, and ``out`` is written unbuffered
                rows = (
                    np.take(block[start:stop], dims, axis=1, out=scratch, mode="clip")
                    for start, stop, scratch in scan_chunks(len(self), dims.size)
                )
            self.reduced = store(rows, (len(self), dims.size))

    def entry(self, row: int) -> ShotEntry:
        """The shot stored at ``row`` (its features a view of the block)."""
        return ShotEntry(
            video_title=self.titles[row],
            shot_id=int(self.shot_ids[row]),
            scene_id=int(self.scene_ids[row]),
            features=self.block[row],
        )

    @property
    def entries(self) -> list[ShotEntry]:
        """Every shot in row order (materialises one object each)."""
        return [
            ShotEntry(*columns)
            for columns in zip(
                self.titles.tolist(), self.shot_ids.tolist(),
                self.scene_ids.tolist(), self.block,
            )
        ]

    def bucket_rows(self, features: np.ndarray) -> np.ndarray:
        """Rows of the query's signature bucket, ascending (maybe none)."""
        return self.buckets.get(leaf_signature(features), _NO_ROWS)

    def candidate_rows(self, features: np.ndarray) -> np.ndarray | None:
        """Rows an exact probe ranks: the query's bucket, or ``None``
        (every row, in insertion order) when that bucket is empty.

        A shard worker applies it to its local rows, and the coordinator
        to the shards' bucket sizes: a shard's rows count where its
        bucket is non-empty, or where every shard's is empty."""
        rows = self.bucket_rows(features)
        return rows if rows.size else None

    def scan(self, features: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """Exact scores of ``rows`` (``None``: every row) for a 266-d query.

        The leaf scan entry point: one blocked ``min``-sum over the
        reduced block, bit-identical row by row to
        ``feature_similarity(features, row, dims=dims)``.
        """
        return intersection_to_many(features[self.dims], self.reduced, rows)


@dataclass(frozen=True)
class CenterBlock:
    """Stacked routing centres of a node's populated children.

    ``centers[offsets[c]:offsets[c + 1]]`` are the centres of
    ``children[c]``; one batched kernel call scores them all.
    """

    centers: np.ndarray = field(repr=False)
    children: tuple["IndexNode", ...]
    offsets: np.ndarray = field(repr=False)


@dataclass
class IndexNode:
    """One node of the hierarchical index tree.

    Non-leaf nodes route via ``centers``; leaf nodes hold a
    :class:`LeafHashIndex`.
    """

    name: str
    depth: int
    children: list["IndexNode"] = field(default_factory=list)
    centers: np.ndarray | None = field(default=None, repr=False)
    dims: np.ndarray | None = field(default=None, repr=False)
    leaf: LeafHashIndex | None = None
    _center_block: CenterBlock | None = field(default=None, repr=False, compare=False)

    @property
    def is_leaf(self) -> bool:
        """True for scene-concept leaves."""
        return self.leaf is not None

    def iter_leaves(self):
        """Every leaf node under (or at) this node, left to right."""
        if self.is_leaf:
            yield self
        for child in self.children:
            yield from child.iter_leaves()

    def center_block(self) -> CenterBlock | None:
        """Cached stacked centres of populated children (None if none).

        The catalog never mutates a built tree in place — registration
        invalidates and rebuilds — so the cache lives as long as the
        node.  A snapshot build pre-warms it, and only it, for the
        serving hot path (:func:`~repro.serving.snapshot.build_snapshot`).
        """
        if self._center_block is None:
            populated = tuple(child for child in self.children if child.centers is not None)
            if not populated:
                return None
            INDEX_STATS.center_block_builds += 1
            offsets = np.zeros(len(populated) + 1, dtype=np.intp)
            np.cumsum([c.centers.shape[0] for c in populated], out=offsets[1:])
            self._center_block = CenterBlock(
                centers=np.concatenate([c.centers for c in populated]),
                children=populated,
                offsets=offsets,
            )
        return self._center_block


def _kcenters(features: np.ndarray, k: int) -> np.ndarray:
    """Greedy k-centre selection (farthest-point), then mean refinement.

    Deterministic and adequate for routing; the paper only requires
    "multiple centres", not an optimal clustering.  Distances and member
    means stream through the kernels' scratch, bit for bit.
    """
    features = np.atleast_2d(features)
    n = features.shape[0]
    k = max(1, min(k, n))
    chosen, nearest = [0], np.full(n, np.inf)
    distances = []  # to each chosen centre: the walk makes k - 1, the Lloyd step reuses them
    while len(chosen) < k:
        distances.append(squared_distances(features[chosen[-1]], features))
        np.minimum(nearest, distances[-1], out=nearest)
        chosen.append(int(np.argmax(nearest)))
    centers = features[chosen]
    distances.append(squared_distances(centers[-1], features))
    # One Lloyd step: assign and average.
    assignment = np.argmin(np.stack(distances), axis=0)
    for c in range(k):
        members = np.flatnonzero(assignment == c)
        if members.size:
            centers[c] = column_sums(features, members) / members.size
    return centers


def leaf_node(name: str, depth: int, leaf: LeafHashIndex) -> IndexNode:
    """The index node of a leaf (its routing rides along)."""
    return IndexNode(name, depth, centers=leaf.centers, dims=leaf.dims, leaf=leaf)


def build_node(
    name: str,
    depth: int,
    children: list[IndexNode] | None = None,
    entries: list[ShotEntry] | None = None,
    num_centers: int = DEFAULT_CENTERS,
    reduced_dim: int = DEFAULT_REDUCED_DIM,
    ordinals: np.ndarray | None = None,
) -> IndexNode:
    """Construct a leaf (from entries) or internal node (from children).

    ``ordinals`` are a leaf's per-entry flat ordinals (see
    :class:`LeafRows`).  The catalog builds its leaves from columns, not
    entries (:func:`build_index_tree`); the entry form is for hand-built
    trees.
    """
    if (children is None) == (entries is None):
        raise DatabaseError("a node needs either children or entries, not both")
    if entries is not None:
        rows = LeafRows.from_entries(entries, ordinals)
        centers, dims = (
            leaf_routing(rows.block, num_centers, reduced_dim) if entries else (None, None)
        )
        return leaf_node(name, depth, LeafHashIndex(rows, centers, dims))

    node = IndexNode(name=name, depth=depth, children=list(children or []))
    populations = []
    for child in node.children:
        if child.centers is not None:
            populations.append(child.centers)
    if populations:
        stacked = np.vstack(populations)
        node.centers = _kcenters(stacked, num_centers)
        node.dims = discriminating_dimensions(stacked, reduced_dim)
    return node


def build_index_tree(
    concept: ConceptNode, leaves: Mapping[str, LeafHashIndex]
) -> IndexNode | None:
    """The index tree mirroring the concept hierarchy over ``leaves``.

    The one concept-tree walk: a registered corpus, an opened store and
    the coordinator's routing tree differ only in what their leaves
    hold.  Concepts with no leaf below them are left out (``None``).
    """
    if concept.level is ConceptLevel.SCENE or not concept.children:
        leaf = leaves.get(concept.name)
        return None if leaf is None else leaf_node(concept.name, concept.level.depth, leaf)
    children = [
        node
        for child in concept.children
        if (node := build_index_tree(child, leaves)) is not None
    ]
    if not children:
        return None
    return build_node(concept.name, concept.level.depth, children=children)
