"""Query processing over the hierarchical index (Sec. 6.2).

A query descends the tree — root -> cluster -> subcluster -> scene
leaf — comparing only against each level's centres, then probes the
leaf's hash bucket and ranks the candidates.  The returned
:class:`QueryStats` counts the similarity computations so the Eq. (25)
cost model can be verified against the implementation.
"""

from __future__ import annotations

import time
from collections.abc import Sequence, Set as AbstractSet
from dataclasses import dataclass, field
from itertools import count, repeat
from operator import neg
from typing import NamedTuple

import numpy as np

from repro.core.kernels import top_k
from repro.database.index import (
    INDEX_STATS,
    IndexNode,
    ShotEntry,
    feature_similarity_batch,
)
from repro.errors import DatabaseError
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer


@dataclass(frozen=True)
class RankedShot:
    """One search hit."""

    entry: ShotEntry
    score: float


@dataclass
class QueryStats:
    """Work accounting for one query.

    Attributes
    ----------
    comparisons:
        Exact feature-similarity evaluations performed.
    ranked:
        Candidates that entered the ranking step.
    visited_path:
        Names of the index nodes the query descended through.
    elapsed_seconds:
        Duration of the search, measured with ``time.perf_counter()``.
        The clock is monotonic and sub-millisecond accurate, so serving
        latency histograms built from it can never go negative when the
        system wall clock steps (NTP adjustments, DST).
    approx_comparisons:
        Quantized-code (uint8) evaluations performed by the ANN tier
        (0 whenever ``nprobe`` is off or the scan could not prune).
    reranked:
        Leaf candidates the ANN tier's exact re-rank tail scored.
    """

    comparisons: int = 0
    ranked: int = 0
    visited_path: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    approx_comparisons: int = 0
    reranked: int = 0


@dataclass
class QueryResult:
    """Hits plus stats."""

    hits: list[RankedShot]
    stats: QueryStats

    @property
    def top(self) -> RankedShot:
        """Best hit; raises when the search came back empty."""
        if not self.hits:
            raise DatabaseError("query returned no hits")
        return self.hits[0]


def _child_scores(
    node: IndexNode, features: np.ndarray, stats: QueryStats
) -> list[tuple[float, IndexNode]]:
    """Best-centre score of every populated child.

    The node's children stack their centres per level
    (:meth:`~repro.database.index.IndexNode.center_block`), so one
    batched kernel call scores them all; ``stats.comparisons`` still
    counts every logical centre evaluation.
    """
    block = node.center_block()
    if block is None:
        return []
    scores = feature_similarity_batch(features, block.centers)
    stats.comparisons += int(scores.shape[0])
    return [
        (float(scores[block.offsets[c] : block.offsets[c + 1]].max()), child)
        for c, child in enumerate(block.children)
    ]


class LeafProbe(NamedTuple):
    """One source's ``k`` best of one leaf, and the work behind them.

    A source is a whole leaf in process, a shard's share of one, or a
    shard's whole flat or scene index (``bucket`` 0).  ``keys`` order
    ties: leaf rows in process, global ordinals (scenes: ``[title,
    scene_id]``) on the wire, where ``items`` carry the hits' identities.
    """

    bucket: int
    count: int
    approx: int = 0
    reranked: int = 0
    keys: Sequence = ()
    scores: Sequence[float] = ()
    items: Sequence = ()


def probe_leaf(
    node: IndexNode,
    features: np.ndarray,
    k: int,
    nprobe: int | None = None,
    rerank_k: int | None = None,
    tracer: Tracer | NullTracer = NULL_TRACER,
) -> LeafProbe:
    """Rank one leaf for a shot query, in process and on a shard worker.

    The leaf scans :meth:`~repro.database.index.LeafHashIndex.candidate_rows`
    and reports its bucket's true size, so a merge over shards can apply
    that rule at global scope.  With ``nprobe`` the ANN tier prunes those
    rows first; survivors keep ascending row order, so with nothing pruned
    the ANN path is the exact path.
    """
    leaf = node.leaf
    assert leaf is not None
    rows = leaf.candidate_rows(features)
    bucket = 0 if rows is None else int(rows.size)
    ann, approx = None, 0
    if nprobe is not None:
        from repro.ann.index import resolve_ann

        ann = resolve_ann(node)
        if ann is not None:
            with tracer.span("ann.prune") as prune_span:
                base = np.arange(len(leaf)) if rows is None else rows
                rows, approx = ann.search_rows(features, base, nprobe, rerank_k)
                prune_span.set(evals=approx, survivors=len(rows))
    scanned = len(leaf) if rows is None else int(rows.size)
    if not scanned:
        return LeafProbe(bucket, 0, approx, 0)
    with tracer.span("score.exact", rows=scanned):
        scores = leaf.scan(features, rows)
    best = top_k(scores, k)
    keys = (best if rows is None else rows[best]).tolist()
    reranked = scanned if ann is not None else 0
    return LeafProbe(bucket, scanned, approx, reranked, keys, scores[best].tolist())


def merge_probes(
    answers: Sequence[Sequence[LeafProbe]], k: int, stats: QueryStats
) -> list[tuple[int, LeafProbe, int]]:
    """The ``k`` best ``(leaf position, probe, index into it)`` of all answers.

    ``answers[position]`` holds every source's probe of that leaf.  Per
    leaf the sources with a non-empty bucket are kept, or all when none
    has one (``candidate_rows``'s rule at global scope), and their work
    sums into ``stats``.  Hits rank by (−score, leaf position, key): one
    unsharded scan's visit order, as each source's keys are an
    order-preserving subset of its leaf's — so its ``k`` best hold every
    winner it has.
    """
    ranked: list[tuple] = []
    for position, probes in enumerate(answers):
        for probe in [p for p in probes if p.bucket] or probes:
            stats.comparisons += probe.count
            stats.ranked += probe.count
            stats.approx_comparisons += probe.approx
            stats.reranked += probe.reranked
            # (−score, position, key) is unique, so the sort never looks further.
            ranked += zip(
                map(neg, probe.scores), repeat(position), probe.keys, count(), repeat(probe)
            )
    ranked.sort()
    return [(position, probe, index) for _, position, _, index, probe in ranked[:k]]


def search_hierarchical(
    root: IndexNode,
    features: np.ndarray,
    k: int = 10,
    allowed_leaves: AbstractSet[str] | None = None,
    beam: int = 2,
    nprobe: int | None = None,
    rerank_k: int | None = None,
) -> QueryResult:
    """Descend the index and rank shots in the most relevant leaves.

    Parameters
    ----------
    root:
        Index root node.
    features:
        266-d query feature vector.
    k:
        Number of hits to return.
    allowed_leaves:
        When given, only these leaf names may be entered (the access
        controller passes the caller's permitted concepts here).  If the
        descent reaches no permitted leaf, the most similar permitted
        leaf is used instead; with none permitted, the search returns
        empty.
    beam:
        Descent width: the top ``beam`` children are followed at each
        level.  Width 1 is the cheapest greedy descent; the default of
        2 recovers almost all the exhaustive scan's accuracy on
        visually overlapping subject areas for a small extra cost.
    nprobe:
        None (the default) keeps every leaf scan exact.  An integer
        enables the ANN tier: only candidates in the query's best
        ``nprobe`` coarse cells are considered per leaf, and survivors
        are re-ranked with the exact kernel.  ``nprobe >= cells``
        prunes nothing, so (with ``rerank_k=None``) results are
        bit-identical to the exact path.
    rerank_k:
        Length of the exact re-rank tail per leaf.  None re-ranks every
        surviving candidate exactly — which makes the final ranking the
        exact ranking restricted to the probed candidate set, so recall
        grows monotonically in ``nprobe``.
    """
    if beam < 1:
        raise DatabaseError("beam must be >= 1")
    if nprobe is not None and nprobe < 1:
        raise DatabaseError("nprobe must be >= 1 (or None for exact)")
    if rerank_k is not None and rerank_k < 1:
        raise DatabaseError("rerank_k must be >= 1 (or None for all)")
    start = time.perf_counter()
    INDEX_STATS.descents += 1
    stats = QueryStats()
    leaves = descend_to_leaves(root, features, stats, allowed_leaves, beam)
    if not leaves:
        if allowed_leaves is not None:
            stats.elapsed_seconds = time.perf_counter() - start
            return QueryResult(hits=[], stats=stats)
        raise DatabaseError("descent reached no populated leaf")

    probes = [[probe_leaf(node, features, k, nprobe, rerank_k)] for node in leaves]
    # Only the winners become objects.
    hits = [
        RankedShot(leaves[position].leaf.entry(probe.keys[index]), probe.scores[index])
        for position, probe, index in merge_probes(probes, k, stats)
    ]
    stats.elapsed_seconds = time.perf_counter() - start
    return QueryResult(hits=hits, stats=stats)


def descend_to_leaves(
    root: IndexNode,
    features: np.ndarray,
    stats: QueryStats,
    allowed_leaves: AbstractSet[str] | None = None,
    beam: int = 2,
) -> list[IndexNode]:
    """The Eq. (25) beam descent, separated from leaf ranking.

    Appends every visited node to ``stats.visited_path`` and counts the
    centre comparisons into ``stats.comparisons``, exactly as
    :func:`search_hierarchical` does — the scatter-gather coordinator
    runs this same descent over its routing-metadata tree so a sharded
    query visits (and pays for) the identical node sequence.  Returns
    the reached leaves in visit order, or an empty list when an access
    scope permits none of them.
    """
    if beam < 1:
        raise DatabaseError("beam must be >= 1")
    stats.visited_path.append(root.name)
    frontier: list[IndexNode] = [root]
    leaves: list[IndexNode] = []
    while frontier:
        next_frontier: list[tuple[float, IndexNode]] = []
        for node in frontier:
            if node.is_leaf:
                leaves.append(node)
                continue
            next_frontier.extend(_child_scores(node, features, stats))
        if not next_frontier:
            break
        next_frontier.sort(key=lambda item: item[0], reverse=True)
        frontier = [child for _, child in next_frontier[:beam]]
        for node in frontier:
            stats.visited_path.append(node.name)

    if allowed_leaves is not None:
        leaves = [leaf for leaf in leaves if leaf.name in allowed_leaves]
        if not leaves:
            fallback = _best_permitted_leaf(root, features, allowed_leaves, stats)
            if fallback is None:
                return []
            leaves = [fallback]
            stats.visited_path.append(fallback.name)
    return leaves


def _best_permitted_leaf(
    root: IndexNode,
    features: np.ndarray,
    allowed: AbstractSet[str],
    stats: QueryStats,
) -> IndexNode | None:
    """Fallback: the permitted leaf whose centres best match the query.

    Permitted leaf centres are stacked and scored in one batched kernel
    call; the first-best tie-break matches the scalar scan.
    """
    leaves = [
        leaf
        for leaf in root.iter_leaves()
        if leaf.name in allowed and leaf.centers is not None
    ]
    if not leaves:
        return None
    centers = np.concatenate([leaf.centers for leaf in leaves])
    counts = [leaf.centers.shape[0] for leaf in leaves]
    offsets = np.zeros(len(leaves) + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    scores = feature_similarity_batch(features, centers)
    stats.comparisons += int(scores.shape[0])
    best = int(np.argmax(scores))
    return leaves[int(np.searchsorted(offsets, best, side="right") - 1)]
