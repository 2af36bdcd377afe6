"""Regression: batched query scoring reproduces the scalar descent.

The hierarchical search now ranks leaf candidates and scores child
centres through the batched kernels.  These tests pin the contract the
serving metrics rely on: ``QueryStats.comparisons`` still counts
*logical* pair evaluations (identical to the pre-batch scalar path),
and hit ordering/scores are unchanged.  The scalar reference below is
the pre-batch implementation, kept verbatim as the oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.database.flat import FlatIndex
from repro.database.index import (
    IndexNode,
    LeafHashIndex,
    LeafRows,
    ShotEntry,
    build_node,
    combine_features,
    feature_similarity,
)
from repro.database.query import (
    QueryStats,
    RankedShot,
    search_hierarchical,
)
from tests.database.oracles import probe, route_child

TOLERANCE = 1e-9


def _random_entries(
    rng: np.random.Generator, video: str, scene_id: int, count: int
) -> list[ShotEntry]:
    entries = []
    for shot_id in range(count):
        histogram = rng.random(256)
        histogram /= histogram.sum()
        entries.append(
            ShotEntry(
                video_title=video,
                shot_id=scene_id * 1000 + shot_id,
                scene_id=scene_id,
                features=combine_features(histogram, rng.random(10) * 0.3),
            )
        )
    return entries


@pytest.fixture()
def index_tree(rng):
    """Root -> 2 clusters -> 4 scene leaves over random entries."""
    leaves = [
        build_node(f"scene-{i}", depth=2, entries=_random_entries(rng, "v", i, 12))
        for i in range(4)
    ]
    clusters = [
        build_node("cluster-a", depth=1, children=leaves[:2]),
        build_node("cluster-b", depth=1, children=leaves[2:]),
    ]
    return build_node("root", depth=0, children=clusters)


def _scalar_child_scores(node, features, stats):
    """Pre-batch `_child_scores`, kept as the oracle."""
    scored = []
    for child in node.children:
        if child.centers is None:
            continue
        best = -np.inf
        for center in child.centers:
            value = feature_similarity(features, center)
            stats.comparisons += 1
            if value > best:
                best = value
        scored.append((best, child))
    return scored


def _scalar_search(root, features, k=10, allowed_leaves=None, beam=2):
    """Pre-batch `search_hierarchical`, kept verbatim as the oracle."""
    stats = QueryStats()
    stats.visited_path.append(root.name)
    frontier = [root]
    leaves = []
    while frontier:
        next_frontier = []
        for node in frontier:
            if node.is_leaf:
                leaves.append(node)
                continue
            next_frontier.extend(_scalar_child_scores(node, features, stats))
        if not next_frontier:
            break
        next_frontier.sort(key=lambda item: item[0], reverse=True)
        frontier = [child for _, child in next_frontier[:beam]]
        for node in frontier:
            stats.visited_path.append(node.name)
    if allowed_leaves is not None:
        leaves = [leaf for leaf in leaves if leaf.name in allowed_leaves]
    scored = []
    seen = set()
    for leaf in leaves:
        for entry in probe(leaf.leaf, features):
            if entry.key in seen:
                continue
            seen.add(entry.key)
            scored.append(
                RankedShot(
                    entry=entry,
                    score=feature_similarity(features, entry.features, dims=leaf.dims),
                )
            )
            stats.comparisons += 1
    scored.sort(key=lambda hit: hit.score, reverse=True)
    stats.ranked = len(scored)
    return scored[:k], stats


def _query(rng) -> np.ndarray:
    histogram = rng.random(256)
    histogram /= histogram.sum()
    return combine_features(histogram, rng.random(10) * 0.3)


class TestBatchedSearchRegression:
    @pytest.mark.parametrize("beam", [1, 2, 4])
    def test_same_comparisons_and_ordering(self, rng, index_tree, beam):
        for _ in range(5):
            features = _query(rng)
            batched = search_hierarchical(index_tree, features, k=8, beam=beam)
            hits, stats = _scalar_search(index_tree, features, k=8, beam=beam)
            assert batched.stats.comparisons == stats.comparisons
            assert batched.stats.ranked == stats.ranked
            assert batched.stats.visited_path == stats.visited_path
            assert [h.entry.key for h in batched.hits] == [
                h.entry.key for h in hits
            ]
            for got, want in zip(batched.hits, hits):
                assert got.score == pytest.approx(want.score, abs=TOLERANCE)

    def test_access_filtered_descent(self, rng, index_tree):
        allowed = {"scene-1", "scene-3"}
        features = _query(rng)
        batched = search_hierarchical(
            index_tree, features, k=5, allowed_leaves=set(allowed), beam=4
        )
        hits, stats = _scalar_search(
            index_tree, features, k=5, allowed_leaves=allowed, beam=4
        )
        assert batched.stats.comparisons == stats.comparisons
        assert [h.entry.key for h in batched.hits] == [h.entry.key for h in hits]
        assert all(h.entry.scene_id in (1, 3) for h in batched.hits)


class TestRouteChildRegression:
    def test_comparisons_count_logical_pairs(self, rng, index_tree):
        features = _query(rng)
        child, comparisons = route_child(index_tree, features)
        stats = QueryStats()
        scored = _scalar_child_scores(index_tree, features, stats)
        assert comparisons == stats.comparisons
        best_score, best_child = max(scored, key=lambda item: item[0])
        assert child is best_child

    def test_empty_branch_skipped(self, rng):
        populated = build_node(
            "scene", depth=1, entries=_random_entries(rng, "v", 0, 4)
        )
        empty = IndexNode(name="empty", depth=1, leaf=None)
        root = IndexNode(name="root", depth=0, children=[empty, populated])
        child, comparisons = route_child(root, _query(rng))
        assert child is populated
        assert comparisons == populated.centers.shape[0]


class TestFlatScanRegression:
    def test_same_counts_and_ordering(self, rng):
        entries = _random_entries(rng, "v", 0, 30)
        # Two leaves, interleaved ordinals: the scan scatters by ordinal.
        flat = FlatIndex(
            [
                LeafHashIndex(LeafRows.from_entries(entries[0::2], np.arange(0, 30, 2))),
                LeafHashIndex(LeafRows.from_entries(entries[1::2], np.arange(1, 30, 2))),
            ]
        )
        features = _query(rng)
        result = flat.search(features, k=10)
        assert result.stats.comparisons == len(entries)
        assert result.stats.ranked == len(entries)
        expected = sorted(
            (
                RankedShot(entry=e, score=feature_similarity(features, e.features))
                for e in entries
            ),
            key=lambda hit: hit.score,
            reverse=True,
        )
        assert [h.entry.key for h in result.hits] == [
            h.entry.key for h in expected[:10]
        ]
        for got, want in zip(result.hits, expected):
            assert got.score == pytest.approx(want.score, abs=TOLERANCE)

    def test_insert_invalidates_cached_matrix(self, rng):
        # A flat index is a view over sealed leaves: a registration gives
        # the database a new one, the view handed out before keeps its rows.
        from repro.database.catalog import VideoDatabase
        from repro.types import EventKind

        entries = _random_entries(rng, "v", 0, 6)
        database = VideoDatabase()
        database.register_entries(
            "first", [(0, EventKind.DIALOG, [e.features for e in entries[:5]])]
        )
        before = database.flat_index
        assert before.search(_query(rng)).stats.comparisons == 5
        database.register_entries("second", [(0, EventKind.DIALOG, [entries[5].features])])
        assert database.flat_index.search(_query(rng)).stats.comparisons == 6
        assert before.search(_query(rng)).stats.comparisons == 5
