"""The array-native leaf scan against its scalar references.

Three pieces replaced per-row Python work: vectorised hash signatures,
``top_k`` and ordinal dedup across leaves.  Each is held here to the
scalar code it replaced — ``leaf_signature`` row by row, the stable
``list.sort`` and the key-set dedup of the pre-batch search (the oracle
``tests/database/test_query_batched.py`` keeps verbatim).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import top_k
from repro.database.index import (
    LeafHashIndex,
    ShotEntry,
    build_node,
    combine_features,
    leaf_signature,
    leaf_signatures,
    rows_by_signature,
)
from repro.database.query import search_hierarchical
from tests.database.test_query_batched import _scalar_search

#: Super-bin masses around the 0.1 threshold, with exact repeats so two
#: or more super-bins tie; 0.125 and 0.25 are dyadic, so 64 equal bins
#: sum to them exactly and the tie survives the summation.
_MASSES = st.sampled_from([0.0, 0.03125, 0.1, 0.125, 0.25, 0.5])


@st.composite
def feature_rows(draw):
    """``(N, 266)`` rows whose four super-bin masses are drawn from ``_MASSES``."""
    count = draw(st.integers(min_value=1, max_value=12))
    rows = np.zeros((count, 266))
    for row in rows:
        for quadrant in range(4):
            mass = draw(_MASSES)
            if draw(st.booleans()):
                row[64 * quadrant : 64 * (quadrant + 1)] = mass / 64
            else:  # all of it in one bin
                row[64 * quadrant + draw(st.integers(0, 63))] = mass
    return rows


class TestSignatures:
    @given(feature_rows())
    @settings(max_examples=150, deadline=None)
    def test_vectorised_equals_scalar_row_by_row(self, rows):
        vectorised = leaf_signatures(rows)
        for row, signature in zip(rows, vectorised):
            assert tuple(int(v) for v in signature) == leaf_signature(row)

    def test_random_histograms(self, rng):
        rows = rng.random((200, 266))
        rows[:, :256] /= rows[:, :256].sum(axis=1, keepdims=True)
        rows[::7, 64:192] = 0.0  # near-empty super-bins
        vectorised = leaf_signatures(rows)
        assert [tuple(int(v) for v in s) for s in vectorised] == [
            leaf_signature(row) for row in rows
        ]

    @given(feature_rows())
    @settings(max_examples=50, deadline=None)
    def test_buckets_hold_every_row_once_in_ascending_order(self, rows):
        signatures = leaf_signatures(rows)
        buckets = rows_by_signature(signatures)
        assert sorted(np.concatenate(list(buckets.values())).tolist()) == list(
            range(len(rows))
        )
        for signature, members in buckets.items():
            assert members.tolist() == sorted(members.tolist())
            assert all(leaf_signature(rows[i]) == signature for i in members)


class TestTopK:
    @given(
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.5, 0.75, 1.0]), max_size=40),
        st.integers(min_value=0, max_value=45),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_stable_list_sort_with_heavy_ties(self, values, k):
        scores = np.array(values, dtype=np.float64)
        expected = sorted(range(len(values)), key=lambda i: values[i], reverse=True)[:k]
        assert top_k(scores, k).tolist() == expected

    @given(
        st.lists(st.floats(min_value=-1.0, max_value=1.0), max_size=60),
        st.integers(min_value=0, max_value=70),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_stable_list_sort_on_floats(self, values, k):
        scores = np.array(values, dtype=np.float64)
        expected = sorted(range(len(values)), key=lambda i: values[i], reverse=True)[:k]
        assert top_k(scores, k).tolist() == expected

    def test_tie_straddling_the_cut_keeps_the_earliest(self):
        scores = np.array([0.5, 0.9, 0.5, 0.5, 0.1, 0.5])
        assert top_k(scores, 3).tolist() == [1, 0, 2]

    def test_empty_and_oversized_k(self):
        assert top_k(np.empty(0), 5).tolist() == []
        assert top_k(np.array([0.2, 0.2, 0.7]), 10).tolist() == [2, 0, 1]


def _entry(rng, shot_id: int, quadrant: int) -> ShotEntry:
    histogram = rng.random(256) * 0.1
    histogram[64 * quadrant : 64 * (quadrant + 1)] += 1.0
    histogram /= histogram.sum()
    return ShotEntry("v", shot_id, 0, combine_features(histogram, rng.random(10) * 0.3))


class TestCrossLeafDedup:
    def test_shared_entry_ranks_once_with_the_first_leafs_score(self, rng):
        """One ShotEntry filed under both visited leaves (hand-built, with ordinals)."""
        shared = _entry(rng, 100, 0)
        first = [_entry(rng, i, 0) for i in range(6)] + [shared]
        second = [shared] + [_entry(rng, 10 + i, 0) for i in range(6)]
        # Different populations: the two leaves score `shared` in different sub-spaces.
        leaves = [
            build_node("first", 1, entries=first, reduced_dim=16,
                       ordinals=np.array([0, 1, 2, 3, 4, 5, 100])),
            build_node("second", 1, entries=second, reduced_dim=16,
                       ordinals=np.array([100, 10, 11, 12, 13, 14, 15])),
        ]
        root = build_node("root", 0, children=leaves)
        query = shared.features
        result = search_hierarchical(root, query, k=20, beam=2)
        oracle_hits, oracle_stats = _scalar_search(root, query, k=20, beam=2)

        assert result.stats.visited_path == oracle_stats.visited_path
        assert result.stats.comparisons == oracle_stats.comparisons
        assert result.stats.ranked == oracle_stats.ranked == 13
        assert [hit.entry.key for hit in result.hits] == [
            hit.entry.key for hit in oracle_hits
        ]
        assert [hit.score for hit in result.hits] == [hit.score for hit in oracle_hits]
        keys = [hit.entry.key for hit in result.hits]
        assert keys.count(shared.key) == 1
        first_visited = next(
            leaf for leaf in leaves if leaf.name == result.stats.visited_path[1]
        )
        (shared_hit,) = [hit for hit in result.hits if hit.entry.key == shared.key]
        row = first_visited.leaf.entries.index(shared)
        assert shared_hit.score == first_visited.leaf.scan(query, np.array([row]))[0]

    def test_leaf_scan_matches_the_scalar_oracle_on_any_row_subset(self, rng):
        from repro.database.index import feature_similarity

        entries = [_entry(rng, i, i % 4) for i in range(40)]
        node = build_node("leaf", 1, entries=entries, reduced_dim=24)
        leaf: LeafHashIndex = node.leaf
        query = _entry(rng, 999, 2).features
        rows = np.array([3, 39, 0, 17])
        everything = leaf.scan(query)
        assert everything.tolist() == [
            feature_similarity(query, entry.features, dims=node.dims)
            for entry in entries
        ]
        assert leaf.scan(query, rows).tolist() == everything[rows].tolist()
