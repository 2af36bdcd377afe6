"""The array-native leaf scan against its scalar references.

Two pieces replaced per-row Python work: vectorised hash signatures and
``top_k``.  Each is held here to the scalar code it replaced —
``leaf_signature`` row by row and the stable ``list.sort``.
"""

from __future__ import annotations

import numpy as np
import pytest
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
from repro.storage import (
    SQLCatalog,
    SQLVideoDatabase,
    build_synthetic_database,
    save_database,
)
from tests.database.oracles import probe

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


class TestLeafScan:
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


@pytest.fixture(scope="module")
def registered():
    """The corpus as registered (leaves sealed in RAM)."""
    return build_synthetic_database(videos=16, shots_per_video=8, seed=3)


@pytest.fixture(scope="module", params=["ram", "stored"])
def corpus(request, registered, tmp_path_factory):
    """The same corpus behind each leaf source: built in RAM / opened from a saved store."""
    if request.param == "ram":
        yield registered
        return
    db_dir = tmp_path_factory.mktemp("leaf-contract")
    save_database(registered, db_dir)
    opened = SQLVideoDatabase.open(db_dir)
    yield opened
    opened.close()


class TestLeafContractBothSources:
    """One leaf contract: what ``query.py``, ``net/worker.py`` and
    ``ann/index.py`` read off a leaf, held to the scalar oracle and to the
    registered corpus's arrays whichever source the rows came from."""

    def test_columns_block_and_ordinals(self, corpus, registered):
        assert list(corpus.leaves) == list(registered.leaves)
        covered = []
        for name, leaf in corpus.leaves.items():
            want = registered.leaves[name]
            assert len(leaf) == len(want) == leaf.block.shape[0]
            assert leaf.block.dtype == np.float64 and leaf.block.shape[1] == 266
            for column in ("ordinals", "shot_ids", "scene_ids"):
                got = getattr(leaf, column)
                assert got.dtype == np.int64
                assert np.array_equal(got, getattr(want, column)), column
            assert leaf.titles.dtype == object
            assert leaf.titles.tolist() == want.titles.tolist()
            assert np.array_equal(leaf.block, want.block)
            assert np.array_equal(leaf.centers, want.centers)
            assert np.array_equal(leaf.dims, want.dims)
            covered.extend(leaf.ordinals.tolist())
        assert sorted(covered) == list(range(corpus.shot_count))

    def test_entry_is_the_row(self, corpus):
        for leaf in corpus.leaves.values():
            for row in (0, len(leaf) // 2, len(leaf) - 1):
                entry = leaf.entry(row)
                assert entry.key == (leaf.titles[row], int(leaf.shot_ids[row]))
                assert entry.scene_id == int(leaf.scene_ids[row])
                assert np.array_equal(entry.features, leaf.block[row])
            assert [e.key for e in leaf.entries] == list(
                zip(leaf.titles.tolist(), leaf.shot_ids.tolist())
            )

    def test_scan_and_buckets_match_the_scalar_oracle(self, corpus, rng):
        from repro.database.index import feature_similarity

        queries = [corpus.leaves["general/dialog"].block[5], rng.random(266)]
        for leaf in corpus.leaves.values():
            assert np.array_equal(leaf.reduced, np.asarray(leaf.block)[:, leaf.dims])
            assert [tuple(s) for s in leaf.signatures.tolist()] == [
                leaf_signature(row) for row in leaf.block
            ]
            for query in queries:
                scores = leaf.scan(query)
                assert scores.tolist() == [
                    feature_similarity(query, row, dims=leaf.dims) for row in leaf.block
                ]
                bucket = [
                    row for row in range(len(leaf))
                    if leaf_signature(leaf.block[row]) == leaf_signature(query)
                ]
                assert leaf.bucket_rows(query).tolist() == bucket
                candidates = leaf.candidate_rows(query)
                assert (candidates is None) == (not bucket)
                probed = probe(leaf, query)  # test_index's two probe cases, on both sources
                assert [e.key for e in probed] == [
                    leaf.entry(row).key for row in (bucket or range(len(leaf)))
                ]
                rows = np.array([len(leaf) - 1, 0, 3])
                assert leaf.scan(query, rows).tolist() == scores[rows].tolist()

    def test_what_a_shard_worker_ships(self, corpus, registered):
        """``net/worker.py``: candidates by fancy-indexed columns, payloads by block row."""
        leaf = next(iter(corpus.leaves.values()))
        want = next(iter(registered.leaves.values()))
        pick = np.array([4, 1, 7])
        for rows in (pick, slice(None)):
            assert list(
                zip(leaf.ordinals[rows].tolist(), leaf.titles[rows].tolist(),
                    leaf.shot_ids[rows].tolist(), leaf.scene_ids[rows].tolist())
            ) == [
                (int(want.ordinals[r]), want.titles[r], int(want.shot_ids[r]), int(want.scene_ids[r]))
                for r in (np.arange(len(want))[rows]).tolist()
            ]
        assert np.array_equal(leaf.block[4], want.block[4])

    def test_ann_trains_from_what_the_leaf_holds(self, corpus):
        from repro.ann.index import build_leaf_ann, train_leaf_ann

        for leaf in corpus.leaves.values():
            assert (
                train_leaf_ann(leaf).digest()
                == build_leaf_ann(np.asarray(leaf.block), leaf.dims).digest()
            )


def test_routing_has_one_owner_and_runs_once_per_leaf(registered, tmp_path, monkeypatch):
    """``(centers, dims)`` of a hand ``build_node`` and the ``LeafInfo`` a save
    and a shard publish store are the same arrays, and nothing clusters a
    leaf twice."""
    import repro.database.index as index_module
    from repro.net import build_shards
    from repro.serving import build_snapshot

    fresh = build_synthetic_database(videos=16, shots_per_video=8, seed=3)
    clustered = []
    kcenters = index_module._kcenters

    def spy(features, k):
        clustered.append(features.shape[0])
        return kcenters(features, k)

    monkeypatch.setattr(index_module, "_kcenters", spy)
    build_snapshot(fresh, 1)
    save_database(fresh, tmp_path / "db")
    build_shards(fresh, tmp_path / "shards", 2)
    monkeypatch.undo()

    sizes = [len(leaf) for leaf in fresh.leaves.values()]
    assert min(sizes) > 16  # a leaf population, not a stack of child centres
    assert sorted(n for n in clustered if n > 16) == sorted(sizes)

    with SQLCatalog(tmp_path / "db") as catalog:
        stored = {info.name: info for info in catalog.leaf_infos()}
    with SQLCatalog(tmp_path / "shards") as catalog:
        published = {info.name: info for info in catalog.leaf_infos()}
    for name, leaf in registered.leaves.items():
        by_hand = build_node(name, 3, entries=leaf.entries)
        for centers, dims in (
            (by_hand.centers, by_hand.dims),
            (stored[name].centers, stored[name].dims),
            (published[name].centers, published[name].dims),
        ):
            assert np.array_equal(centers, leaf.centers)
            assert np.array_equal(dims, leaf.dims)
