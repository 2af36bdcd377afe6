"""Tests for the hierarchical index machinery."""

import numpy as np
import pytest

from repro.database.index import (
    IndexNode,
    LeafHashIndex,
    LeafRows,
    ShotEntry,
    build_node,
    combine_features,
    discriminating_dimensions,
    feature_similarity,
    leaf_signature,
)
from repro.errors import DatabaseError
from tests.database.oracles import bucket_count, probe, route_child


def _entry(video: str, shot_id: int, hot_bin: int) -> ShotEntry:
    histogram = np.zeros(256)
    histogram[hot_bin] = 0.9
    histogram[(hot_bin + 7) % 256] = 0.1
    return ShotEntry(
        video_title=video,
        shot_id=shot_id,
        scene_id=0,
        features=combine_features(histogram, np.full(10, 0.5)),
    )


class TestCombineFeatures:
    def test_length(self):
        features = combine_features(np.ones(256) / 256, np.zeros(10))
        assert features.shape == (266,)


class TestFeatureSimilarity:
    def test_identical_is_one(self):
        entry = _entry("v", 0, 3)
        assert feature_similarity(entry.features, entry.features) == pytest.approx(1.0)

    def test_reduced_subspace(self):
        a = _entry("v", 0, 3).features
        b = _entry("v", 1, 3).features
        dims = np.array([3, 10, 256])
        value = feature_similarity(a, b, dims=dims)
        assert value == pytest.approx(np.minimum(a[dims], b[dims]).sum())


class TestDiscriminatingDimensions:
    def test_picks_varying_dims(self, rng):
        population = np.zeros((20, 266))
        population[:, 5] = rng.random(20)  # the only varying dimension
        dims = discriminating_dimensions(population, keep=1)
        assert list(dims) == [5]

    def test_caps_at_dimensionality(self):
        population = np.random.default_rng(0).random((5, 8))
        dims = discriminating_dimensions(population, keep=100)
        assert dims.shape == (8,)


class TestLeafHashIndex:
    def test_probe_returns_same_bucket(self):
        same = [_entry("v", i, 3) for i in range(4)]
        other = [_entry("v", 10 + i, 200) for i in range(4)]
        leaf = LeafHashIndex(LeafRows.from_entries(same + other), dims=np.arange(64))
        hits = probe(leaf, same[0].features)
        assert {h.shot_id for h in hits} == {0, 1, 2, 3}
        assert bucket_count(leaf) == 2
        assert len(leaf) == 8

    def test_probe_falls_back_when_bucket_empty(self):
        leaf = LeafHashIndex(LeafRows.from_entries([_entry("v", 0, 3)]), dims=np.arange(64))
        # Query signature that matches no bucket.
        query = _entry("v", 99, 150).features
        assert len(probe(leaf, query)) == 1

    def test_signature_stable_under_noise(self, rng):
        entry = _entry("v", 0, 3)
        noisy = entry.features + rng.normal(0, 1e-4, entry.features.shape)
        assert leaf_signature(entry.features) == leaf_signature(noisy)


class TestBuildNode:
    def test_leaf_node(self):
        entries = [_entry("v", i, 3) for i in range(5)]
        node = build_node("leaf", 3, entries=entries)
        assert node.is_leaf
        assert len(node.leaf) == 5
        assert node.centers is not None
        assert node.dims is not None

    def test_internal_node(self):
        leaf_a = build_node("a", 3, entries=[_entry("v", 0, 3)])
        leaf_b = build_node("b", 3, entries=[_entry("v", 1, 200)])
        parent = build_node("p", 2, children=[leaf_a, leaf_b])
        assert not parent.is_leaf
        assert sum(len(node.leaf) for node in parent.iter_leaves()) == 2
        assert parent.centers is not None

    def test_rejects_both_or_neither(self):
        with pytest.raises(DatabaseError):
            build_node("x", 0)
        with pytest.raises(DatabaseError):
            build_node("x", 0, children=[], entries=[])


class TestRouting:
    def test_routes_to_matching_child(self):
        leaf_a = build_node("a", 3, entries=[_entry("v", i, 3) for i in range(3)])
        leaf_b = build_node("b", 3, entries=[_entry("v", i, 200) for i in range(3)])
        parent = build_node("p", 2, children=[leaf_a, leaf_b])
        child, comparisons = route_child(parent, _entry("q", 9, 3).features)
        assert child is leaf_a
        assert comparisons > 0
        child, _ = route_child(parent, _entry("q", 9, 200).features)
        assert child is leaf_b

    def test_empty_children_are_skipped(self):
        leaf_a = build_node("a", 3, entries=[_entry("v", 0, 3)])
        empty = IndexNode(name="empty", depth=3, leaf=None, children=[])
        parent = build_node("p", 2, children=[leaf_a])
        parent.children.append(empty)
        child, _ = route_child(parent, _entry("q", 9, 3).features)
        assert child is leaf_a

    def test_routing_inside_leaf_raises(self):
        leaf = build_node("a", 3, entries=[_entry("v", 0, 3)])
        with pytest.raises(DatabaseError):
            route_child(leaf, _entry("q", 9, 3).features)
