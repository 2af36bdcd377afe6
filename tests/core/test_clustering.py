"""Tests for the Pairwise Cluster Scheme and validity analysis."""

import numpy as np
import pytest

from repro.core.clustering import cluster_scenes
from repro.core.groups import Group
from repro.core.scenes import Scene
from repro.core.features import Shot
from repro.core.validity import search_range, validity_index
from repro.errors import MiningError
from tests.helpers import blank_frame


def _shot(shot_id: int, bin_index: int) -> Shot:
    histogram = np.zeros(256)
    histogram[bin_index] = 0.9
    histogram[(bin_index + 1) % 256] = 0.1
    return Shot(
        shot_id=shot_id,
        start=shot_id * 10,
        stop=(shot_id + 1) * 10,
        fps=10.0,
        representative_frame=blank_frame(4, 4),
        histogram=histogram,
        texture=np.full(10, 0.5),
    )


def _scene(scene_id: int, bin_index: int, size: int = 3) -> Scene:
    shots = [_shot(scene_id * 10 + i, bin_index) for i in range(size)]
    group = Group(group_id=scene_id, shots=shots, representative_shots=[shots[0]])
    return Scene(scene_id=scene_id, groups=[group], representative_group=group)


class TestSearchRange:
    def test_paper_fractions(self):
        assert search_range(10) == (5, 7)
        assert search_range(20) == (10, 14)

    def test_small_counts_do_not_cluster(self):
        assert search_range(3) == (3, 3)
        assert search_range(1) == (1, 1)

    def test_rejects_zero(self):
        with pytest.raises(MiningError):
            search_range(0)


class TestClusterScenes:
    def test_merges_repeated_scenes(self):
        # Scenes 0/2/4 look alike (bin 0); 1/3/5 look alike (bin 100).
        scenes = [_scene(i, 0 if i % 2 == 0 else 100) for i in range(6)]
        result = cluster_scenes(scenes, target_count=2)
        assert result.cluster_count == 2
        memberships = sorted(sorted(c.scene_ids) for c in result.clusters)
        assert memberships == [[0, 2, 4], [1, 3, 5]]

    def test_validity_selects_true_structure(self):
        # Two obvious visual families; the validity curve should choose
        # a clustering that keeps families pure.
        scenes = [_scene(i, (i % 2) * 120) for i in range(8)]
        result = cluster_scenes(scenes)
        assert result.chosen_count in result.validity_curve
        for cluster in result.clusters:
            family = {scene.scene_id % 2 for scene in cluster.scenes}
            assert len(family) == 1  # never mixes the families

    def test_is_recurring_flag(self):
        scenes = [_scene(i, 0) for i in range(2)] + [_scene(2, 100)]
        result = cluster_scenes(scenes, target_count=2)
        flags = {tuple(c.scene_ids): c.is_recurring for c in result.clusters}
        assert flags[(0, 1)] is True
        assert flags[(2,)] is False

    def test_target_count_bounds(self):
        scenes = [_scene(i, i * 20) for i in range(4)]
        with pytest.raises(MiningError):
            cluster_scenes(scenes, target_count=0)
        with pytest.raises(MiningError):
            cluster_scenes(scenes, target_count=9)

    def test_rejects_empty(self):
        with pytest.raises(MiningError):
            cluster_scenes([])

    def test_single_scene(self):
        result = cluster_scenes([_scene(0, 0)])
        assert result.cluster_count == 1

    def test_clusters_ordered_by_first_appearance(self):
        scenes = [_scene(i, (i % 3) * 80) for i in range(6)]
        result = cluster_scenes(scenes, target_count=3)
        firsts = [cluster.scenes[0].scene_id for cluster in result.clusters]
        assert firsts == sorted(firsts)


class TestValidityIndex:
    def test_tight_clusters_score_lower(self):
        tight_a = [_scene(0, 0), _scene(1, 0)]
        tight_b = [_scene(2, 120), _scene(3, 120)]
        mixed_a = [_scene(0, 0), _scene(2, 120)]
        mixed_b = [_scene(1, 0), _scene(3, 120)]

        def centroids(clusters):
            return [cluster[0].representative_group for cluster in clusters]

        def members(clusters):
            return [[s.representative_group for s in cluster] for cluster in clusters]

        good = validity_index(
            members([tight_a, tight_b]), centroids([tight_a, tight_b])
        )
        bad = validity_index(
            members([mixed_a, mixed_b]), centroids([mixed_a, mixed_b])
        )
        assert good < bad

    def test_single_cluster_is_infinite(self):
        scenes = [_scene(0, 0)]
        value = validity_index(
            [[scenes[0].representative_group]], [scenes[0].representative_group]
        )
        assert value == float("inf")

    def test_mismatched_lengths_raise(self):
        scene = _scene(0, 0)
        with pytest.raises(MiningError):
            validity_index([[scene.representative_group]], [])


class TestOnDemoVideo:
    def test_clusters_partition_scenes(self, demo_structure):
        clustered_ids = sorted(
            scene_id
            for cluster in demo_structure.clustered_scenes
            for scene_id in cluster.scene_ids
        )
        assert clustered_ids == sorted(s.scene_id for s in demo_structure.scenes)

    def test_cluster_count_within_paper_range(self, demo_structure):
        m = demo_structure.scene_count
        n = len(demo_structure.clustered_scenes)
        low, high = search_range(m)
        assert low <= n <= high
