"""Tests for the Scene Transition Graph method."""

import numpy as np
import pytest

from repro.baselines.stg import (
    TransitionGraph,
    build_transition_graph,
    stg_detect_scenes,
    story_units_from_graph,
    time_constrained_clusters,
)
from repro.core.features import Shot
from repro.errors import MiningError
from tests.helpers import blank_frame


def _shot(shot_id: int, bin_index: int, length: int = 30) -> Shot:
    histogram = np.zeros(256)
    histogram[bin_index] = 0.85
    histogram[(bin_index + 5) % 256] = 0.15
    return Shot(
        shot_id=shot_id,
        start=shot_id * length,
        stop=(shot_id + 1) * length,
        fps=10.0,
        representative_frame=blank_frame(4, 4),
        histogram=histogram,
        texture=np.full(10, 0.5),
    )


def _pattern(pattern: str) -> list[Shot]:
    return [
        _shot(i, (40 * (ord(c) - ord("A"))) % 250) for i, c in enumerate(pattern)
    ]


class TestTimeConstrainedClustering:
    def test_clusters_similar_nearby_shots(self):
        shots = _pattern("AABB")
        clusters = time_constrained_clusters(shots, similarity_threshold=0.5)
        memberships = sorted(sorted(s.shot_id for s in c) for c in clusters)
        assert memberships == [[0, 1], [2, 3]]

    def test_time_constraint_splits_far_repeats(self):
        # Same content far apart in time must form separate clusters.
        shots = _pattern("A" + "B" * 20 + "A")
        clusters = time_constrained_clusters(
            shots, similarity_threshold=0.5, time_window=30.0
        )
        a_clusters = [
            c for c in clusters if any(s.shot_id in (0, 21) for s in c)
        ]
        assert len(a_clusters) == 2

    def test_rejects_empty(self):
        with pytest.raises(MiningError):
            time_constrained_clusters([])


class TestTransitionGraph:
    def test_dialog_creates_cycle(self):
        shots = _pattern("ABABAB")
        clusters = time_constrained_clusters(shots, similarity_threshold=0.5)
        graph = build_transition_graph(shots, clusters)
        assert len(graph.nodes) == 2
        assert graph.has_edge(0, 1) and graph.has_edge(1, 0)
        assert graph[0][1]["weight"] >= 2

    def test_linear_sequence_creates_chain(self):
        shots = _pattern("AABBCC")
        clusters = time_constrained_clusters(shots, similarity_threshold=0.5)
        graph = build_transition_graph(shots, clusters)
        assert len(graph.edges) == 2


class TestStoryUnits:
    def test_bridge_separates_units(self):
        graph = TransitionGraph()
        graph.add_edge(0, 1)
        graph.add_edge(1, 0)  # dialog cycle
        graph.add_edge(1, 2)  # one-way bridge to new content
        units = story_units_from_graph(graph)
        assert {frozenset(u) for u in units} == {frozenset({0, 1}), frozenset({2})}

    def test_empty_graph(self):
        graph = TransitionGraph()
        graph.add_nodes_from([0, 1])
        units = story_units_from_graph(graph)
        assert len(units) == 2


class TestStgScenes:
    def test_dialog_plus_new_location(self):
        shots = _pattern("ABABAB" + "CCCC")
        result = stg_detect_scenes(shots, similarity_threshold=0.5)
        assert result.method == "STG"
        assert result.scenes[0] == [0, 1, 2, 3, 4, 5]
        assert result.scenes[1] == [6, 7, 8, 9]

    def test_scenes_partition_shots(self):
        shots = _pattern("AABBABCCDD")
        result = stg_detect_scenes(shots)
        covered = sorted(s for scene in result.scenes for s in scene)
        assert covered == list(range(len(shots)))

    def test_on_demo_structure(self, demo_structure, demo_video):
        from repro.evaluation import evaluate_scene_partition

        result = stg_detect_scenes(demo_structure.shots)
        evaluation = evaluate_scene_partition(
            demo_video.truth, demo_structure.shots, result.scenes, "STG"
        )
        assert 0.0 <= evaluation.precision <= 1.0
        assert evaluation.detected >= 2
