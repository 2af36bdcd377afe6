"""Cross-cutting property-based tests (hypothesis).

Invariants that must hold for *any* input, spanning module boundaries:
similarity bounds and symmetry, partition invariants of the mining
stages, monotonicity of access control, and metric sanity.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clustering import cluster_scenes
from repro.core.features import Shot
from repro.core.groups import Group, detect_groups
from repro.core.scenes import Scene, detect_scenes
from repro.core.shots import boundary_spans, detect_boundaries
from repro.core.similarity import group_similarity, shot_similarity
from repro.database.access import AccessController, User
from repro.database.hierarchy import build_medical_hierarchy
from tests.helpers import blank_frame


# ---------------------------------------------------------------------------
# Builders.
# ---------------------------------------------------------------------------


def _shot_from_seed(shot_id: int, seed: int) -> Shot:
    rng = np.random.default_rng(seed)
    histogram = rng.random(256)
    histogram /= histogram.sum()
    return Shot(
        shot_id=shot_id,
        start=shot_id * 10,
        stop=(shot_id + 1) * 10,
        fps=10.0,
        representative_frame=blank_frame(4, 4),
        histogram=histogram,
        texture=rng.random(10),
    )


shot_seeds = st.lists(st.integers(0, 10_000), min_size=3, max_size=12)


# ---------------------------------------------------------------------------
# Similarity.
# ---------------------------------------------------------------------------


@given(seeds=st.tuples(st.integers(0, 9999), st.integers(0, 9999)))
@settings(max_examples=40, deadline=None)
def test_shot_similarity_symmetric_and_bounded(seeds):
    a = _shot_from_seed(0, seeds[0])
    b = _shot_from_seed(1, seeds[1])
    ab = shot_similarity(a, b)
    ba = shot_similarity(b, a)
    assert ab == pytest.approx(ba)
    assert 0.0 <= ab <= 1.0 + 1e-9


@given(seeds=shot_seeds)
@settings(max_examples=25, deadline=None)
def test_group_similarity_self_is_maximal(seeds):
    shots = [_shot_from_seed(i, seed) for i, seed in enumerate(seeds)]
    half = len(shots) // 2
    a, b = shots[:half], shots[half:]
    if not a or not b:
        return
    self_sim = group_similarity(a, a)
    cross = group_similarity(a, b)
    assert self_sim == pytest.approx(1.0)
    assert cross <= self_sim + 1e-9


# ---------------------------------------------------------------------------
# Mining-stage partition invariants.
# ---------------------------------------------------------------------------


@given(seeds=shot_seeds)
@settings(max_examples=20, deadline=None)
def test_groups_always_partition_shots(seeds):
    shots = [_shot_from_seed(i, seed) for i, seed in enumerate(seeds)]
    groups, _ = detect_groups(shots)
    covered = [shot_id for group in groups for shot_id in group.shot_ids]
    assert covered == [shot.shot_id for shot in shots]
    # Groups are contiguous runs.
    for group in groups:
        ids = group.shot_ids
        assert ids == list(range(ids[0], ids[-1] + 1))


@given(seeds=shot_seeds)
@settings(max_examples=20, deadline=None)
def test_scene_detection_preserves_shots(seeds):
    shots = [_shot_from_seed(i, seed) for i, seed in enumerate(seeds)]
    groups, _ = detect_groups(shots)
    result = detect_scenes(groups)
    kept = {s for scene in result.scenes for s in scene.shot_ids}
    dropped = {
        shot.shot_id
        for unit in result.eliminated
        for group in unit
        for shot in group.shots
    }
    assert kept | dropped == {shot.shot_id for shot in shots}
    assert kept & dropped == set()
    for scene in result.scenes:
        assert scene.shot_count >= 3


@given(
    seeds=st.lists(st.integers(0, 9999), min_size=4, max_size=9, unique=True)
)
@settings(max_examples=15, deadline=None)
def test_clustering_partitions_scenes(seeds):
    scenes = []
    for index, seed in enumerate(seeds):
        shots = [_shot_from_seed(index * 10 + k, seed + k) for k in range(3)]
        group = Group(group_id=index, shots=shots, representative_shots=[shots[0]])
        scenes.append(
            Scene(scene_id=index, groups=[group], representative_group=group)
        )
    result = cluster_scenes(scenes)
    member_ids = sorted(
        scene_id for cluster in result.clusters for scene_id in cluster.scene_ids
    )
    assert member_ids == sorted(s.scene_id for s in scenes)
    assert 1 <= result.cluster_count <= len(scenes)


# ---------------------------------------------------------------------------
# Shot boundaries.
# ---------------------------------------------------------------------------


@given(
    diffs=st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=0, max_size=120)
)
@settings(max_examples=40, deadline=None)
def test_boundaries_are_valid_spans(diffs):
    signal = np.asarray(diffs)
    boundaries, thresholds = detect_boundaries(signal)
    assert thresholds.shape == signal.shape
    assert boundaries == sorted(set(boundaries))
    frame_count = signal.size + 1
    spans = boundary_spans(boundaries, frame_count)
    assert spans[0][0] == 0
    assert spans[-1][1] == frame_count
    for (_, stop), (start, _) in zip(spans, spans[1:]):
        assert stop == start


# ---------------------------------------------------------------------------
# Access control monotonicity.
# ---------------------------------------------------------------------------


@given(low=st.integers(0, 5), extra=st.integers(0, 5))
@settings(max_examples=25, deadline=None)
def test_higher_clearance_sees_superset(low, extra):
    controller = AccessController(build_medical_hierarchy())
    junior = User(name="junior", clearance=low)
    senior = User(name="senior", clearance=low + extra)
    junior_leaves = controller.permitted_leaves(junior)
    senior_leaves = controller.permitted_leaves(senior)
    assert junior_leaves <= senior_leaves
