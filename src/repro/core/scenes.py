"""Scene detection by group merging (Sec. 3.4).

Similarities between all neighbouring groups (Eq. 10) are pooled, the
fast entropy technique picks the merging threshold TG, and runs of
adjacent groups above TG merge into scenes.  Scenes with fewer than
three shots are eliminated.  Each scene's representative group (its
centroid for clustering) comes from Eq. (11) with the paper's
small-scene tie-break rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.features import Shot
from repro.core.groups import Group
from repro.core.kernels import FeatureMatrix, group_stsim
from repro.core.similarity import (
    SimilarityWeights,
    group_similarity_matrix,
)
from repro.core.threshold import entropy_threshold
from repro.errors import MiningError

#: Paper rule: scenes with fewer shots than this are eliminated.
MIN_SCENE_SHOTS = 3


@dataclass
class Scene:
    """A detected video scene: one or more merged groups.

    Attributes
    ----------
    scene_id:
        Zero-based index among *kept* scenes.
    groups:
        Member groups in temporal order.
    representative_group:
        Eq. (11) pick; also used as the scene centroid by clustering.
    """

    scene_id: int
    groups: list[Group]
    representative_group: Group = field(repr=False)

    def __post_init__(self) -> None:
        if not self.groups:
            raise MiningError(f"scene {self.scene_id} has no groups")

    @property
    def shots(self) -> list[Shot]:
        """All member shots in temporal order."""
        return [shot for group in self.groups for shot in group.shots]

    @property
    def shot_ids(self) -> list[int]:
        """All member shot ids."""
        return [shot.shot_id for shot in self.shots]

    @property
    def shot_count(self) -> int:
        """Number of member shots."""
        return len(self.shots)

    @property
    def duration(self) -> float:
        """Total duration in seconds."""
        return sum(group.duration for group in self.groups)

    @property
    def frame_span(self) -> tuple[int, int]:
        """``(first frame, last frame + 1)`` covered by the scene."""
        return (self.groups[0].frame_span[0], self.groups[-1].frame_span[1])

    def has_temporal_group(self) -> bool:
        """True when at least one member group is temporally related."""
        return any(group.is_temporal for group in self.groups)


@dataclass
class SceneDetectionResult:
    """Scenes plus the bookkeeping the evaluation needs.

    Attributes
    ----------
    scenes:
        Kept scenes (>= 3 shots each).
    eliminated:
        Merged units dropped by the < 3 shots rule (group lists).
    merge_threshold:
        The TG picked by the entropy technique.
    neighbour_similarities:
        SG_i of Eq. (10), one per adjacent group pair.
    """

    scenes: list[Scene]
    eliminated: list[list[Group]]
    merge_threshold: float
    neighbour_similarities: np.ndarray = field(repr=False)

    @property
    def scene_count(self) -> int:
        """Number of kept scenes."""
        return len(self.scenes)


def select_representative_group(
    groups: list[Group], weights: SimilarityWeights = SimilarityWeights()
) -> Group:
    """Eq. (11) and its special cases.

    * 3+ groups: highest mean GpSim to the other groups;
    * 2 groups: more shots wins, then longer duration;
    * 1 group: itself.
    """
    if not groups:
        raise MiningError("cannot pick a representative from an empty scene")
    if len(groups) == 1:
        return groups[0]
    if len(groups) == 2:
        return max(groups, key=lambda g: (g.shot_count, g.duration))
    # One packed kernel call scores every ordered pair; row means (diag
    # excluded) are exactly the scalar election's per-group scores.
    matrix = group_similarity_matrix([group.shots for group in groups], weights)
    np.fill_diagonal(matrix, 0.0)
    scores = matrix.sum(axis=1) / (len(groups) - 1)
    return groups[int(np.argmax(scores))]


def detect_scenes(
    groups: list[Group],
    weights: SimilarityWeights = SimilarityWeights(),
    merge_threshold: float | None = None,
    min_scene_shots: int = MIN_SCENE_SHOTS,
) -> SceneDetectionResult:
    """Merge neighbouring groups into scenes (Sec. 3.4 steps 1-4).

    ``merge_threshold`` may be supplied for ablations; by default the
    fast entropy technique picks TG from the Eq. (10) pool.
    """
    if not groups:
        raise MiningError("no groups to merge")
    if len(groups) == 1:
        neighbour = np.zeros(0)
        tg = 0.0 if merge_threshold is None else merge_threshold
        merged = [[groups[0]]]
    else:
        matrices = [FeatureMatrix.from_shots(group.shots) for group in groups]
        neighbour = np.array(
            [
                group_stsim(matrices[i], matrices[i + 1], weights)
                for i in range(len(groups) - 1)
            ]
        )
        tg = entropy_threshold(neighbour) if merge_threshold is None else merge_threshold
        merged = [[groups[0]]]
        for i in range(1, len(groups)):
            if neighbour[i - 1] > tg:
                merged[-1].append(groups[i])
            else:
                merged.append([groups[i]])

    scenes: list[Scene] = []
    eliminated: list[list[Group]] = []
    for unit in merged:
        shot_count = sum(group.shot_count for group in unit)
        if shot_count < min_scene_shots:
            eliminated.append(unit)
            continue
        scenes.append(
            Scene(
                scene_id=len(scenes),
                groups=unit,
                representative_group=select_representative_group(unit, weights),
            )
        )
    return SceneDetectionResult(
        scenes=scenes,
        eliminated=eliminated,
        merge_threshold=float(tg),
        neighbour_similarities=neighbour,
    )
