"""The miner's settings as plain data: what an ingest job's cache key hashes.

Kept apart from the stages that read them, so planning an ingest (jobs,
keys, cache checks) loads no miner: this module imports only the
Eq. (1) weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.similarity import SimilarityWeights

#: Paper window size: "a small window (e.g., 30 frames in our current work)".
DEFAULT_WINDOW = 30


@dataclass(frozen=True)
class GroupThresholds:
    """The two automatic thresholds of the detection procedure."""

    t1: float
    t2: float


@dataclass(frozen=True)
class MiningConfig:
    """Tunable parameters of the content-structure miner.

    Defaults are the paper's choices; benches vary them for ablations.
    """

    weights: SimilarityWeights = field(default_factory=SimilarityWeights)
    shot_window: int = DEFAULT_WINDOW
    min_scene_shots: int = 3
    merge_threshold: float | None = None
    group_thresholds: GroupThresholds | None = None
    cluster_target: int | None = None

    def to_dict(self) -> dict:
        """Serialise to plain data (for experiment manifests)."""
        return {
            "weights": {"color": self.weights.color, "texture": self.weights.texture},
            "shot_window": self.shot_window,
            "min_scene_shots": self.min_scene_shots,
            "merge_threshold": self.merge_threshold,
            "group_thresholds": (
                None
                if self.group_thresholds is None
                else {"t1": self.group_thresholds.t1, "t2": self.group_thresholds.t2}
            ),
            "cluster_target": self.cluster_target,
        }
