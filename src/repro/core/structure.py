"""Content-structure mining: the full Sec. 3 pipeline in one call.

``mine_content_structure`` runs shot detection, group detection, scene
detection and scene clustering and returns a :class:`ContentStructure` —
the four-level hierarchy (clustered scenes > scenes > groups > shots)
of Definition 1.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field

logger = logging.getLogger(__name__)

from repro.core.clustering import (
    ClusteredScene,
    SceneClusteringResult,
    cluster_scenes,
)
from repro.core.config import MiningConfig
from repro.core.features import Shot
from repro.core.groups import Group, GroupKind, detect_groups
from repro.core.scenes import Scene, SceneDetectionResult, detect_scenes
from repro.core.shots import (
    ShotDetectionResult,
    detect_shots,
    shots_from_ground_truth,
)
from repro.errors import DegradedResultWarning, MiningError
from repro.obs.trace import span as obs_span
from repro.resilience.faults import fault_point
from repro.video.stream import FrameStream


@dataclass
class ContentStructure:
    """The mined four-level hierarchy of one video."""

    title: str
    shots: list[Shot]
    groups: list[Group]
    scenes: list[Scene]
    clustered_scenes: list[ClusteredScene]
    shot_detection: ShotDetectionResult | None = field(default=None, repr=False)
    scene_detection: SceneDetectionResult | None = field(default=None, repr=False)
    clustering: SceneClusteringResult | None = field(default=None, repr=False)
    degraded_stages: tuple[str, ...] = ()

    @property
    def degraded(self) -> bool:
        """True when any mining stage fell back instead of completing."""
        return bool(self.degraded_stages)

    @property
    def shot_count(self) -> int:
        """Number of detected shots."""
        return len(self.shots)

    @property
    def scene_count(self) -> int:
        """Number of kept scenes."""
        return len(self.scenes)

    @property
    def compression_rate_factor(self) -> float:
        """CRF of Eq. (21): detected scenes / total shots."""
        if not self.shots:
            raise MiningError("structure has no shots")
        return len(self.scenes) / len(self.shots)

    def scene_of_shot(self, shot_id: int) -> Scene | None:
        """The kept scene containing ``shot_id`` (None if eliminated)."""
        for scene in self.scenes:
            if shot_id in scene.shot_ids:
                return scene
        return None

    def level_sizes(self) -> dict[str, int]:
        """Node counts per hierarchy level (used by docs and benches)."""
        return {
            "clustered_scenes": len(self.clustered_scenes),
            "scenes": len(self.scenes),
            "groups": len(self.groups),
            "shots": len(self.shots),
        }


def degrade_stage(title: str, stage: str, exc: Exception) -> None:
    """Record one stage falling back: warn, log, count.

    Emits a :class:`DegradedResultWarning` (so callers can assert or
    escalate), logs the underlying failure, and bumps the process-wide
    ``mining_degraded_stages_total{stage=...}`` counter.
    """
    warnings.warn(
        DegradedResultWarning(
            f"{title}: stage {stage!r} failed ({exc}); continuing degraded"
        ),
        stacklevel=3,
    )
    logger.warning("%s: stage %s degraded: %s", title, stage, exc)
    # Imported lazily: the registry module pulls in exporter plumbing
    # that the core layer must not depend on at import time.
    from repro.obs.registry import get_registry

    get_registry().counter(
        "mining_degraded_stages_total",
        "Mining stages that fell back to a degraded result.",
        labelnames=("stage",),
    ).labels(stage=stage).inc()


def _fallback_groups(shots: list[Shot]) -> list[Group]:
    """One temporal group per shot: the no-similarity-information case."""
    return [
        Group(
            group_id=i,
            shots=[shot],
            kind=GroupKind.TEMPORAL,
            clusters=[[shot]],
            representative_shots=[shot],
        )
        for i, shot in enumerate(shots)
    ]


def mine_content_structure(
    stream: FrameStream,
    config: MiningConfig | None = None,
    oracle_shot_spans: list[tuple[int, int]] | None = None,
) -> ContentStructure:
    """Run the Sec. 3 pipeline on a video stream.

    The stream's frames are read once, by the shot stage; every later
    stage works from the shots' representative frames.
    ``oracle_shot_spans`` bypasses shot detection with known spans so
    downstream stages can be evaluated in isolation.

    Failure containment: shot detection is load-bearing (no shots means
    nothing downstream can exist) and stays fatal, but a failure in
    group detection, scene detection or clustering *degrades* the
    result instead of raising — the failed stage's output is replaced
    by its safest fallback (one group per shot / no scenes / no
    clusters), the stage name lands in
    :attr:`ContentStructure.degraded_stages`, and a
    :class:`DegradedResultWarning` is emitted.
    """
    if config is None:
        config = MiningConfig()
    degraded: list[str] = []

    shot_detection: ShotDetectionResult | None = None
    with obs_span("mine.shots", window=config.shot_window) as sp:
        fault_point("mine.shots")
        if oracle_shot_spans is not None:
            shots = shots_from_ground_truth(stream, oracle_shot_spans)
            sp.set(oracle=True)
        else:
            shot_detection = detect_shots(stream, window=config.shot_window)
            shots = shot_detection.shots
        if not shots:
            raise MiningError("no shots detected")
        sp.set(frames=shots[-1].stop, shots=len(shots))
    logger.info("%s: %d shots detected", stream.title, len(shots))

    with obs_span("mine.groups") as sp:
        try:
            fault_point("mine.groups")
            groups, thresholds = detect_groups(
                shots, config.weights, thresholds=config.group_thresholds
            )
            logger.debug(
                "%s: %d groups (T1=%.3f, T2=%.3f)",
                stream.title, len(groups), thresholds.t1, thresholds.t2,
            )
        except Exception as exc:
            degrade_stage(stream.title, "groups", exc)
            degraded.append("groups")
            groups = _fallback_groups(shots)
            sp.set(degraded=True)
        sp.set(groups=len(groups))

    with obs_span("mine.scenes") as sp:
        try:
            fault_point("mine.scenes")
            scene_detection = detect_scenes(
                groups,
                config.weights,
                merge_threshold=config.merge_threshold,
                min_scene_shots=config.min_scene_shots,
            )
            scenes = scene_detection.scenes
            sp.set(eliminated=len(scene_detection.eliminated))
            logger.info(
                "%s: %d scenes kept, %d units eliminated (TG=%.3f)",
                stream.title,
                len(scenes),
                len(scene_detection.eliminated),
                scene_detection.merge_threshold,
            )
        except Exception as exc:
            degrade_stage(stream.title, "scenes", exc)
            degraded.append("scenes")
            scene_detection = None
            scenes = []
            sp.set(degraded=True)
        sp.set(scenes=len(scenes))

    with obs_span("mine.clustering") as sp:
        clustering = None
        clustered: list[ClusteredScene] = []
        if scenes:
            try:
                fault_point("mine.clustering")
                clustering = cluster_scenes(
                    scenes, config.weights, target_count=config.cluster_target
                )
                clustered = clustering.clusters
                sp.set(clusters=len(clustered))
                logger.debug(
                    "%s: %d scene clusters (validity-selected N=%d)",
                    stream.title, len(clustered), clustering.chosen_count,
                )
            except Exception as exc:
                degrade_stage(stream.title, "clustering", exc)
                degraded.append("clustering")
                clustering = None
                clustered = []
                sp.set(degraded=True)

    return ContentStructure(
        title=stream.title,
        shots=shots,
        groups=groups,
        scenes=scenes,
        clustered_scenes=clustered,
        shot_detection=shot_detection,
        scene_detection=scene_detection,
        clustering=clustering,
        degraded_stages=tuple(degraded),
    )
