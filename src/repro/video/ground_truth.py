"""Ground-truth annotations attached to synthetic videos.

The paper evaluates against manually annotated medical videos.  Our
synthetic corpus carries its annotations from birth: the screenplay
compiler records where every shot, group and scene begins and ends,
which semantic unit each scene depicts, which speaker talks in each
shot, and which event category each scene belongs to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import VideoError
from repro.types import EventKind


@dataclass(frozen=True)
class ShotSpan:
    """One annotated shot: frames ``[start, stop)``.

    Attributes
    ----------
    shot_id:
        Zero-based shot index within the video.
    start / stop:
        Frame range, half-open.
    speaker:
        Identifier of the person speaking during the shot, or ``None``
        for silence / ambient audio.
    scene_id:
        The annotated semantic scene the shot belongs to.
    """

    shot_id: int
    start: int
    stop: int
    speaker: str | None = None
    scene_id: int = 0

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop <= self.start:
            raise VideoError(
                f"invalid shot span [{self.start}, {self.stop}) for shot {self.shot_id}"
            )

    @property
    def length(self) -> int:
        """Number of frames in the shot."""
        return self.stop - self.start

    def contains(self, frame_index: int) -> bool:
        """True when ``frame_index`` lies inside the shot."""
        return self.start <= frame_index < self.stop


@dataclass(frozen=True)
class SceneSpan:
    """One annotated semantic scene: a contiguous run of shots.

    Attributes
    ----------
    scene_id:
        Zero-based scene index.
    first_shot / last_shot:
        Inclusive shot-id range.
    event:
        Ground-truth event category of the scene.
    subject:
        Free-text description of the semantic unit (e.g. ``"laser eye
        surgery close-up"``); used by the skim-quality panel.
    topic_relevant:
        Whether the scene carries the video's main topic (presentations
        and titled segments do; filler does not).
    """

    scene_id: int
    first_shot: int
    last_shot: int
    event: EventKind = EventKind.UNKNOWN
    subject: str = ""
    topic_relevant: bool = False

    def __post_init__(self) -> None:
        if self.first_shot < 0 or self.last_shot < self.first_shot:
            raise VideoError(
                f"invalid scene shots [{self.first_shot}, {self.last_shot}] "
                f"for scene {self.scene_id}"
            )

    @property
    def shot_ids(self) -> range:
        """The shot ids covered by this scene."""
        return range(self.first_shot, self.last_shot + 1)

    @property
    def shot_count(self) -> int:
        """Number of shots in the scene."""
        return self.last_shot - self.first_shot + 1


@dataclass
class GroundTruth:
    """Full annotation set for one video.

    ``groups`` is a list of shot-id lists: the annotated group partition
    of the shot sequence.  ``scenes`` partition shots at a coarser
    granularity.  ``duplicate_scene_sets`` records which annotated scenes
    are re-occurrences of the same content (ground truth for scene
    clustering).
    """

    shots: list[ShotSpan] = field(default_factory=list)
    groups: list[list[int]] = field(default_factory=list)
    scenes: list[SceneSpan] = field(default_factory=list)
    duplicate_scene_sets: list[list[int]] = field(default_factory=list)

    def validate(self, frame_count: int) -> None:
        """Check internal consistency against a frame count.

        Raises :class:`VideoError` when shots do not tile the frame range,
        groups/scenes do not partition the shots, or ids are inconsistent.
        """
        if not self.shots:
            raise VideoError("ground truth has no shots")
        expected_start = 0
        for i, shot in enumerate(self.shots):
            if shot.shot_id != i:
                raise VideoError(f"shot {i} has id {shot.shot_id}")
            if shot.start != expected_start:
                raise VideoError(
                    f"shot {i} starts at {shot.start}, expected {expected_start}"
                )
            expected_start = shot.stop
        if expected_start != frame_count:
            raise VideoError(
                f"shots cover {expected_start} frames, video has {frame_count}"
            )
        covered = [sid for group in self.groups for sid in group]
        if sorted(covered) != list(range(len(self.shots))):
            raise VideoError("groups do not partition the shot sequence")
        scene_shots = [sid for scene in self.scenes for sid in scene.shot_ids]
        if sorted(scene_shots) != list(range(len(self.shots))):
            raise VideoError("scenes do not partition the shot sequence")
        scene_ids = {scene.scene_id for scene in self.scenes}
        for dup_set in self.duplicate_scene_sets:
            for sid in dup_set:
                if sid not in scene_ids:
                    raise VideoError(f"duplicate set references unknown scene {sid}")

    @property
    def shot_count(self) -> int:
        """Number of annotated shots."""
        return len(self.shots)

    @property
    def scene_count(self) -> int:
        """Number of annotated scenes."""
        return len(self.scenes)

    def shot_boundaries(self) -> list[int]:
        """Frame indices where a new shot starts (excluding frame 0)."""
        return [shot.start for shot in self.shots[1:]]

    def scene_of_shot(self, shot_id: int) -> SceneSpan:
        """Return the annotated scene containing ``shot_id``."""
        for scene in self.scenes:
            if shot_id in scene.shot_ids:
                return scene
        raise VideoError(f"no scene contains shot {shot_id}")

    def event_of_shot(self, shot_id: int) -> EventKind:
        """Ground-truth event of the scene containing ``shot_id``."""
        return self.scene_of_shot(shot_id).event
