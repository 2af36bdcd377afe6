"""The scalable skim: level switching, playback, fast access (Fig. 11).

:class:`ScalableSkim` models the behaviour of the paper's skimming tool:
the user watches only the selected skimming shots of the current level,
can switch levels with the up/down arrows, and can drag a scroll bar
whose position maps to shot positions in the full video.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.features import Shot
from repro.core.structure import ContentStructure
from repro.errors import SkimmingError
from repro.events.model import SceneEvent
from repro.skimming.levels import SKIM_LEVELS, build_level_shots
from repro.types import EventKind


@dataclass(frozen=True)
class SkimSegment:
    """One skim entry: a shot shown at some level."""

    shot: Shot
    event: EventKind

    @property
    def frame_span(self) -> tuple[int, int]:
        """Frames covered by the underlying shot."""
        return (self.shot.start, self.shot.stop)


@dataclass
class ScalableSkim:
    """A four-level scalable skim of one video."""

    title: str
    total_frames: int
    levels: dict[int, list[SkimSegment]]
    current_level: int = 3

    def __post_init__(self) -> None:
        for level in SKIM_LEVELS:
            if level not in self.levels or not self.levels[level]:
                raise SkimmingError(f"skim level {level} is missing or empty")
        if self.current_level not in self.levels:
            raise SkimmingError(f"invalid current level {self.current_level}")

    def switch_level(self, level: int) -> None:
        """Jump straight to a level (the level switcher buttons)."""
        if level not in self.levels:
            raise SkimmingError(f"no such skim level: {level}")
        self.current_level = level

    def finer(self) -> int:
        """Down arrow: move toward level 1; returns the new level."""
        self.current_level = max(self.current_level - 1, min(SKIM_LEVELS))
        return self.current_level

    def segments(self, level: int | None = None) -> list[SkimSegment]:
        """Skim segments of a level (default: the current one)."""
        return list(self.levels[level if level is not None else self.current_level])

    def frame_count(self, level: int | None = None) -> int:
        """Frames shown at a level."""
        return sum(
            segment.shot.length for segment in self.segments(level)
        )

    def seek(self, position: float, level: int | None = None) -> SkimSegment:
        """Drag the scroll bar: the skim segment nearest ``position``."""
        if not 0.0 <= position <= 1.0:
            raise SkimmingError(f"scroll position {position} outside [0, 1]")
        target_frame = position * max(self.total_frames - 1, 1)
        segments = self.segments(level)
        return min(
            segments,
            key=lambda segment: abs(
                (segment.shot.start + segment.shot.stop) / 2 - target_frame
            ),
        )


def build_skim(
    structure: ContentStructure,
    events: list[SceneEvent] | None = None,
    title: str | None = None,
) -> ScalableSkim:
    """Assemble the scalable skim from a mined structure (+ events)."""
    event_of_shot: dict[int, EventKind] = {}
    if events is not None:
        by_scene = {event.scene_index: event.kind for event in events}
        for scene in structure.scenes:
            kind = by_scene.get(scene.scene_id, EventKind.UNKNOWN)
            for shot_id in scene.shot_ids:
                event_of_shot[shot_id] = kind

    level_shots = build_level_shots(structure)
    total_frames = structure.shots[-1].stop
    levels = {
        level: [
            SkimSegment(
                shot=shot,
                event=event_of_shot.get(shot.shot_id, EventKind.UNKNOWN),
            )
            for shot in shots
        ]
        for level, shots in level_shots.items()
    }
    return ScalableSkim(
        title=title if title is not None else structure.title,
        total_frames=total_frames,
        levels=levels,
    )
