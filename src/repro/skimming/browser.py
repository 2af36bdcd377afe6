"""Hierarchical video browsing over the mined content structure.

Sec. 5 notes that "the mined video content structure and event
categories can also facilitate more applications like hierarchical
video browsing".  :class:`HierarchyBrowser` is that application: a
cursor over the four-level tree (clustered scenes > scenes > groups >
shots) with enter/up/next/previous navigation and a text rendering of
the current location — the model behind a tree-view UI.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.core.structure import ContentStructure
from repro.errors import SkimmingError
from repro.events.model import SceneEvent
from repro.types import EventKind


class BrowseLevel(str, Enum):
    """Levels the browser cursor can sit on."""

    CLUSTERS = "clusters"
    SCENES = "scenes"
    GROUPS = "groups"
    SHOTS = "shots"

    def finer(self) -> "BrowseLevel":
        """The next level down (clamped at shots)."""
        order = list(BrowseLevel)
        index = order.index(self)
        return order[min(index + 1, len(order) - 1)]


@dataclass(frozen=True)
class BrowseEntry:
    """One row in the browser listing."""

    index: int
    label: str
    detail: str


class HierarchyBrowser:
    """Navigable cursor over one video's mined hierarchy."""

    def __init__(
        self,
        structure: ContentStructure,
        events: list[SceneEvent] | None = None,
    ) -> None:
        if not structure.clustered_scenes:
            raise SkimmingError("structure has no clustered scenes to browse")
        self._structure = structure
        self._events: dict[int, EventKind] = {}
        if events:
            self._events = {event.scene_index: event.kind for event in events}
        self._level = BrowseLevel.CLUSTERS
        self._path: list[int] = []  # selected index at each coarser level
        self._cursor = 0

    # ------------------------------------------------------------------
    # State.
    # ------------------------------------------------------------------

    @property
    def level(self) -> BrowseLevel:
        """The level currently listed."""
        return self._level

    @property
    def cursor(self) -> int:
        """Index of the highlighted entry."""
        return self._cursor

    def entries(self) -> list[BrowseEntry]:
        """The rows visible at the current location."""
        if self._level is BrowseLevel.CLUSTERS:
            return [
                BrowseEntry(
                    index=i,
                    label=f"cluster {cluster.cluster_id}",
                    detail=(
                        f"{len(cluster.scenes)} scene(s), "
                        f"{cluster.shot_count} shots"
                        + (" [recurring]" if cluster.is_recurring else "")
                    ),
                )
                for i, cluster in enumerate(self._structure.clustered_scenes)
            ]
        if self._level is BrowseLevel.SCENES:
            cluster = self._structure.clustered_scenes[self._path[0]]
            return [
                BrowseEntry(
                    index=i,
                    label=f"scene {scene.scene_id}",
                    detail=(
                        f"{scene.shot_count} shots, "
                        f"event={self._events.get(scene.scene_id, EventKind.UNKNOWN).value}"
                    ),
                )
                for i, scene in enumerate(cluster.scenes)
            ]
        if self._level is BrowseLevel.GROUPS:
            scene = self._current_scene()
            return [
                BrowseEntry(
                    index=i,
                    label=f"group {group.group_id}",
                    detail=f"{group.shot_count} shots, {group.kind.value}",
                )
                for i, group in enumerate(scene.groups)
            ]
        group = self._current_scene().groups[self._path[2]]
        return [
            BrowseEntry(
                index=i,
                label=f"shot {shot.shot_id}",
                detail=f"frames {shot.start}-{shot.stop} ({shot.duration:.1f}s)",
            )
            for i, shot in enumerate(group.shots)
        ]

    def _current_scene(self):
        cluster = self._structure.clustered_scenes[self._path[0]]
        return cluster.scenes[self._path[1]]

    # ------------------------------------------------------------------
    # Navigation.
    # ------------------------------------------------------------------

    def next(self) -> int:
        """Move the cursor down; returns the new index."""
        self._cursor = min(self._cursor + 1, len(self.entries()) - 1)
        return self._cursor

    def previous(self) -> int:
        """Move the cursor up; returns the new index."""
        self._cursor = max(self._cursor - 1, 0)
        return self._cursor

    def enter(self) -> BrowseLevel:
        """Descend into the highlighted entry."""
        if self._level is BrowseLevel.SHOTS:
            raise SkimmingError("already at the shot level")
        self._path.append(self._cursor)
        self._level = self._level.finer()
        self._cursor = 0
        return self._level

    def breadcrumb(self) -> str:
        """Human-readable location, e.g. ``clusters > cluster 1 > scene 3``."""
        parts = [self._structure.title]
        level = BrowseLevel.CLUSTERS
        node_labels = {
            BrowseLevel.CLUSTERS: "cluster",
            BrowseLevel.SCENES: "scene",
            BrowseLevel.GROUPS: "group",
        }
        cursor_path = list(self._path)
        cluster = None
        scene = None
        for depth, index in enumerate(cursor_path):
            if depth == 0:
                cluster = self._structure.clustered_scenes[index]
                parts.append(f"cluster {cluster.cluster_id}")
            elif depth == 1:
                scene = cluster.scenes[index]
                parts.append(f"scene {scene.scene_id}")
            elif depth == 2:
                group = scene.groups[index]
                parts.append(f"group {group.group_id}")
            level = level.finer()
        del node_labels
        return " > ".join(parts)

    def render(self, width: int = 64) -> str:
        """Text rendering of the current listing with the cursor mark."""
        lines = [f"[{self.breadcrumb()}] ({self._level.value})"]
        for entry in self.entries():
            marker = ">" if entry.index == self._cursor else " "
            lines.append(f" {marker} {entry.label:12s} {entry.detail}"[:width])
        return "\n".join(lines)
