"""Scene-level retrieval: query at the granularity of Fig. 1's scene nodes.

Shot-level search answers "find this picture"; scene-level search
answers "find passages that look like this one".  Each registered
scene is summarised by a centroid feature vector (the mean of its
member shots' combined features — the natural analogue of the paper's
representative-group centroid in feature space) and queries rank scenes
by Eq. (1)-style similarity to that centroid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.kernels import combined_stsim_to_many, top_k
from repro.database.index import combine_features
from repro.errors import DatabaseError
from repro.types import EventKind

if TYPE_CHECKING:
    from repro.core.pipeline import ClassMinerResult


@dataclass(frozen=True)
class SceneEntry:
    """One indexed scene.

    Attributes
    ----------
    video_title / scene_id:
        Identity of the scene.
    event:
        Mined event kind.
    shot_count:
        Member shots.
    centroid:
        Mean combined feature vector of the member shots.
    """

    video_title: str
    scene_id: int
    event: EventKind
    shot_count: int
    centroid: np.ndarray = field(repr=False, hash=False, compare=False)


@dataclass(frozen=True)
class RankedScene:
    """One scene-search hit."""

    entry: SceneEntry
    score: float


class SceneIndex:
    """Flat index of scene centroids with optional event filtering.

    Centroids are stacked into one cached matrix and each event's row
    indices into one cached array (both rebuilt lazily after inserts),
    so a search is one blocked kernel call and only the ``k`` winners
    become :class:`RankedScene` objects.
    """

    def __init__(self) -> None:
        self._entries: list[SceneEntry] = []
        self._matrix: np.ndarray | None = None
        self._event_rows: dict[EventKind, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> list[SceneEntry]:
        """All indexed scenes."""
        return list(self._entries)

    def insert(self, entry: SceneEntry) -> None:
        """Add one pre-built scene entry (the snapshot-rebuild path)."""
        self._entries.append(entry)
        self._matrix = None
        self._event_rows = None

    def centroid_matrix(self) -> np.ndarray:
        """Cached ``(N, 266)`` stack of every entry's centroid."""
        if self._matrix is None:
            self._matrix = (
                np.stack([entry.centroid for entry in self._entries])
                if self._entries
                else np.empty((0, 0))
            )
        return self._matrix

    def warm(self) -> None:
        """Pre-build the stacked matrix and the per-event rows
        (snapshot construction)."""
        self.centroid_matrix()
        self._rows_of(EventKind.UNKNOWN)

    def register(self, result: ClassMinerResult) -> int:
        """Index every kept scene of a mined video; returns scenes added."""
        events = result.scene_events()
        added = 0
        for scene in result.structure.scenes:
            features = np.stack(
                [
                    combine_features(shot.histogram, shot.texture)
                    for shot in scene.shots
                ]
            )
            self.insert(
                SceneEntry(
                    video_title=result.title,
                    scene_id=scene.scene_id,
                    event=events.get(scene.scene_id, EventKind.UNKNOWN),
                    shot_count=scene.shot_count,
                    centroid=features.mean(axis=0),
                )
            )
            added += 1
        return added

    def search(
        self,
        features: np.ndarray,
        k: int = 5,
        event: EventKind | None = None,
    ) -> list[RankedScene]:
        """Rank scenes by centroid similarity, optionally within an event.

        Raises :class:`DatabaseError` when the index is empty.
        """
        if not self._entries:
            raise DatabaseError("scene index is empty")
        rows = None
        if event is not None:
            rows = self._rows_of(event)
            if rows is None:
                return []
        scores = combined_stsim_to_many(features, self.centroid_matrix(), rows=rows)
        hits = []
        for position in top_k(scores, k).tolist():
            row = position if rows is None else int(rows[position])
            hits.append(
                RankedScene(entry=self._entries[row], score=float(scores[position]))
            )
        return hits

    def _rows_of(self, event: EventKind) -> np.ndarray | None:
        """Ascending rows of the scenes mined as ``event`` (None: none)."""
        if self._event_rows is None:
            grouped: dict[EventKind, list[int]] = {}
            for row, entry in enumerate(self._entries):
                grouped.setdefault(entry.event, []).append(row)
            self._event_rows = {
                kind: np.asarray(rows, dtype=np.intp)
                for kind, rows in grouped.items()
            }
        return self._event_rows.get(event)

    def similar_scenes(
        self, video_title: str, scene_id: int, k: int = 5
    ) -> list[RankedScene]:
        """Scenes most similar to an indexed scene (itself excluded)."""
        query = next(
            (
                entry
                for entry in self._entries
                if entry.video_title == video_title and entry.scene_id == scene_id
            ),
            None,
        )
        if query is None:
            raise DatabaseError(f"scene {video_title}/{scene_id} is not indexed")
        hits = self.search(query.centroid, k=k + 1)
        return [
            hit
            for hit in hits
            if not (
                hit.entry.video_title == video_title
                and hit.entry.scene_id == scene_id
            )
        ][:k]
