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

from repro.database.index import (
    combine_features,
    feature_similarity_batch,
)
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

    Centroids are stacked into one cached matrix (rebuilt lazily after
    inserts) so a search is one batched kernel call.
    """

    def __init__(self) -> None:
        self._entries: list[SceneEntry] = []
        self._matrix: np.ndarray | None = None

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
        """Pre-build the stacked matrix (snapshot construction)."""
        self.centroid_matrix()

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
        matrix = self.centroid_matrix()
        if event is not None:
            keep = [i for i, entry in enumerate(self._entries) if entry.event is event]
            if not keep:
                return []
            candidates = [self._entries[i] for i in keep]
            matrix = matrix[keep]
        else:
            candidates = self._entries
        scores = feature_similarity_batch(features, matrix)
        hits = [
            RankedScene(entry=entry, score=float(score))
            for entry, score in zip(candidates, scores)
        ]
        hits.sort(key=lambda hit: hit.score, reverse=True)
        return hits[:k]

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
