"""The video database: registration, indexing, search, persistence.

:class:`VideoDatabase` ties the pieces together.  Mined videos are
registered scene by scene: each scene's shots land in the hash index of
the scene-level concept node its mined event maps to (Fig. 2), the
index tree mirrors the concept hierarchy, and searches run through the
access controller.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.database.access import AccessController, User
from repro.database.flat import FlatIndex
from repro.database.hierarchy import (
    ConceptLevel,
    ConceptNode,
    build_medical_hierarchy,
    ensure_subject_area,
    scene_node_for,
)
from repro.database.index import (
    IndexNode,
    ShotEntry,
    build_node,
    combine_features,
)
from repro.database.query import QueryResult, search_hierarchical
from repro.errors import DatabaseError
from repro.types import EventKind

if TYPE_CHECKING:
    from repro.core.pipeline import ClassMinerResult


@dataclass
class RegisteredVideo:
    """Bookkeeping for one registered video.

    ``degraded_stages`` carries the mining pipeline's degradation flags
    (see :attr:`~repro.core.pipeline.ClassMinerResult.degraded_stages`)
    through persistence, so health checks and query results can report
    which corpus entries were mined from weakened evidence.
    """

    title: str
    shot_count: int
    scene_count: int
    events: dict[int, str] = field(default_factory=dict)
    degraded_stages: tuple[str, ...] = ()

    @property
    def degraded(self) -> bool:
        """True when any mining stage fell back for this video."""
        return bool(self.degraded_stages)


class VideoDatabase:
    """Hierarchical, access-controlled shot database."""

    def __init__(self, controller: AccessController | None = None) -> None:
        self._hierarchy = build_medical_hierarchy()
        self._controller = (
            controller if controller is not None else AccessController(self._hierarchy)
        )
        self._leaf_entries: dict[str, list[ShotEntry]] = {}
        self._videos: dict[str, RegisteredVideo] = {}
        self._index_root: IndexNode | None = None
        self._flat = FlatIndex()

    @property
    def hierarchy(self) -> ConceptNode:
        """The concept hierarchy root."""
        return self._hierarchy

    @property
    def controller(self) -> AccessController:
        """The access controller guarding searches."""
        return self._controller

    @property
    def videos(self) -> dict[str, RegisteredVideo]:
        """Registered videos by title."""
        return dict(self._videos)

    @property
    def shot_count(self) -> int:
        """Total indexed shots."""
        return len(self._flat)

    def register(self, result: ClassMinerResult) -> RegisteredVideo:
        """Register one mined video.

        Every shot of every kept scene is filed under the scene-level
        concept of the scene's mined event.  Shots from eliminated
        scenes are filed under the ``unknown`` concept so nothing is
        lost.  Re-registering a title raises :class:`DatabaseError`.
        """
        title = result.title
        if title in self._videos:
            raise DatabaseError(f"video {title!r} already registered")
        events = result.scene_events()

        record = RegisteredVideo(
            title=title,
            shot_count=result.structure.shot_count,
            scene_count=result.structure.scene_count,
            degraded_stages=tuple(result.degraded_stages),
        )
        assigned: set[int] = set()
        for scene in result.structure.scenes:
            event = events.get(scene.scene_id, EventKind.UNKNOWN)
            record.events[scene.scene_id] = event.value
            node = scene_node_for(self._hierarchy, title, event)
            for shot in scene.shots:
                entry = ShotEntry(
                    video_title=title,
                    shot_id=shot.shot_id,
                    scene_id=scene.scene_id,
                    features=combine_features(shot.histogram, shot.texture),
                )
                self._leaf_entries.setdefault(node.name, []).append(entry)
                self._flat.insert(entry)
                assigned.add(shot.shot_id)
        # Shots whose scene was eliminated: file under 'unknown'.
        node = scene_node_for(self._hierarchy, title, EventKind.UNKNOWN)
        for shot in result.structure.shots:
            if shot.shot_id in assigned:
                continue
            entry = ShotEntry(
                video_title=title,
                shot_id=shot.shot_id,
                scene_id=-1,
                features=combine_features(shot.histogram, shot.texture),
            )
            self._leaf_entries.setdefault(node.name, []).append(entry)
            self._flat.insert(entry)

        self._videos[title] = record
        self._index_root = None  # force rebuild
        return record

    def register_bulk(
        self,
        results: "Iterable[ClassMinerResult]",
        skip_registered: bool = False,
    ) -> list[RegisteredVideo]:
        """Register many mined videos (the ingest bulk path).

        Accepts any iterable — e.g. a generator lazily deserialising
        artifacts from an :class:`~repro.ingest.artifacts.ArtifactStore`
        — so only one result needs to be in memory at a time.  With
        ``skip_registered`` an already-present title is skipped instead
        of raising; the returned records cover only the videos added by
        this call.
        """
        records: list[RegisteredVideo] = []
        for result in results:
            if skip_registered and result.title in self._videos:
                continue
            records.append(self.register(result))
        return records

    def register_entries(
        self,
        title: str,
        scenes: "Iterable[tuple[int, EventKind, Iterable[np.ndarray]]]",
        degraded_stages: tuple[str, ...] = (),
    ) -> RegisteredVideo:
        """Register pre-featurised shots directly, bypassing the miner.

        ``scenes`` yields ``(scene_id, event, feature_vectors)``; shots
        receive sequential ids in iteration order and are filed exactly
        as :meth:`register` files mined scenes.  Used by synthetic
        corpus builders (storage smoke and benchmarks) and migration
        tooling; re-registering a title raises :class:`DatabaseError`.
        """
        if title in self._videos:
            raise DatabaseError(f"video {title!r} already registered")
        record = RegisteredVideo(
            title=title,
            shot_count=0,
            scene_count=0,
            degraded_stages=tuple(degraded_stages),
        )
        shot_id = 0
        for scene_id, event, feature_vectors in scenes:
            record.scene_count += 1
            record.events[int(scene_id)] = event.value
            node = scene_node_for(self._hierarchy, title, event)
            for features in feature_vectors:
                entry = ShotEntry(
                    video_title=title,
                    shot_id=shot_id,
                    scene_id=int(scene_id),
                    features=np.asarray(features, dtype=np.float64),
                )
                self._leaf_entries.setdefault(node.name, []).append(entry)
                self._flat.insert(entry)
                shot_id += 1
        record.shot_count = shot_id
        self._videos[title] = record
        self._index_root = None
        return record

    def unregister(self, title: str) -> int:
        """Remove a video and all its shots; returns entries removed.

        Raises :class:`DatabaseError` for unknown titles.  The
        hierarchical index is invalidated and rebuilt on next use.
        """
        if title not in self._videos:
            raise DatabaseError(f"video {title!r} is not registered")
        removed = 0
        for leaf, entries in list(self._leaf_entries.items()):
            kept = [entry for entry in entries if entry.video_title != title]
            removed += len(entries) - len(kept)
            if kept:
                self._leaf_entries[leaf] = kept
            else:
                del self._leaf_entries[leaf]
        remaining = [
            entry for entry in self._flat.entries if entry.video_title != title
        ]
        self._flat = FlatIndex(remaining)
        del self._videos[title]
        self._index_root = None
        return removed

    def describe(self) -> dict[str, int]:
        """Shot counts per scene-concept leaf (catalog statistics)."""
        return {
            leaf: len(entries)
            for leaf, entries in sorted(self._leaf_entries.items())
        }

    def leaf_entries(self) -> dict[str, list[ShotEntry]]:
        """Per-leaf shot entries, in leaf creation order (copied lists).

        The ordering is load-bearing: the durable storage layer persists
        leaves in this order so a lazily opened catalog rebuilds its
        index tree and hash buckets bit-identically.
        """
        return {
            leaf: list(entries) for leaf, entries in self._leaf_entries.items()
        }

    def clone_subset(self, titles: "Iterable[str]") -> "VideoDatabase":
        """A new in-RAM database holding only the given videos.

        The shard builder's partitioning primitive.  Orderings are
        preserved, not recomputed: each leaf keeps its surviving entries
        in the original creation order and the flat index keeps the
        original registration (global-ordinal) order, so within-shard
        relative order always equals the unsharded relative order — the
        invariant the scatter-gather merge relies on for bit-identical
        tie-breaks.  Unknown titles raise :class:`DatabaseError`;
        registration records (events, degradation flags) are copied.
        """
        wanted = set(titles)
        missing = wanted - set(self._videos)
        if missing:
            raise DatabaseError(
                f"cannot clone unregistered videos: {sorted(missing)}"
            )
        clone = VideoDatabase()
        for leaf, entries in self._leaf_entries.items():
            kept = [entry for entry in entries if entry.video_title in wanted]
            if not kept:
                continue
            if "/" in leaf:
                ensure_subject_area(clone._hierarchy, leaf.split("/", 1)[0])
            clone._leaf_entries[leaf] = kept
        clone._flat = FlatIndex(
            [
                entry
                for entry in self._flat.entries
                if entry.video_title in wanted
            ]
        )
        for title in self._videos:
            if title not in wanted:
                continue
            record = self._videos[title]
            clone._videos[title] = RegisteredVideo(
                title=record.title,
                shot_count=record.shot_count,
                scene_count=record.scene_count,
                events=dict(record.events),
                degraded_stages=record.degraded_stages,
            )
        return clone

    def build_index(self) -> IndexNode:
        """(Re)build the hierarchical index mirroring the concept tree."""
        if not self._videos:
            raise DatabaseError("no videos registered")
        root = self._build_subtree(self._hierarchy)
        if root is None:
            raise DatabaseError("index is empty after build")
        self._index_root = root
        return root

    def _build_subtree(
        self, concept: ConceptNode, ordinal_of: dict | None = None
    ) -> IndexNode | None:
        if ordinal_of is None:
            # Flat ordinals, the identity leaves dedup on across a search.
            # Keyed by object: the leaf lists and the flat index file the
            # same entry objects, and int keys cost the collector nothing.
            ordinal_of = {id(entry): i for i, entry in enumerate(self._flat.entries)}
        if concept.level is ConceptLevel.SCENE or not concept.children:
            entries = self._leaf_entries.get(concept.name, [])
            if not entries:
                return None
            return build_node(
                concept.name,
                concept.level.depth,
                entries=entries,
                ordinals=np.array([ordinal_of[id(entry)] for entry in entries]),
            )
        children = [
            child_node
            for child in concept.children
            if (child_node := self._build_subtree(child, ordinal_of)) is not None
        ]
        if not children:
            return None
        return build_node(concept.name, concept.level.depth, children=children)

    @property
    def index_root(self) -> IndexNode:
        """The hierarchical index (built on demand)."""
        if self._index_root is None:
            self.build_index()
        assert self._index_root is not None
        return self._index_root

    @property
    def flat_index(self) -> FlatIndex:
        """The Eq. (24) linear-scan baseline over the same entries."""
        return self._flat

    def search(
        self,
        features: np.ndarray,
        user: User | None = None,
        k: int = 10,
    ) -> QueryResult:
        """Hierarchical search, access-filtered when a user is given."""
        allowed = None
        if user is not None:
            allowed = self._controller.permitted_leaves(user)
        return search_hierarchical(self.index_root, features, k=k, allowed_leaves=allowed)

    def search_flat(self, features: np.ndarray, k: int = 10) -> QueryResult:
        """Baseline linear scan (no hierarchy, no access filter)."""
        return self._flat.search(features, k=k)

    # ------------------------------------------------------------------
    # Persistence.
    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Serialise the catalog (entries + registrations) to JSON.

        The write is atomic: the payload lands in a temp file in the
        target directory and is renamed into place, so a crash (or a
        serialisation error) mid-save can never leave a truncated
        catalog where a valid one stood.
        """
        payload = {
            "videos": {
                title: {
                    "shot_count": video.shot_count,
                    "scene_count": video.scene_count,
                    "events": video.events,
                    "degraded_stages": list(video.degraded_stages),
                }
                for title, video in self._videos.items()
            },
            "leaves": {
                leaf: [
                    {
                        "video_title": entry.video_title,
                        "shot_id": entry.shot_id,
                        "scene_id": entry.scene_id,
                        "features": entry.features.tolist(),
                    }
                    for entry in entries
                ]
                for leaf, entries in self._leaf_entries.items()
            },
        }
        target = Path(path)
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{target.name}.", suffix=".tmp", dir=target.parent or "."
        )
        tmp = Path(tmp_name)
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(payload))
            os.replace(tmp, target)
        finally:
            tmp.unlink(missing_ok=True)

    @classmethod
    def load(cls, path: str | Path) -> "VideoDatabase":
        """Restore a catalog written by :meth:`save`."""
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise DatabaseError(f"cannot load database from {path}: {exc}") from exc
        db = cls()
        for leaf, entries in payload.get("leaves", {}).items():
            if "/" in leaf:
                # Recreate on-demand subject areas ('general/...').
                ensure_subject_area(db._hierarchy, leaf.split("/", 1)[0])
            for raw in entries:
                entry = ShotEntry(
                    video_title=raw["video_title"],
                    shot_id=int(raw["shot_id"]),
                    scene_id=int(raw["scene_id"]),
                    features=np.asarray(raw["features"], dtype=np.float64),
                )
                db._leaf_entries.setdefault(leaf, []).append(entry)
                db._flat.insert(entry)
        for title, raw in payload.get("videos", {}).items():
            db._videos[title] = RegisteredVideo(
                title=title,
                shot_count=int(raw["shot_count"]),
                scene_count=int(raw["scene_count"]),
                events={int(k): v for k, v in raw.get("events", {}).items()},
                degraded_stages=tuple(raw.get("degraded_stages", ())),
            )
        return db
