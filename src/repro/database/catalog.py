"""The video database: registration, indexing, search, persistence.

:class:`VideoDatabase` ties the pieces together.  Mined videos are
registered scene by scene: each scene's shots land in the hash index of
the scene-level concept node its mined event maps to (Fig. 2), the
index tree mirrors the concept hierarchy, and searches run through the
access controller.
"""

from __future__ import annotations

import mmap
import weakref
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from repro.database.access import AccessController, User
from repro.database.flat import FlatIndex
from repro.database.hierarchy import (
    ConceptNode,
    build_medical_hierarchy,
    scene_node_for,
)
from repro.database.index import (
    IndexNode,
    LeafHashIndex,
    LeafRows,
    build_index_tree,
    combine_features,
)
from repro.database.query import QueryResult, search_hierarchical
from repro.database.scene_search import SceneIndex, corpus_scenes, scene_runs
from repro.errors import DatabaseError, UnknownVideoError
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


class _LeafBuffer:
    """One leaf's columns while videos are being filed under it.

    Rows are written in place, with amortised doubling, and never
    rewritten: the :class:`LeafRows` cut earlier (``[:count]`` views, held
    by a sealed leaf, an index tree, a snapshot) stay valid through later
    appends, and the corpus is held once — not as chunks plus a copy.
    """

    def __init__(self, rows: LeafRows) -> None:
        self._columns = list(rows)
        self._count = rows.block.shape[0]

    def append(self, features, ordinal: int, title: str, shot_ids, scene_id: int) -> None:
        """File one scene's shots: ``features`` is ``(m, width)`` rows, or a list of them."""
        end = self._count + len(shot_ids)
        capacity = self._columns[0].shape[0]
        if end > capacity:  # also the first append over a stored leaf's mmap
            capacity = max(end, 2 * capacity, 4096)
            # The block goes on plain anonymous pages, sized generously
            # (they cost nothing until written): NumPy hints MADV_HUGEPAGE
            # on allocations of 4 MiB and up, and faulting 2 MiB pages in
            # at every doubling made the corpus build 40 % slower.
            width = self._columns[0].shape[1]
            pages = mmap.mmap(-1, 8 * capacity * width, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
            grown = [np.frombuffer(pages).reshape(capacity, width)] + [
                np.empty((capacity, *c.shape[1:]), c.dtype) for c in self._columns[1:]
            ]
            for new, column in zip(grown, self._columns):
                new[: self._count] = column[: self._count]
            self._columns = grown
        values = (features, range(ordinal, ordinal + len(shot_ids)), title, shot_ids, scene_id)
        for column, value in zip(self._columns, values):
            column[self._count : end] = value
        self._count = end

    def rows(self) -> LeafRows:
        return LeafRows(*(column[: self._count] for column in self._columns))


class VideoDatabase:
    """Hierarchical, access-controlled shot database.

    The corpus is an ordered map of scene-concept leaf name ->
    :class:`~repro.database.index.LeafHashIndex` (the leaf's rows as
    columns, its routing, its hash table), the registration records and
    the scene-centroid table derived from the leaves.  Registration
    appends rows to the leaves' buffers; the next read seals new leaves
    over them — a sealed leaf never sees a row change, so an index tree,
    a flat view or a snapshot handed out earlier keeps answering from
    the rows it was built over.
    """

    def __init__(self, controller: AccessController | None = None) -> None:
        self._hierarchy = build_medical_hierarchy()
        self._controller = (
            controller if controller is not None else AccessController(self._hierarchy)
        )
        self._leaves: dict[str, LeafHashIndex] = {}
        self._buffers: dict[str, _LeafBuffer] = {}
        self._unsealed: dict[str, None] = {}  # leaf names, in filing order
        self._total = 0
        self._videos: dict[str, RegisteredVideo] = {}
        self._index_root: IndexNode | None = None
        self._flat: FlatIndex | None = None
        self._scenes: SceneIndex | None = None

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
        return self._total

    def close(self) -> None:
        """Release storage handles (a registered corpus holds none)."""

    def _file(self, title: str, event: EventKind, features, shot_ids, scene_id: int) -> None:
        """Append one scene's shots to its event's leaf, in flat-ordinal order (the
        leaf is looked up even for no shots: the first lookup creates the subject area)."""
        leaf = scene_node_for(self._hierarchy, title, event).name
        if not len(shot_ids):
            return
        if leaf not in self._buffers:
            if leaf in self._leaves:
                rows = self._leaves[leaf].rows
            else:
                rows = LeafRows.from_entries([], [])._replace(block=np.empty((0, len(features[0]))))
            self._buffers[leaf] = _LeafBuffer(rows)
        self._buffers[leaf].append(features, self._total, title, shot_ids, scene_id)
        self._unsealed[leaf] = None
        self._total += len(shot_ids)

    def _changed(self) -> None:
        self._index_root = self._flat = self._scenes = None

    def register(self, result: ClassMinerResult) -> RegisteredVideo:
        """Register one mined video (see :meth:`register_shots` for the filing rule)."""
        shots = result.structure.shots
        events = result.scene_events()
        return self.register_shots(
            result.title,
            [shot.shot_id for shot in shots],
            np.array([combine_features(shot.histogram, shot.texture) for shot in shots]),
            [
                (scene.scene_id, events.get(scene.scene_id, EventKind.UNKNOWN), scene.shot_ids)
                for scene in result.structure.scenes
            ],
            result.degraded_stages,
        )

    def register_shots(
        self,
        title: str,
        shot_ids: "Sequence[int]",
        features: np.ndarray,
        scenes: "Iterable[tuple[int, EventKind, Sequence[int]]]",
        degraded_stages: "Iterable[str]" = (),
    ) -> RegisteredVideo:
        """File one video's shots by scene: the one filing rule.

        ``features[i]`` is the 266-d row of shot ``shot_ids[i]``;
        ``scenes`` yields ``(scene_id, event, member shot ids)`` for the
        kept scenes.  Every member shot is filed under the scene-level
        concept of the scene's mined event; shots no kept scene names
        (their scene was eliminated) are filed under the ``unknown``
        concept so nothing is lost.  Re-registering a title raises
        :class:`DatabaseError`.
        """
        if title in self._videos:
            raise DatabaseError(f"video {title!r} already registered")
        row_of = {shot_id: row for row, shot_id in enumerate(shot_ids)}
        record = RegisteredVideo(
            title=title,
            shot_count=len(shot_ids),
            scene_count=0,
            degraded_stages=tuple(degraded_stages),
        )
        assigned: set[int] = set()
        for scene_id, event, members in scenes:
            record.scene_count += 1
            record.events[scene_id] = event.value
            rows = features[[row_of[shot_id] for shot_id in members]]
            self._file(title, event, rows, list(members), scene_id)
            assigned.update(members)
        orphans = [s for s in shot_ids if s not in assigned]
        self._file(title, EventKind.UNKNOWN, features[[row_of[s] for s in orphans]], orphans, -1)

        self._videos[title] = record
        self._changed()
        return record

    def register_bulk(
        self, results: "Iterable[ClassMinerResult]"
    ) -> list[RegisteredVideo]:
        """Register many mined videos, returning their records.

        Accepts any iterable — e.g. a generator lazily deserialising
        artifacts from an :class:`~repro.ingest.artifacts.ArtifactStore`
        — so only one result needs to be in memory at a time.
        """
        return [self.register(result) for result in results]

    def register_entries(
        self,
        title: str,
        scenes: "Iterable[tuple[int, EventKind, np.ndarray | Sequence[np.ndarray]]]",
        degraded_stages: tuple[str, ...] = (),
    ) -> RegisteredVideo:
        """Register pre-featurised shots directly, bypassing the miner.

        ``scenes`` yields ``(scene_id, event, features)``: a scene's
        ``(m, 266)`` rows or a list of them, filed in one slice; shots
        receive sequential ids in iteration order and are filed exactly
        as :meth:`register` files mined scenes.  Re-registering a title
        or listing a scene id twice raises :class:`DatabaseError`.
        """
        if title in self._videos:
            raise DatabaseError(f"video {title!r} already registered")
        scenes = list(scenes)
        if len({int(scene_id) for scene_id, _, _ in scenes}) < len(scenes):
            raise DatabaseError(f"video {title!r} lists a scene id twice")
        record = RegisteredVideo(
            title=title,
            shot_count=0,
            scene_count=0,
            degraded_stages=tuple(degraded_stages),
        )
        for scene_id, event, features in scenes:
            record.scene_count += 1
            record.events[int(scene_id)] = event.value
            shot_ids = range(record.shot_count, record.shot_count + len(features))
            self._file(title, event, features, shot_ids, int(scene_id))
            record.shot_count += len(features)
        self._videos[title] = record
        self._changed()
        return record

    @property
    def leaves(self) -> dict[str, LeafHashIndex]:
        """The corpus: leaf name -> leaf, in leaf creation order.

        The ordering is load-bearing: the durable storage layer persists
        leaves in this order so an opened store rebuilds its index tree
        bit-identically.  Rows registered since the last read are
        sealed into their leaves here.
        """
        for name in self._unsealed:
            self._leaves[name] = LeafHashIndex(self._buffers[name].rows())
        self._unsealed = {}
        return self._leaves

    def unregister(self, title: str) -> int:
        """Remove a video and all its shots; returns entries removed.

        Raises :class:`UnknownVideoError` for unknown titles.  Relative
        order is preserved, within each leaf and across the corpus
        (ordinals are renumbered by rank); emptied leaves are dropped.  A
        leaf that loses no row keeps its arrays, its routing and the ANN
        tier it trained; one that loses some derives its routing again
        from the rows it kept.  The hierarchical index is invalidated and
        rebuilt on next use.
        """
        if title not in self._videos:
            raise UnknownVideoError(f"video {title!r} is not registered")
        before = self._total
        del self._videos[title]
        keeps = {
            name: np.fromiter(map(self._videos.__contains__, leaf.titles.tolist()), bool, len(leaf))
            for name, leaf in self.leaves.items()
        }
        found = [self._leaves[name].ordinals[keep] for name, keep in keeps.items()]
        kept = np.sort(np.concatenate([np.empty(0, dtype=np.int64), *found]))
        leaves: dict[str, LeafHashIndex] = {}
        for name, keep in keeps.items():
            if not keep.any():
                continue
            leaf, whole = self._leaves[name], bool(keep.all())
            keep = slice(None) if whole else keep
            rows = LeafRows(*(column[keep] for column in leaf.rows))
            leaves[name] = cut = LeafHashIndex(
                rows._replace(ordinals=np.searchsorted(kept, rows.ordinals)),
                *((leaf.centers, leaf.dims) if whole else ()),
                ann=leaf.ann if whole else None,
            )
            if whole:
                cut.reduced, cut.signatures = leaf.reduced, leaf.signatures
        self._leaves, self._total = leaves, int(kept.size)
        self._buffers = {}  # the kept rows are new arrays
        self._changed()
        return before - self._total

    def describe(self) -> dict[str, int]:
        """Shot counts per scene-concept leaf (catalog statistics)."""
        return {name: len(leaf) for name, leaf in sorted(self.leaves.items())}

    def build_index(self) -> IndexNode:
        """(Re)build the hierarchical index mirroring the concept tree."""
        if not self._videos:
            raise DatabaseError("no videos registered")
        root = build_index_tree(self._hierarchy, self.leaves)
        if root is None:
            raise DatabaseError("index is empty after build")
        self._index_root = root
        return root

    @property
    def index_root(self) -> IndexNode:
        """The hierarchical index (built on demand)."""
        if self._index_root is None:
            self.build_index()
        assert self._index_root is not None
        return self._index_root

    @property
    def flat_index(self) -> FlatIndex:
        """The Eq. (24) linear-scan baseline over the same leaves."""
        if self._flat is None:
            self._flat = FlatIndex(self.leaves.values())
        return self._flat

    @property
    def scene_index(self) -> SceneIndex:
        """Scene-centroid search over the corpus's kept scenes; the first
        scene search builds its table from the leaves and records as they
        are when this is read (a snapshot that gets none holds none)."""
        if self._scenes is None:
            leaves = list(self.leaves.values())
            self._scenes = SceneIndex(
                partial(corpus_scenes, leaves, dict(self._videos)),
                count=sum(scene_runs(leaf)[0].size for leaf in leaves),
            )
        return self._scenes

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
        return self.flat_index.search(features, k=k)


def close_when_released(database: VideoDatabase, holder: object | None) -> None:
    """Close a superseded ``database`` now (``holder`` None: nothing pinned
    it) or as ``holder`` — what readers pin its generation through, a
    snapshot or a shard's state, in no reference cycle — is freed."""
    if holder is None:
        database.close()
    else:
        weakref.finalize(holder, database.close)
