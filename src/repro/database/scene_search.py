"""Scene-level retrieval: query at the granularity of Fig. 1's scene nodes.

Shot-level search answers "find this picture"; scene-level search
answers "find passages that look like this one".  Each registered
scene is summarised by a centroid feature vector (the mean of its
member shots' combined features — the natural analogue of the paper's
representative-group centroid in feature space) and queries rank scenes
by Eq. (1)-style similarity to that centroid.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable, Mapping, Set as AbstractSet
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.core.kernels import combined_stsim_to_many, top_k
from repro.database.events_query import event_concept
from repro.database.index import LeafHashIndex
from repro.errors import DatabaseError
from repro.types import EventKind

if TYPE_CHECKING:
    from repro.database.catalog import RegisteredVideo


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
        Mean combined feature vector of the member shots; ``None`` on a
        hit that crossed a wire (:class:`~repro.serving.engine.QueryFront`).
    """

    video_title: str
    scene_id: int
    event: EventKind
    shot_count: int
    centroid: np.ndarray | None = field(repr=False, hash=False, compare=False)


@dataclass(frozen=True)
class RankedScene:
    """One scene-search hit."""

    entry: SceneEntry
    score: float


class SceneTable(NamedTuple):
    """Every indexed scene as columns, one row per scene.

    ``centroids`` is ``(S, 266)`` float64 (a RAM array, or the stored
    centroid block's read-only mmap); ``events`` holds
    :class:`~repro.types.EventKind` members.
    """

    titles: np.ndarray
    scene_ids: np.ndarray
    events: np.ndarray
    shot_counts: np.ndarray
    centroids: np.ndarray


_NO_ROWS = np.empty(0, dtype=np.intp)

_NO_SCENES = SceneTable(
    np.empty(0, dtype=object), np.empty(0, dtype=np.int64),
    np.empty(0, dtype=object), np.empty(0, dtype=np.int64), np.empty((0, 0)),
)


def corpus_scenes(
    leaves: "Iterable[LeafHashIndex]", records: "Mapping[str, RegisteredVideo]"
) -> SceneTable:
    """Scene centroids of a corpus, from its leaves' rows.

    The one place a scene centroid is computed.  The catalog indexes
    shots, not scenes; grouping a leaf's rows by ``(title, scene_id)``
    recovers each kept scene's member shots (a scene is filed whole
    under one leaf, its shots in flat-ordinal order), the centroid is
    the mean of their ``(m, 266)`` rows, and the registration record
    supplies the mined event.  Shots of an eliminated scene
    (``scene_id == -1``) carry no scene identity and are skipped.
    Scenes come out sorted by ``(title, scene_id)`` — the stored row
    order.
    """
    members: dict[tuple[str, int], tuple[np.ndarray, list[int]]] = {}
    for leaf in leaves:
        kept = np.flatnonzero(leaf.scene_ids >= 0)
        for row, title, scene_id in zip(
            kept.tolist(), leaf.titles[kept].tolist(), leaf.scene_ids[kept].tolist()
        ):
            if (title, scene_id) not in members:
                members[title, scene_id] = (leaf.block, [])
            members[title, scene_id][1].append(row)
    if not members:
        return _NO_SCENES
    scenes = sorted(members.items())
    events = []
    centroids = np.empty((len(scenes), scenes[0][1][0].shape[1]))
    for row, ((title, scene_id), (block, rows)) in enumerate(scenes):
        record = records.get(title)
        events.append(
            EventKind(record.events.get(scene_id, EventKind.UNKNOWN.value))
            if record
            else EventKind.UNKNOWN
        )
        block[rows].mean(axis=0, out=centroids[row])
    return SceneTable(
        titles=np.array([title for (title, _), _ in scenes], dtype=object),
        scene_ids=np.array([scene_id for (_, scene_id), _ in scenes], dtype=np.int64),
        events=np.array(events, dtype=object),
        shot_counts=np.array([len(rows) for _, (_, rows) in scenes], dtype=np.int64),
        centroids=centroids,
    )


def scene_count(leaves: "Iterable[LeafHashIndex]") -> int:
    """How many scenes :func:`corpus_scenes` finds, read off the row columns."""
    pairs = (zip(leaf.titles.tolist(), leaf.scene_ids.tolist()) for leaf in leaves)
    return len({pair for rows in pairs for pair in rows if pair[1] >= 0})


class SceneIndex:
    """Flat index of scene centroids with optional event filtering.

    ``count`` scenes behind a callable that makes their
    :class:`SceneTable` on the first search, once, under a lock — an
    opened store maps its stored centroid block, a registered corpus runs
    :func:`corpus_scenes` — plus each event's row indices.  A search is
    one blocked kernel call over the centroid matrix and only the ``k``
    winners become :class:`RankedScene` objects.
    """

    def __init__(
        self, table: "Callable[[], SceneTable]" = lambda: _NO_SCENES, count: int = 0
    ) -> None:
        self._count = count
        self._source = table
        self._load_lock = threading.Lock()

    def _install(self, table: SceneTable) -> None:
        by_event: dict[EventKind, list[int]] = {}
        by_concept: dict[str, list[int]] = {}
        pairs = zip(table.titles.tolist(), table.events.tolist())
        for row, (title, event) in enumerate(pairs):
            by_event.setdefault(event, []).append(row)
            by_concept.setdefault(event_concept(title, event), []).append(row)
        self._event_rows = {
            kind: np.asarray(rows, dtype=np.intp) for kind, rows in by_event.items()
        }
        self._concept_rows = {
            concept: np.asarray(rows, dtype=np.intp) for concept, rows in by_concept.items()
        }
        self.table = table

    def __getattr__(self, name: str):
        # Reached only while ``table`` is not set: its first touch.
        if name != "table":
            raise AttributeError(name)
        with self._load_lock:
            if "table" not in self.__dict__:
                self._install(self._source())
        return self.__dict__["table"]

    def __len__(self) -> int:
        return self._count

    def entry(self, row: int) -> SceneEntry:
        """The scene stored at ``row``."""
        table = self.table
        return SceneEntry(
            video_title=table.titles[row],
            scene_id=int(table.scene_ids[row]),
            event=table.events[row],
            shot_count=int(table.shot_counts[row]),
            centroid=table.centroids[row],
        )

    @property
    def entries(self) -> list[SceneEntry]:
        """Every indexed scene in row order (materialises one object each)."""
        return [self.entry(row) for row in range(len(self))]

    def search(
        self,
        features: np.ndarray,
        k: int = 5,
        event: EventKind | None = None,
        allowed: AbstractSet[str] | None = None,
    ) -> list[RankedScene]:
        """Rank scenes by centroid similarity, optionally within an event.

        ``allowed`` is an access scope: only scenes whose
        :func:`~repro.database.events_query.event_concept` it names are
        ranked, so a scoped search still returns its ``k`` best.  Raises
        :class:`DatabaseError` when the index is empty.
        """
        if not len(self):
            raise DatabaseError("scene index is empty")
        table = self.table
        rows = None
        if event is not None:
            rows = self._event_rows.get(event, _NO_ROWS)
        if allowed is not None:
            permitted = [own for name, own in self._concept_rows.items() if name in allowed]
            scoped = np.sort(np.concatenate(permitted)) if permitted else _NO_ROWS
            rows = scoped if rows is None else np.intersect1d(rows, scoped)
        if rows is not None and not rows.size:
            return []
        scores = combined_stsim_to_many(features, table.centroids, rows=rows)
        hits = []
        for position in top_k(scores, k).tolist():
            row = position if rows is None else int(rows[position])
            hits.append(RankedScene(entry=self.entry(row), score=float(scores[position])))
        return hits
