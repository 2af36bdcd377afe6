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
from functools import partial
from itertools import chain
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.core.kernels import combined_stsim_to_many, scan_chunks, top_k
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


def scene_runs(leaf: LeafHashIndex) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, stops)``: the rows ``[start, stop)`` of each kept scene in ``leaf``.

    A scene is filed whole, by one append, so its shots are one run of
    one leaf's rows (cutting or saving a corpus keeps rows in order);
    shots of an eliminated scene (``scene_id == -1``) are skipped.
    """
    titles, scene_ids = leaf.titles, leaf.scene_ids
    edges = np.ones(scene_ids.size + 1, dtype=bool)  # row 0 and the end close runs too
    edges[1:-1] = (titles[1:] != titles[:-1]) | (scene_ids[1:] != scene_ids[:-1])
    bounds = np.flatnonzero(edges)
    kept = scene_ids[bounds[:-1]] >= 0
    return bounds[:-1][kept], bounds[1:][kept]


def corpus_scenes(
    leaves: "Iterable[LeafHashIndex]",
    records: "Mapping[str, RegisteredVideo]",
    store=None,
    centroids: np.ndarray | None = None,
) -> SceneTable:
    """Scene centroids of a corpus, from its leaves' rows.

    The registration record supplies the mined event.  Scenes come out
    sorted by ``(title, scene_id)`` — the stored row order — and their
    centroids are ``centroids`` when given (a block a save stored) or
    :func:`centroid_rows`, summed into a RAM array.  Given
    ``store(rows, shape)`` (a save's), they are handed over instead, a
    scratch chunk at a time, and the table comes back with the block it
    returns and no events: a save stores none.
    """
    # Runs stay columns: a Python tuple per scene, alive while the centroid
    # block is allocated, raised a served corpus's peak RSS by ~0.3 MiB.
    leaves = [leaf for leaf in leaves if len(leaf)]
    runs = [scene_runs(leaf) for leaf in leaves]
    which = np.repeat(np.arange(len(leaves)), [starts.size for starts, _ in runs])
    if not which.size:
        return _NO_SCENES
    columns = [(leaf.titles[a], leaf.scene_ids[a], a, b) for leaf, (a, b) in zip(leaves, runs)]
    titles, scene_ids, starts, stops = (np.concatenate(column) for column in zip(*columns))
    order = np.lexsort((scene_ids, titles))
    titles, scene_ids, starts, stops, which = (
        column[order] for column in (titles, scene_ids, starts, stops, which)
    )
    shot_counts = (stops - starts).astype(np.int64)
    shape = (which.size, leaves[0].block.shape[1])
    if centroids is None:
        centroids = centroid_rows([leaves[w].block for w in which.tolist()], starts, shot_counts)
        if store is None:  # copied out of the scratch row by row, into one RAM array
            centroids = np.fromiter(chain.from_iterable(centroids), np.dtype((float, shape[1])), shape[0])
    if store is not None:
        return SceneTable(titles, scene_ids, None, shot_counts, store(centroids, shape))
    unknown = EventKind.UNKNOWN
    events = [EventKind(records[t].events.get(s, unknown.value)) if t in records else unknown
              for t, s in zip(titles.tolist(), scene_ids.tolist())]
    return SceneTable(titles, scene_ids, np.array(events, dtype=object), shot_counts, centroids)


def centroid_rows(blocks: "list[np.ndarray]", starts: np.ndarray, counts: np.ndarray):
    """Scene ``i``'s centroid is the sum of ``blocks[i][starts[i]:][:counts[i]]``
    (its run of leaf rows, :func:`scene_runs`) over ``counts[i]`` — bit for
    bit ``block[run].mean(axis=0)``.  The one place a scene centroid is
    computed; yielded a chunk of rows at a time in the kernels' per-thread
    scratch, which the next chunk overwrites."""
    for first, last, scratch in scan_chunks(len(blocks), blocks[0].shape[1]):
        for row in range(first, last):
            run = blocks[row][starts[row] : starts[row] + counts[row]]
            np.add.reduce(run, axis=0, out=scratch[row - first])
        scratch /= counts[first:last, None]
        yield scratch


class SceneIndex:
    """Flat index of scene centroids with optional event filtering.

    ``count`` scenes behind a callable that makes their
    :class:`SceneTable` on the first search, once, under a lock (none: no
    scenes) — an opened store maps its stored centroid block, a registered
    corpus runs :func:`corpus_scenes`, a shard worker cuts its share of
    the catalog's; the first two also take a save's ``store`` and the
    ``centroids`` it stored (:meth:`adopt`) — plus each event's row
    indices.  A search is one blocked kernel call over the centroid
    matrix and only the ``k`` winners become :class:`RankedScene` objects.
    """

    def __init__(
        self, source: "Callable[..., SceneTable]" = lambda **_: _NO_SCENES, count: int = 0
    ) -> None:
        self._load_lock = threading.Lock()
        self._count, self._source = count, source

    def _install(self, table: SceneTable) -> None:
        self._count = len(table.titles)
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

    def adopt(self, store) -> SceneTable:
        """Hand the centroids to ``store(rows, shape)`` — a save's — and read
        the read-only block it returns from here on; return the table the
        save writes.  A table not built yet stays unbuilt: its source
        streams them, a scratch chunk at a time, and is pointed at the
        block stored, so the table and its event rows are made on the
        first search."""
        with self._load_lock:
            table = self.__dict__.get("table")
            if table is not None:
                self.table = table._replace(centroids=store(table.centroids, None))
                return self.table
            saved = self._source(store=store)
            self._source = partial(self._source, centroids=saved.centroids)
            return saved

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
