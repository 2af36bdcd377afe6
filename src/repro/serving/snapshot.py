"""Immutable, versioned read snapshots of the database indexes.

A long-running :class:`~repro.serving.server.QueryServer` must keep
answering queries while ``classminer ingest`` lands new videos.  The
snapshot layer makes that safe without read locks:

* :class:`Snapshot` freezes one *generation* of the hierarchical index,
  the flat baseline, the derived scene index and the registration
  records.  Everything it holds is either immutable or privately
  copied, so concurrent caller threads can search it freely while the
  live :class:`~repro.database.catalog.VideoDatabase` mutates.
* :class:`SnapshotManager` owns the current snapshot and swaps it
  atomically (a single attribute store) when :meth:`~SnapshotManager.refresh`
  builds the next generation.  Readers never block: they either see the
  old generation or the new one, never a half-built index.
* :meth:`SnapshotManager.install` hands the manager a new database
  (after an ingest run: ``install(load_database(db_dir))``) and
  :meth:`~SnapshotManager.refresh` re-reads the one it has; those are
  the two ways a server is moved to a new generation, both explicit.

Generations are strictly increasing integers; the result cache keys on
them, which is what makes stale reads after an ingest impossible.
"""

from __future__ import annotations

import logging
import threading
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.database.access import AccessController, User
from repro.database.catalog import RegisteredVideo, VideoDatabase, close_when_released
from repro.database.events_query import EventHit, query_event_records
from repro.database.flat import FlatIndex
from repro.database.index import IndexNode, LeafHashIndex
from repro.database.query import QueryResult, search_hierarchical
from repro.database.scene_search import RankedScene, SceneIndex
from repro.errors import ReproError, ServingError
from repro.obs.registry import get_registry
from repro.resilience.faults import fault_point
from repro.types import EventKind

_LOGGER = logging.getLogger(__name__)


@dataclass(frozen=True)
class Snapshot:
    """One frozen, queryable generation of the database.

    Attributes
    ----------
    generation:
        Strictly increasing version number; part of every cache key.
    index_root:
        The hierarchical index tree of this generation.  The catalog
        never mutates a built tree in place (registration invalidates
        and rebuilds), so holding the root pins the whole structure.
    leaves:
        The leaf name -> leaf mapping, in catalog order, the tree and the
        flat view were built over (a sharded front packs owners from it).
    flat:
        The Eq. (24) linear-scan baseline over this generation's leaves.
    scenes:
        Scene-centroid index of this generation.
    records:
        Registration records by title (for event queries).
    controller:
        The access controller guarding this snapshot's searches.
    """

    generation: int
    index_root: IndexNode
    leaves: dict[str, LeafHashIndex]
    flat: FlatIndex
    scenes: SceneIndex
    records: dict[str, RegisteredVideo]
    controller: AccessController
    shot_count: int = 0

    @property
    def videos(self) -> tuple[str, ...]:
        """Registered titles, sorted."""
        return tuple(sorted(self.records))

    @cached_property
    def degraded_videos(self) -> tuple[str, ...]:
        """Titles whose mining fell back somewhere (sorted; read per query)."""
        return tuple(
            sorted(
                title
                for title, record in self.records.items()
                if record.degraded_stages
            )
        )

    def permitted_leaves(self, user: User) -> frozenset[str]:
        """Leaf concepts the user may enter (audited on the controller)."""
        return frozenset(self.controller.permitted_leaves(user))

    def search(
        self,
        features: np.ndarray,
        user: User | None = None,
        k: int = 10,
        allowed_leaves: frozenset[str] | set[str] | None = None,
        nprobe: int | None = None,
        rerank_k: int | None = None,
    ) -> QueryResult:
        """Hierarchical shot search against this generation.

        ``allowed_leaves`` short-circuits the access computation when the
        caller (the server) already resolved the user's permitted set —
        passing both is fine, the explicit set wins.  ``nprobe`` /
        ``rerank_k`` enable the approximate leaf tier (see
        :func:`~repro.database.query.search_hierarchical`); None keeps
        every leaf scan exact.
        """
        if user is not None and allowed_leaves is None:
            allowed_leaves = self.permitted_leaves(user)
        return search_hierarchical(
            self.index_root,
            features,
            k=k,
            allowed_leaves=allowed_leaves,
            nprobe=nprobe,
            rerank_k=rerank_k,
        )

    def search_flat(self, features: np.ndarray, k: int = 10) -> QueryResult:
        """Linear-scan baseline search (no access filter — see server)."""
        return self.flat.search(features, k=k)

    def search_scenes(
        self,
        features: np.ndarray,
        k: int = 5,
        event: EventKind | None = None,
        allowed: frozenset[str] | None = None,
    ) -> list[RankedScene]:
        """Scene-centroid search against this generation, within ``allowed``'s concepts."""
        return self.scenes.search(features, k=k, event=event, allowed=allowed)

    def query_events(
        self,
        kind: EventKind,
        user: User | None = None,
        video_title: str | None = None,
    ) -> list[EventHit]:
        """Event query over this generation's registration records."""
        return query_event_records(
            self.records, self.controller, kind, user=user, video_title=video_title
        )


def _warm_center_blocks(root: IndexNode) -> None:
    """Pre-stack the routing centres of every non-leaf node.

    Leaves are left alone: a registered corpus's made their hash state
    when the tree read their routing, an opened store's load when a query
    first routes into them — the point of not reading the corpus at open.
    """
    if root.is_leaf:
        return
    root.center_block()
    for child in root.children:
        _warm_center_blocks(child)


def warm_ann_indexes(snapshot: Snapshot) -> int:
    """Build every leaf's ANN index ahead of queries.

    Called by servers configured with a default ``nprobe`` so the first
    ANN query after a generation swap pays no training cost.  A leaf
    whose blocks cannot load right now is skipped — its queries raise
    the same typed error.  Returns the number of leaves with a ready
    index.
    """
    from repro.ann.index import resolve_ann

    ready = 0
    for node in snapshot.index_root.iter_leaves():
        try:
            ready += resolve_ann(node) is not None
        except ReproError:
            pass
    return ready


def build_snapshot(database: VideoDatabase, generation: int) -> Snapshot:
    """Freeze the database's current state as one generation.

    Raises :class:`~repro.errors.ServingError` for an empty database.
    Nothing is copied: the index tree, the flat view and the scene index
    are the database's own, over leaves never written once built (a
    registration seals *new* leaves), so the snapshot answers from its
    rows while the database moves on.  Only the routing centres are
    pre-warmed: the first scene search makes the scene table, once.
    """
    if not database.videos:
        raise ServingError("cannot snapshot an empty database")
    _warm_center_blocks(database.index_root)
    return Snapshot(
        generation=generation,
        index_root=database.index_root,
        leaves=dict(database.leaves),
        flat=database.flat_index,
        scenes=database.scene_index,
        records=database.videos,
        controller=database.controller,
        shot_count=database.shot_count,
    )


#: Callback invoked with the freshly installed snapshot after a swap.
SnapshotListener = Callable[[Snapshot], None]


@dataclass
class _ManagerState:
    """Mutable internals of a :class:`SnapshotManager` (lock-guarded)."""

    database: VideoDatabase
    generation: int = 0
    snapshot: Snapshot | None = None
    listeners: list[SnapshotListener] = field(default_factory=list)
    last_error: str | None = None


class SnapshotManager:
    """Owns the current snapshot; builds and swaps new generations.

    Reads (:meth:`current`) are lock-free — a snapshot reference is a
    single atomic attribute load.  Writes (:meth:`refresh`,
    :meth:`install`) serialise on an internal lock, build the new
    generation off to the side, then publish it with one store.

    Self-healing: a failed rebuild never disturbs the published
    snapshot — readers keep answering from the last good generation
    while :attr:`degraded` turns True and :attr:`last_error` names the
    failure.  Nothing is retried here: the caller that asked for the
    generation gets the typed error, and its next :meth:`refresh` simply
    builds again.

    When ``reopen`` is given, :meth:`refresh` does not rebuild from the
    held database object: it calls ``reopen()`` for a *freshly opened*
    one (for SQL catalogs, new connection + new mmap handles) and swaps
    to that.  A catalog rewritten on disk (``classminer migrate``, an
    external ingest) is therefore actually picked up — reusing stale
    mmap views of superseded feature blocks is exactly the headroom
    ROADMAP item 1 left open.

    A superseded database closes as the last query pinning its snapshot
    lets go (a query pins one for its whole request, lazy leaf, scene
    and ANN loads after the swap included): inside the swap when none
    does, else on that query's thread as it returns, never under a lock
    ``close()`` takes.  The price: a long query pins its generation's
    memory until it returns.
    """

    def __init__(
        self,
        database: VideoDatabase,
        reopen: Callable[[], VideoDatabase] | None = None,
    ) -> None:
        self._lock = threading.RLock()  # held while listeners run; they may refresh
        self._state = _ManagerState(database=database)
        self._reopen = reopen

    @property
    def database(self) -> VideoDatabase:
        """The live database backing new generations."""
        return self._state.database

    @property
    def last_error(self) -> str | None:
        """Failure text of the most recent rebuild attempt (None when good)."""
        return self._state.last_error

    @property
    def degraded(self) -> bool:
        """True while answers come from a stale (last good) generation."""
        return self._state.last_error is not None

    @property
    def generation(self) -> int:
        """Generation of the current snapshot (0 before the first build)."""
        snapshot = self._state.snapshot
        return snapshot.generation if snapshot is not None else 0

    def subscribe(self, listener: SnapshotListener) -> SnapshotListener:
        """Call ``listener`` with every newly installed snapshot."""
        with self._lock:
            self._state.listeners.append(listener)
        return listener

    def current(self) -> Snapshot:
        """The current snapshot; the first use builds generation 1 over ``database``."""
        snapshot = self._state.snapshot
        if snapshot is not None:
            return snapshot
        with self._lock:  # callers racing the first use build it once
            snapshot = self._state.snapshot
            return snapshot if snapshot is not None else self._swap(self._state.database)

    def refresh(self) -> Snapshot:
        """Build the next generation from the live database and swap it in.

        With a ``reopen`` callable configured, the generation is built
        against freshly opened handles instead.  A failed reopen or build
        closes the fresh handles and leaves everything as it was.
        """
        with self._lock:
            return self._swap(None if self._reopen is not None else self._state.database)

    def install(self, database: VideoDatabase) -> Snapshot:
        """Replace the backing database (ingest rebuilds one) and refresh.

        A failed build leaves everything as it was; ``database`` stays
        the caller's to close.
        """
        with self._lock:
            return self._swap(database)

    def _swap(self, database: VideoDatabase | None) -> Snapshot:
        """Publish the next generation over ``database`` (None: reopen one)."""
        fresh = None
        try:
            fault_point("serve.rebuild")
            if database is None:
                database = fresh = self._reopen()
            snapshot = build_snapshot(database, self._state.generation + 1)
        except BaseException as exc:
            if fresh is not None and fresh is not self._state.database:
                fresh.close()
            if not isinstance(exc, Exception):
                raise
            # The published snapshot is untouched: readers keep serving
            # the last good generation while we report degraded.
            self._state.last_error = f"{type(exc).__name__}: {exc}"
            get_registry().counter(
                "serving_rebuild_failures_total",
                "Snapshot rebuild attempts that failed.",
            ).inc()
            _LOGGER.warning("snapshot rebuild failed: %s", exc)
            if isinstance(exc, ReproError):
                raise
            raise ServingError(f"snapshot rebuild failed: {exc}") from exc
        previous, superseded = self._state.database, self._state.snapshot
        self._state.database, self._state.last_error = database, None
        self._state.generation = snapshot.generation
        self._state.snapshot = snapshot  # the atomic publish
        if self._reopen is not None and database is not previous:
            close_when_released(previous, superseded)  # see the class docstring
        listeners = list(self._state.listeners)
        for listener in listeners:
            listener(snapshot)
        return snapshot
