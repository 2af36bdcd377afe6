"""The SQL catalog: durable relational state + feature-block bookkeeping.

:class:`SQLCatalog` is the storage subsystem's front door.  It owns one
WAL-mode SQLite connection (schema in :mod:`repro.storage.schema`) and
the directory-sibling :class:`~repro.storage.featurestore.FeatureStore`
holding the packed feature matrices the rows refer to.

Write model
-----------
The artifact store remains the corpus's source of truth, so the catalog
is rebuilt by *full replace*: :func:`save_database` serialises an
in-memory :class:`~repro.database.catalog.VideoDatabase` — leaf and id
blocks, routing, scene centroids and their ids —
inside **one** ``BEGIN IMMEDIATE`` transaction.  A failure mid-write
rolls the relational state back to the previous generation and deletes
any feature blocks the aborted write introduced; readers never see a
half-replaced catalog.  A successful commit garbage-collects the
blocks only the superseded generation referenced (both cleanup paths
re-check the live catalog's references before unlinking, so a block a
concurrent writer just committed stays).  The one writer of a corpus is
:func:`repro.ingest.runner.publish_catalog`, which rebuilds the database
from the artifacts and replaces the catalog with it.

Determinism contract
--------------------
Nothing is derived here.  The writer stores what the database hands it —
each leaf's blocks (rows, ids) and routing ``(centers, dims)``
(:func:`~repro.database.index.leaf_routing`, computed once per leaf), its
``reduced`` block and the scene centroids
(:func:`~repro.database.scene_search.centroid_rows`) — so an opened store
(:mod:`repro.storage.lazy`) answers from the very arrays the saved corpus
answered from, bit for bit.  The two derived blocks go through ``adopt``:
one the corpus has not made yet streams into its block a scratch chunk at
a time, one it holds goes whole, and either way the corpus then reads a
map of the block written, so a save holds no whole derived block in RAM.

Resilience + observability
--------------------------
Every statement runs through a retry loop: a transiently locked
database (another process's writer, or the ``storage.db_locked`` fault
point) is retried with backoff and counted; exhausting the budget
raises a typed :class:`~repro.errors.StorageError`.  Query latency
lands in the ``storage_catalog_query_seconds`` histogram.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from repro.database.catalog import RegisteredVideo, VideoDatabase
from repro.errors import FaultInjectedError, StorageError
from repro.obs.registry import get_registry
from repro.obs.trace import span as obs_span
from repro.resilience.faults import fault_point
from repro.storage.featurestore import BlockRef, FeatureStore, map_block
from repro.storage.schema import DATA_TABLES, catalog_path, connect, features_path
from repro.types import EventKind

#: Locked-database retry budget and base backoff.
LOCK_RETRIES = 5
LOCK_BACKOFF = 0.01


@dataclass(frozen=True)
class LeafInfo:
    """Stored metadata of one scene-concept leaf."""

    name: str
    position: int
    entry_count: int
    block: BlockRef
    centers: np.ndarray
    dims: np.ndarray
    #: The ``(n, |dims|)`` reduced block (None: a leaf an earlier build
    #: converted from a v1 or v2 catalog; it derives its reduced rows).
    reduced_sha: str | None
    #: The ``(n, 6)`` int64 id block: flat ordinal, title code, shot id,
    #: scene id and the two signature columns, in block-row order.
    ids_sha: str


@dataclass(frozen=True)
class EntryRow:
    """Stored metadata of one indexed shot (features live in the block)."""

    ord: int
    leaf: str
    row: int
    video_title: str
    shot_id: int
    scene_id: int


@dataclass(frozen=True)
class SearchHit:
    """One text search result: a matching document."""

    kind: str
    title: str
    body: str


class SQLCatalog:
    """WAL-mode SQLite catalog plus its sibling feature store.

    Thread-safe: all statements serialise on one re-entrant lock (the
    lazy readers in :mod:`repro.storage.lazy` are called from serving
    worker threads).
    """

    def __init__(self, db_dir: str | Path, create: bool = False) -> None:
        if create:
            Path(db_dir).mkdir(parents=True, exist_ok=True)
        self._conn = connect(catalog_path(db_dir), create=create)
        self._conn.isolation_level = None  # explicit transactions only
        self._lock = threading.RLock()
        self._features = FeatureStore(features_path(db_dir))
        registry = get_registry()
        self._queries = registry.counter(
            "storage_catalog_queries_total",
            "Statements executed against the SQL catalog.",
        )
        self._latency = registry.histogram(
            "storage_catalog_query_seconds",
            "SQL catalog statement latency.",
        )
        self._locked_retries = registry.counter(
            "storage_catalog_locked_retries_total",
            "Catalog statements retried because the database was locked.",
        )

    # -- plumbing ------------------------------------------------------

    @property
    def features(self) -> FeatureStore:
        """The sibling feature-block store."""
        return self._features

    def close(self) -> None:
        """Release the connection and every open mmap handle."""
        with self._lock:
            self._conn.close()
            self._features.close()

    def __enter__(self) -> "SQLCatalog":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _run(self, fn):
        """Execute ``fn(conn)`` with locked-database retries and metrics.

        A transient lock — a concurrent writer's ``sqlite3.OperationalError``
        or the ``storage.db_locked`` fault point — is retried up to
        :data:`LOCK_RETRIES` times with linear backoff; exhaustion
        raises :class:`~repro.errors.StorageError`.  Any other SQLite
        error becomes a :class:`StorageError` immediately.
        """
        last: Exception | None = None
        for attempt in range(LOCK_RETRIES + 1):
            if attempt:
                self._locked_retries.inc()
                time.sleep(LOCK_BACKOFF * attempt)
            start = time.perf_counter()
            try:
                with self._lock:
                    fault_point("storage.db_locked")
                    result = fn(self._conn)
                self._queries.inc()
                self._latency.record(time.perf_counter() - start)
                return result
            except FaultInjectedError as exc:
                last = exc
            except sqlite3.OperationalError as exc:
                message = str(exc).lower()
                if "locked" not in message and "busy" not in message:
                    raise StorageError(f"catalog statement failed: {exc}") from exc
                last = exc
            except sqlite3.Error as exc:
                raise StorageError(f"catalog statement failed: {exc}") from exc
        raise StorageError(
            f"catalog stayed locked after {LOCK_RETRIES} retries: {last}"
        ) from last

    # -- meta ----------------------------------------------------------

    def meta(self, key: str) -> str | None:
        """One ``meta`` table value (None when absent)."""
        row = self._run(lambda conn: conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone())
        return None if row is None else str(row[0])

    def subject_areas(self) -> list[str]:
        """Subject-area subclusters, in hierarchy creation order."""
        raw = self.meta("subject_areas")
        return list(json.loads(raw)) if raw else []

    # -- readers -------------------------------------------------------

    def videos(self) -> dict[str, RegisteredVideo]:
        """Every registration record, keyed by title."""
        def op(conn: sqlite3.Connection):
            records: dict[str, RegisteredVideo] = {}
            for title, shots, scenes, degraded in conn.execute(
                "SELECT title, shot_count, scene_count, degraded_stages "
                "FROM videos ORDER BY rowid"
            ):
                records[title] = RegisteredVideo(
                    title=title,
                    shot_count=int(shots),
                    scene_count=int(scenes),
                    degraded_stages=tuple(json.loads(degraded)),
                )
            for title, scene_id, event in conn.execute(
                "SELECT title, scene_id, event FROM video_events"
            ):
                if title in records:
                    records[title].events[int(scene_id)] = str(event)
            return records

        return self._run(op)

    def entry_count(self) -> int:
        """Total indexed shots."""
        return int(self._run(lambda conn: conn.execute(
            "SELECT COALESCE(SUM(entry_count), 0) FROM leaves"
        ).fetchone()[0]))

    def scene_count(self) -> int:
        """Total indexed scene centroids."""
        return 0 if (stored := self.scene_block()) is None else stored[2]

    def _titles(self) -> np.ndarray:
        """Every video title in ``videos`` rowid order: what a title code names."""
        rows = self._run(lambda conn: conn.execute(
            "SELECT title FROM videos ORDER BY rowid"
        ).fetchall())
        return np.array([title for (title,) in rows], dtype=object)

    def leaf_infos(self) -> list[LeafInfo]:
        """Every stored leaf, in hierarchy creation order."""
        def op(conn: sqlite3.Connection):
            infos = []
            for (
                name, position, entry_count, sha, rows, cols,
                centers, centers_rows, dims, dims_count, reduced_sha, ids_sha,
            ) in conn.execute(
                "SELECT name, position, entry_count, block_sha, rows, cols, "
                "centers, centers_rows, dims, dims_count, reduced_sha, ids_sha "
                "FROM leaves ORDER BY position"
            ):
                infos.append(
                    LeafInfo(
                        name=str(name),
                        position=int(position),
                        entry_count=int(entry_count),
                        block=BlockRef(sha=str(sha), rows=int(rows), cols=int(cols)),
                        centers=np.frombuffer(centers).reshape(int(centers_rows), int(cols)).copy(),
                        dims=np.frombuffer(dims, np.int64).reshape(int(dims_count)).copy(),
                        reduced_sha=reduced_sha,
                        ids_sha=str(ids_sha),
                    )
                )
            return infos

        return self._run(op)

    def leaf_digests(self, name: str) -> tuple[str, str | None, str] | None:
        """What the catalog lists for a leaf *now*, in one statement:
        ``(block, reduced block, id block)`` digests (None: no such leaf).
        A reader compares them with the :class:`LeafInfo` it opened, to
        tell a re-save apart from the generation it is serving."""
        return self._run(lambda conn: conn.execute(
            "SELECT block_sha, reduced_sha, ids_sha FROM leaves WHERE name = ?", (name,)
        ).fetchone())

    def leaf_rows(self, name: str) -> list[EntryRow]:
        """A leaf's entries in block-row order, one object per row, read off
        its id block (a reader over a whole leaf; queries never call it)."""
        stored = self.leaf_digests(name)
        if stored is None:
            return []
        titles = self._titles()
        return [
            EntryRow(ord=o, leaf=name, row=row, video_title=titles[t], shot_id=s, scene_id=c)
            for row, (o, t, s, c) in enumerate(self._features.open(stored[2], dtype=np.int64)[:, :4].tolist())
        ]

    def scene_block(self) -> tuple[str, str, int] | None:
        """The scene table *now*: ``(centroid block, id block, rows)``
        (None: no scenes)."""
        return self._run(lambda conn: conn.execute(
            "SELECT block_sha, ids_sha, rows FROM scene_block"
        ).fetchone())

    def scene_columns(self, titles: np.ndarray | None = None) -> tuple[str | None, list]:
        """The scene table: its centroid block's digest (None when there are
        no scenes) and ``[titles, scene ids, event values, shot counts]``,
        as columns in block-row order — the id block's columns, the titles
        its codes name (in ``titles``, the caller's array in code order, or
        read now) and each scene's event off the ``video_events`` rows."""
        stored = self.scene_block()
        if stored is None:
            return None, [()] * 4
        ids = self._features.open(stored[1], dtype=np.int64)
        titles = (self._titles() if titles is None else titles)[ids[:, 0]]
        events = {(t, s): e for t, s, e in self._run(lambda conn: conn.execute(
            "SELECT title, scene_id, event FROM video_events"
        ).fetchall())}
        unknown = EventKind.UNKNOWN.value
        values = [events.get(key, unknown) for key in zip(titles.tolist(), ids[:, 1].tolist())]
        return stored[0], [titles, ids[:, 1], values, ids[:, 2]]

    def search_text(self, text: str, k: int = 10) -> list[SearchHit]:
        """Text search over video/scene/concept metadata.

        A hit is a document (:meth:`_search_documents`) in which every
        whitespace-separated token of ``text`` is a case-insensitive
        substring of its title or body.  Tokens match literally (no
        character is a wildcard); hits come in document order, at most
        ``k`` of them.
        """
        tokens = [t.lower() for t in text.split() if t.strip('"')]
        if not tokens:
            return []
        with obs_span("storage.search_text", tokens=len(tokens)):
            hits = (
                SearchHit(kind, title, body)
                for kind, title, body in self._search_documents()
                if all(t in body.lower() or t in title.lower() for t in tokens)
            )
            return list(islice(hits, k))

    def _search_documents(self) -> list[tuple[str, str, str]]:
        """The catalog as ``(kind, title, body)`` text documents: one per
        video in rowid order, per scene in block-row order, then per
        concept leaf in position order."""
        docs = []
        for title, record in self.videos().items():
            body = " ".join(
                [title.replace("_", " ")]
                + sorted(set(record.events.values()))
                + [f"degraded {stage}" for stage in record.degraded_stages]
            )
            docs.append(("video", title, body))
        for title, scene_id, event, shot_count in zip(*self.scene_columns()[1]):
            docs.append((
                "scene",
                f"{title}/scene-{scene_id}",
                f"{title.replace('_', ' ')} scene {scene_id} {event} {shot_count} shots",
            ))
        for info in self.leaf_infos():
            docs.append(("concept", info.name, info.name.replace("/", " ").replace("_", " ")))
        return docs

    # -- writer --------------------------------------------------------

    def replace_from(self, database: VideoDatabase) -> int:
        """Replace the whole catalog with ``database``'s state (the module's
        write model) and return the number of shot entries stored.

        Each leaf is stored with the routing it carries, so an opened
        store's index tree — and a shard worker's or coordinator's view of
        the catalog — routes and scores leaves exactly like the saved corpus.
        """
        if not database.shot_count:
            raise StorageError("cannot store an empty database")

        before = self._referenced_blocks()
        new_blocks: set[str] = set()
        try:
            count = self._replace_from(database, before, new_blocks)
        except BaseException:
            # The relational state rolled back (or was never touched);
            # drop the blocks only this aborted write introduced.
            # Best-effort: never mask the original failure.
            try:
                self._drop_unreferenced(new_blocks)
            except StorageError:
                pass
            raise
        # The commit superseded the previous generation; garbage-collect
        # the blocks only it referenced.
        self._drop_unreferenced(before)
        return count

    def _drop_unreferenced(self, candidates: set[str]) -> None:
        """Delete candidate blocks the live catalog no longer references.

        The reference set is re-read at deletion time rather than taken
        from a snapshot: with WAL mode and the locked-retry loop another
        process may have committed its own generation meanwhile, and
        content addressing means it can legitimately share our digests.
        """
        if not candidates:
            return
        for sha in candidates - self._referenced_blocks():
            self._features.delete(sha)

    def _replace_from(self, database, before, new_blocks) -> int:
        refs: list[BlockRef] = []  # in put order: after an ``adopt``, the block it stored

        def put(rows, dtype=np.float64, shape=None) -> BlockRef:
            refs.append(self._features.put(rows, dtype, shape))
            if refs[-1].sha not in before:
                new_blocks.add(refs[-1].sha)
            return refs[-1]

        def store(rows, shape) -> np.ndarray:
            """A derived block's ``adopt``: put it, and a map of what was
            stored (of its own, not an LRU slot) for the corpus to read."""
            return map_block(self._features.path_for(put(rows, shape=shape).sha), np.float64)

        # Leaf blocks and routing, in leaf creation order, straight from
        # the arrays the leaves hold.  A title code is the title's position
        # in ``records``, the order the ``videos`` rows are written in.
        records = database.videos
        code = {title: position for position, title in enumerate(records)}
        leaves = database.leaves
        leaves_payload = []
        for position, (name, leaf) in enumerate(leaves.items()):
            ref = put(leaf.block)
            # What a leaf scan reads: an opened store maps it, not the 266-d rows.
            leaf.adopt(store)
            reduced = refs[-1]
            ids = np.column_stack((
                leaf.ordinals, [code[title] for title in leaf.titles.tolist()],
                leaf.shot_ids, leaf.scene_ids, leaf.signatures,
            ))
            leaves_payload.append((
                name, position, len(leaf), ref.sha, ref.rows, ref.cols,
                np.ascontiguousarray(leaf.centers, np.float64).tobytes(),
                int(leaf.centers.shape[0]),
                np.ascontiguousarray(leaf.dims, np.int64).tobytes(),
                int(leaf.dims.shape[0]),
                reduced.sha, put(ids, dtype=np.int64).sha,
            ))

        scene_payload = None
        if len(database.scene_index):
            scenes = database.scene_index.adopt(store)
            scene_ref = refs[-1]
            scene_ids = np.column_stack((
                [code[title] for title in scenes.titles.tolist()],
                scenes.scene_ids, scenes.shot_counts,
            ))
            ids_ref = put(scene_ids, dtype=np.int64)
            scene_payload = (scene_ref.sha, scene_ref.rows, scene_ref.cols, ids_ref.sha)

        video_payload = [
            (
                title, record.shot_count, record.scene_count,
                json.dumps(list(record.degraded_stages)),
            )
            for title, record in records.items()
        ]
        event_payload = [
            (title, scene_id, value)
            for title, record in records.items()
            for scene_id, value in record.events.items()
        ]
        education = database.hierarchy.find("medical_education")
        areas = [child.name for child in education.children] if education else []

        def op(conn: sqlite3.Connection):
            conn.execute("BEGIN IMMEDIATE")
            try:
                for table in DATA_TABLES:
                    conn.execute(f"DELETE FROM {table}")
                conn.executemany(
                    "INSERT INTO videos (title, shot_count, scene_count, "
                    "degraded_stages) VALUES (?, ?, ?, ?)",
                    video_payload,
                )
                conn.executemany(
                    "INSERT INTO video_events (title, scene_id, event) "
                    "VALUES (?, ?, ?)",
                    event_payload,
                )
                conn.executemany(
                    "INSERT INTO leaves (name, position, entry_count, block_sha, "
                    "rows, cols, centers, centers_rows, dims, dims_count, "
                    "reduced_sha, ids_sha) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    leaves_payload,
                )
                if scene_payload is not None:
                    conn.execute(
                        "INSERT INTO scene_block (id, block_sha, rows, cols, ids_sha) "
                        "VALUES (1, ?, ?, ?, ?)",
                        scene_payload,
                    )
                conn.execute(
                    "INSERT OR REPLACE INTO meta (key, value) "
                    "VALUES ('subject_areas', ?)",
                    (json.dumps(areas),),
                )
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise

        count = sum(map(len, leaves.values()))
        with obs_span("storage.replace", entries=count, leaves=len(leaves_payload)):
            self._run(op)
        return count

    def _referenced_blocks(self) -> set[str]:
        """Digests the current catalog generation refers to."""
        return {str(row[0]) for row in self._run(lambda conn: conn.execute(
            "SELECT block_sha FROM leaves UNION "
            "SELECT reduced_sha FROM leaves WHERE reduced_sha IS NOT NULL UNION "
            "SELECT ids_sha FROM leaves UNION SELECT block_sha FROM scene_block "
            "UNION SELECT ids_sha FROM scene_block"
        ).fetchall())}


def save_database(database: VideoDatabase, db_dir: str | Path) -> Path:
    """Persist ``database`` as ``<db_dir>/catalog.sqlite`` + feature blocks.

    Returns the catalog path.  Creates the schema on first use.
    """
    with obs_span("storage.save", videos=len(database.videos)):
        with SQLCatalog(db_dir, create=True) as catalog:
            catalog.replace_from(database)
    return catalog_path(db_dir)
