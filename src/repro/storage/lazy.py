"""Opening a stored catalog: leaf and scene sources over the SQL catalog.

A database is one set of classes (:mod:`repro.database`) over leaves
whose rows are columns.  This module supplies the *sources* that put a
stored catalog behind them, and nothing else:

* :func:`_stored_rows` — a leaf's :class:`~repro.database.index.LeafRows`
  (its memory-mapped feature block and the columns of its mapped id
  block) and the derived arrays the catalog stores: the mapped
  ``reduced`` block a leaf scan reads and the row signatures.
  :class:`~repro.database.index.LeafHashIndex` runs it on the first
  touch of the leaf, once, under a lock; no per-row object is built and
  no 266-d row is read — those page in for winners and flat scans only,
  and a flat scan gives them back as it moves on.
* :func:`_stored_scenes` — the scene table: the stored centroid block
  (the mmap *is* the centroid matrix) plus the columns of its id block,
  loaded on the first scene search.
* :class:`SQLVideoDatabase` — a :class:`VideoDatabase` whose leaves,
  records and scene table start out as those sources.  It overrides no
  query, build or mutation method: registering or unregistering on an
  opened store works on the same columns as on a registered corpus
  (touched leaves load and are re-sealed in RAM, untouched ones stay on
  their mmaps) and :func:`~repro.storage.sqlcatalog.save_database`
  persists the result.

Every score an opened store returns is bit-identical to the corpus
that was saved: blocks hold the same float64 bytes, the routing that
was stored is the routing the leaves are given, and all orderings
(leaf creation order, block-row order, flat ordinals, sorted scene
rows) are persisted by :mod:`repro.storage.sqlcatalog` precisely so
they can be replayed here.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path

import numpy as np

from repro.database.catalog import VideoDatabase
from repro.database.hierarchy import ensure_subject_area
from repro.database.index import LeafHashIndex, LeafRows
from repro.database.scene_search import SceneIndex, SceneTable
from repro.errors import IngestError, StorageError
from repro.storage.schema import catalog_path
from repro.storage.sqlcatalog import LeafInfo, SQLCatalog
from repro.types import EventKind


def _stored_rows(
    catalog: SQLCatalog, info: LeafInfo, titles: np.ndarray
) -> tuple[LeafRows, dict[str, np.ndarray]]:
    """Load one stored leaf: its columns and the derived arrays stored with it.

    Every block stays a read-only mmap; the id block's columns are views
    of it, and ``titles`` (the opened generation's, in code order) turns
    title codes into one shared ``str`` per video.  The generation the
    directory holds *now* is checked against the one ``info`` was read
    from before a block is opened, so a block a re-save collected reads
    as that re-save, not as a missing file.
    """
    opened = (info.block.sha, info.reduced_sha, info.ids_sha)
    if catalog.leaf_digests(info.name) != opened:
        raise StorageError(
            f"leaf {info.name!r} changed generation under this reader: opened "
            f"with {info.entry_count} entries in block {info.block.sha[:12]}…, "
            f"the catalog now lists another — the directory was re-saved; reopen it"
        )
    ids = catalog.features.open(info.ids_sha, dtype=np.int64)
    block = catalog.features.open(info.block.sha, resident=False)
    stored = {"signatures": ids[:, 4:]}
    if info.reduced_sha is not None:
        stored["reduced"] = catalog.features.open(info.reduced_sha)
    if {len(a) for a in (ids, block, *stored.values())} != {info.entry_count}:
        raise StorageError(f"leaf {info.name!r}: its blocks disagree on its row count")
    rows = LeafRows(block, ids[:, 0], titles[ids[:, 1]], ids[:, 2], ids[:, 3])
    return rows, stored


def _stored_scenes(catalog: SQLCatalog, titles, opened, store=None, centroids=None) -> SceneTable:
    """Load the stored scene table, in stored row order, from the
    generation this reader opened (``opened``: its ``scene_block`` row);
    ``store`` is a save's, ``centroids`` the block it stored (``SceneIndex.adopt``)."""
    if catalog.scene_block() != opened:
        raise StorageError(
            "the scene table changed generation under this reader — the "
            "directory was re-saved; reopen it"
        )
    sha, (scene_titles, scene_ids, events, shot_counts) = catalog.scene_columns(titles)
    block = catalog.features.open(sha) if centroids is None else centroids
    if not len(scene_titles) == block.shape[0] == opened[2]:
        raise StorageError(f"the scene table's blocks disagree on its {opened[2]} rows")
    kinds = {kind.value: kind for kind in EventKind}
    return SceneTable(
        titles=scene_titles,
        scene_ids=scene_ids,
        events=np.array([kinds[event] for event in events], dtype=object),
        shot_counts=shot_counts,
        # Rows are stored in table order: the mmap block *is* the
        # centroid matrix, no stacked copy.
        centroids=block if store is None else store(block, None),
    )


class SQLVideoDatabase(VideoDatabase):
    """A :class:`VideoDatabase` opened from a SQL catalog.

    Registration records, subject areas and per-leaf routing metadata
    (centres, discriminating dims, row counts) load at open — they are
    tiny — while each leaf's rows load when a query first routes into
    it and the scene table on the first scene search.  The index tree
    is built from the stored routing and is bit-identical to the tree
    of the corpus that was saved; so are flat, leaf and scene results.
    """

    def __init__(self, catalog: SQLCatalog, controller=None) -> None:
        super().__init__(controller)
        self._catalog = catalog
        for area in catalog.subject_areas():
            ensure_subject_area(self._hierarchy, area)
        self._videos = catalog.videos()
        titles = np.array(list(self._videos), dtype=object)  # in code order
        for info in catalog.leaf_infos():
            self._leaves[info.name] = LeafHashIndex(
                partial(_stored_rows, catalog, info, titles),
                info.centers,
                info.dims,
                count=info.entry_count,
            )
            self._total += info.entry_count
        scenes = catalog.scene_block()
        self._scenes = SceneIndex() if scenes is None else SceneIndex(
            partial(_stored_scenes, catalog, titles, scenes),
            count=scenes[2],
        )

    @classmethod
    def open(cls, db_dir: str | Path) -> "SQLVideoDatabase":
        """Open the catalog stored in ``db_dir``."""
        return cls(SQLCatalog(db_dir))

    @property
    def catalog(self) -> SQLCatalog:
        """The backing SQL catalog."""
        return self._catalog

    def close(self) -> None:
        """Release the catalog connection and open mmap handles."""
        self._catalog.close()


def load_database(db_dir: str | Path) -> VideoDatabase:
    """Load the queryable database an ingest run wrote into ``db_dir``.

    A SQL catalog (``catalog.sqlite``) opens *lazily*: registration
    records and routing metadata load at open, feature blocks stay
    memory-mapped on disk until a query routes into them.  Raises
    :class:`~repro.errors.IngestError` when the directory holds no
    catalog.  Also exported as ``repro.ingest.load_database``.
    """
    db_dir = Path(db_dir)
    if not catalog_path(db_dir).exists():
        raise IngestError(f"no ingested database in {db_dir}")
    return SQLVideoDatabase.open(db_dir)
