"""Out-of-core views over a stored SQL catalog.

The JSON-era load path deserialises every feature vector into RAM
before the first query can run.  This module gives the same
:class:`~repro.database.catalog.VideoDatabase` API a lazy spine:

* :class:`LazyLeafHashIndex` — a :class:`~repro.database.index.LeafHashIndex`
  whose array state (reduced block, hash buckets, flat ordinals) is
  derived from the leaf's memory-mapped feature block on first touch,
  in stored row order, so buckets and scan order are *identical* to an
  eager build; the 266-d rows themselves stay on the mmap.
* :class:`OutOfCoreFlatIndex` — the Eq. (24) linear scan executed
  leaf-block by leaf-block: per-block batch scores scatter into one
  score vector by stored flat ordinal, ranked by the same
  :func:`~repro.core.kernels.top_k` as the in-RAM scan.  Only the
  top-``k`` rows ever become Python objects.
* :class:`LazySceneIndex` — scene-centroid search fed from the stored
  centroid block on first use.
* :class:`SQLVideoDatabase` — a :class:`VideoDatabase` subclass opened
  from a database directory.  Reads stay out-of-core; any mutating call
  (``register``/``unregister``/``save``) first materialises the catalog
  into ordinary in-RAM structures and proceeds on the base class.

Every score these views return is bit-identical to the in-RAM path:
the kernels are row-independent, blocks store the same float64 bytes
the eager path would stack, and all orderings (leaf creation order,
bucket replay order, flat ordinal order, sorted scene grouping) are
persisted by :mod:`repro.storage.sqlcatalog` precisely so they can be
replayed here.
"""

from __future__ import annotations

import threading
from pathlib import Path

import numpy as np

from repro.database.catalog import VideoDatabase
from repro.database.flat import FlatIndex
from repro.database.hierarchy import ConceptLevel, ConceptNode, ensure_subject_area
from repro.database.index import (
    IndexNode,
    LeafHashIndex,
    ShotEntry,
    build_node,
    feature_similarity_batch,
)
from repro.database.scene_search import SceneEntry, SceneIndex
from repro.errors import IngestError, StorageError
from repro.resilience.faults import fault_point
from repro.storage.featurestore import DEFAULT_MAX_OPEN
from repro.storage.schema import DATABASE_NAME, catalog_path
from repro.storage.sqlcatalog import LeafInfo, SQLCatalog
from repro.types import EventKind


class LazyLeafHashIndex(LeafHashIndex):
    """A leaf hash index whose arrays load from the feature store on demand.

    Until the first touch the index knows only its entry count and its
    discriminating dims.  The first read of any other attribute derives
    the whole array state (reduced block, signatures, buckets) straight
    from the leaf's memory-mapped block plus one columnar SQL read of
    the row identities — the state an eager build over the same rows
    holds, without one Python object per row.  A :class:`ShotEntry` is
    built (its features a view of the mmap row) only for rows that win.

    Serving worker threads share one index per leaf: the first prober
    loads under a lock while later arrivals wait on it.
    """

    _ON_DEMAND = frozenset(
        {
            "reduced", "signatures", "buckets", "ordinals",
            "block", "titles", "shot_ids", "scene_ids",
        }
    )

    def __init__(self, catalog: SQLCatalog, info: LeafInfo) -> None:
        # No base-class state yet: ``__getattr__`` loads it on first use.
        self._catalog = catalog
        self._info = info
        self._load_lock = threading.Lock()
        self.dims = info.dims

    def __getattr__(self, name: str):
        # Reached only while ``name`` is not set yet.
        if name not in self._ON_DEMAND:
            raise AttributeError(name)
        with self._load_lock:
            if name not in self.__dict__:
                self._load()
        return self.__dict__[name]

    def _load(self) -> None:
        info = self._info
        block = self._catalog.features.open(info.block.sha)
        ordinals, titles, shot_ids, scene_ids = self._catalog.leaf_columns(info.name)
        if not ordinals.shape[0] == block.shape[0] == info.entry_count:
            raise StorageError(
                f"leaf {info.name!r} changed generation under this reader: "
                f"opened with {info.entry_count} entries over a block of "
                f"{block.shape[0]} rows, the catalog now lists "
                f"{ordinals.shape[0]} — the directory was re-saved; reopen it"
            )
        self.block = block
        self.titles = np.array(titles, dtype=object)
        self.shot_ids = shot_ids
        self.scene_ids = scene_ids
        self._install(block, info.dims, ordinals)

    def __len__(self) -> int:
        return self._info.entry_count

    def entry(self, row: int) -> ShotEntry:
        return ShotEntry(
            video_title=self.titles[row],
            shot_id=int(self.shot_ids[row]),
            scene_id=int(self.scene_ids[row]),
            features=self.block[row],
        )

    @property
    def entries(self) -> list[ShotEntry]:
        """Every stored shot in row order (materialises one object each)."""
        return [self.entry(row) for row in range(len(self))]


def _ann_index_for(catalog: SQLCatalog, info: LeafInfo):
    """Load one leaf's persisted ANN index out-of-core (None when absent).

    The small trained arrays come from the catalog row; the uint8 code
    matrix stays a read-only mmap from the feature store, so enabling
    the ANN tier adds ~1/8th of a leaf block's bytes to the working
    set, paged in on demand.  The ``storage.ann_block_missing`` fault
    point (and any real missing/truncated code block) surfaces as the
    store's typed errors, which the query layer degrades on.
    """
    from repro.ann.index import AnnLeafIndex

    fault_point("storage.ann_block_missing")
    row = catalog.ann_leaf_row(info.name)
    if row is None:
        return None
    codes = catalog.features.open(row.code_sha)
    return AnnLeafIndex(
        dims=info.dims,
        centroids=row.centroids,
        assign=row.assign,
        codes=codes,
        scale=row.scale,
        offset=row.offset,
        sigs=row.sigs,
        seed=row.seed,
    )


class OutOfCoreFlatIndex(FlatIndex):
    """The Eq. (24) linear scan, executed block-by-block over mmaps.

    Scoring walks the stored leaf blocks — the OS pages each one in,
    the batched kernel scores it, and the per-row results scatter into
    one score vector by flat ordinal — so peak resident memory is one
    block plus the score vector, independent of corpus size.  Ranking
    is the base class's (:meth:`FlatIndex.rank`); only the top ``k``
    rows are fetched back from SQL as entry objects.
    """

    def __init__(self, catalog: SQLCatalog) -> None:
        super().__init__()
        self._catalog = catalog
        self._total = catalog.entry_count()
        self._infos: dict[str, LeafInfo] | None = None
        self._plan: list[tuple[LeafInfo, np.ndarray]] | None = None

    def _leaf_infos(self) -> dict[str, LeafInfo]:
        if self._infos is None:
            self._infos = {info.name: info for info in self._catalog.leaf_infos()}
        return self._infos

    def _scan_plan(self) -> list[tuple[LeafInfo, np.ndarray]]:
        """Per-leaf (info, flat-ordinal vector) in stored row order."""
        if self._plan is None:
            self._plan = [
                (info, self._catalog.leaf_columns(info.name)[0])
                for info in self._leaf_infos().values()
            ]
        return self._plan

    def insert(self, entry: ShotEntry) -> None:
        raise StorageError(
            "out-of-core flat index is read-only — materialise the "
            "database before mutating it"
        )

    def __len__(self) -> int:
        return self._total

    @property
    def entries(self) -> list[ShotEntry]:
        """Every stored shot in flat-ordinal order (materialises)."""
        flat: list[ShotEntry | None] = [None] * self._total
        for info in self._leaf_infos().values():
            block = self._catalog.features.open(info.block.sha)
            for row in self._catalog.leaf_rows(info.name):
                flat[row.ord] = ShotEntry(
                    video_title=row.video_title,
                    shot_id=row.shot_id,
                    scene_id=row.scene_id,
                    features=block[row.row],
                )
        return [entry for entry in flat if entry is not None]

    def feature_matrix(self) -> np.ndarray:
        """Full stacked matrix (materialises; prefer :meth:`search`)."""
        if self._matrix is None:
            if not self._total:
                self._matrix = np.empty((0, 0))
            else:
                plan = self._scan_plan()
                cols = plan[0][0].block.cols
                matrix = np.empty((self._total, cols), dtype=np.float64)
                for info, ords in plan:
                    matrix[ords] = self._catalog.features.open(info.block.sha)
                self._matrix = matrix
        return self._matrix

    def scores(self, features: np.ndarray) -> np.ndarray:
        """Block-wise Eq. (24) scan, scattered into flat-ordinal order."""
        scores = np.empty(self._total, dtype=np.float64)
        for info, ords in self._scan_plan():
            block = self._catalog.features.open(info.block.sha)
            scores[ords] = feature_similarity_batch(features, block)
        return scores

    def entries_at(self, ordinals: list[int]) -> list[ShotEntry]:
        """Fetch just these rows back from SQL as entry objects."""
        rows = self._catalog.entries_by_ord(ordinals)
        entries = []
        for ordinal in ordinals:
            row = rows[ordinal]
            block = self._catalog.features.open(
                self._leaf_infos()[row.leaf].block.sha
            )
            entries.append(
                ShotEntry(
                    video_title=row.video_title,
                    shot_id=row.shot_id,
                    scene_id=row.scene_id,
                    features=block[row.row],
                )
            )
        return entries


class LazySceneIndex(SceneIndex):
    """Scene-centroid index fed from the stored centroid block on first use.

    Rows load in stored row order — the same ``sorted(groups.items())``
    order the serving layer's derived index uses — so rankings and
    tie-breaks match the in-RAM path exactly.
    """

    def __init__(self, catalog: SQLCatalog) -> None:
        super().__init__()
        self._catalog = catalog
        self._stored_count = catalog.scene_count()
        self._loaded = False
        self._load_lock = threading.Lock()

    def _ensure(self) -> None:
        # Double-checked lock: serving workers share this index, and
        # ``_loaded`` flips only once every centroid row is inserted.
        if self._loaded:
            return
        with self._load_lock:
            if self._loaded:
                return
            ref = self._catalog.scene_block_ref()
            if ref is not None:
                block = self._catalog.features.open(ref.sha)
                for row in self._catalog.scene_rows():
                    SceneIndex.insert(
                        self,
                        SceneEntry(
                            video_title=row.video_title,
                            scene_id=row.scene_id,
                            event=EventKind(row.event),
                            shot_count=row.shot_count,
                            centroid=block[row.row],
                        ),
                    )
                if len(self._entries) == block.shape[0]:
                    # Rows are stored in entry order: the mmap block
                    # *is* the centroid matrix, no stacked copy.
                    self._matrix = block
            self._loaded = True

    def __len__(self) -> int:
        return self._stored_count if not self._loaded else super().__len__()

    @property
    def entries(self) -> list[SceneEntry]:
        """Every indexed scene in centroid-row order (materialises)."""
        self._ensure()
        return SceneIndex.entries.fget(self)  # type: ignore[attr-defined]

    def insert(self, entry: SceneEntry) -> None:
        self._ensure()
        super().insert(entry)

    def centroid_matrix(self) -> np.ndarray:
        self._ensure()
        return super().centroid_matrix()

    def warm(self) -> None:
        self._ensure()
        super().warm()

    def search(self, features, k=5, event=None):
        self._ensure()
        return super().search(features, k=k, event=event)

    def similar_scenes(self, video_title, scene_id, k=5):
        self._ensure()
        return super().similar_scenes(video_title, scene_id, k=k)


class SQLVideoDatabase(VideoDatabase):
    """A :class:`VideoDatabase` served out-of-core from a SQL catalog.

    Registration records, subject areas and per-leaf routing metadata
    (centres, discriminating dims) load eagerly — they are tiny — while
    feature payloads stay memory-mapped until a query actually routes
    into them.  The hierarchical index tree is rebuilt from the stored
    centres and is bit-identical to the eager build; so are flat, leaf
    and scene search results.

    Mutations (``register``, ``unregister``, ``save``) transparently
    materialise the whole catalog into RAM first and proceed on the
    base class; persist the result with
    :func:`repro.storage.sqlcatalog.save_database` (or the catalog's
    ``register_bulk``, which does this under one transaction).
    """

    def __init__(self, catalog: SQLCatalog, controller=None) -> None:
        super().__init__(controller)
        self._catalog = catalog
        self.out_of_core = True
        for area in catalog.subject_areas():
            ensure_subject_area(self._hierarchy, area)
        self._videos = catalog.videos()
        self._leaf_infos = {info.name: info for info in catalog.leaf_infos()}
        self._flat = OutOfCoreFlatIndex(catalog)
        self._scenes = LazySceneIndex(catalog)

    @classmethod
    def open(
        cls, db_dir: str | Path, max_open: int = DEFAULT_MAX_OPEN
    ) -> "SQLVideoDatabase":
        """Open the catalog stored in ``db_dir``."""
        return cls(SQLCatalog(db_dir, max_open=max_open))

    @property
    def catalog(self) -> SQLCatalog:
        """The backing SQL catalog."""
        return self._catalog

    @property
    def scene_index(self) -> LazySceneIndex:
        """Scene-centroid search over the stored centroid block."""
        return self._scenes

    def close(self) -> None:
        """Release the catalog connection and open mmap handles."""
        self._catalog.close()

    def describe(self) -> dict[str, int]:
        if self.out_of_core:
            return self._catalog.describe()
        return super().describe()

    def _build_subtree(
        self, concept: ConceptNode, ordinal_of: dict | None = None
    ) -> IndexNode | None:
        if not self.out_of_core:
            return super()._build_subtree(concept, ordinal_of)
        if concept.level is ConceptLevel.SCENE or not concept.children:
            info = self._leaf_infos.get(concept.name)
            if info is None:
                return None
            catalog = self._catalog
            node = IndexNode(
                name=concept.name,
                depth=concept.level.depth,
                leaf=LazyLeafHashIndex(catalog, info),
            )
            node.centers = info.centers
            node.dims = info.dims
            # Loader thunk, resolved (and cached) on the first ANN query
            # by repro.ann.index.resolve_ann; a load failure keeps the
            # thunk so a later query can recover.
            node.ann = lambda info=info: _ann_index_for(catalog, info)
            return node
        children = [
            child_node
            for child in concept.children
            if (child_node := self._build_subtree(child)) is not None
        ]
        if not children:
            return None
        return build_node(concept.name, concept.level.depth, children=children)

    # -- materialisation (the mutation path) --------------------------

    def _materialize(self) -> None:
        if not self.out_of_core:
            return
        leaf_entries: dict[str, list[ShotEntry]] = {}
        flat: list[ShotEntry | None] = [None] * self._catalog.entry_count()
        for info in self._leaf_infos.values():
            block = self._catalog.features.open(info.block.sha)
            bucket = []
            for row in self._catalog.leaf_rows(info.name):
                entry = ShotEntry(
                    video_title=row.video_title,
                    shot_id=row.shot_id,
                    scene_id=row.scene_id,
                    features=np.array(block[row.row]),
                )
                bucket.append(entry)
                flat[row.ord] = entry
            leaf_entries[info.name] = bucket
        self._leaf_entries = leaf_entries
        self._flat = FlatIndex([entry for entry in flat if entry is not None])
        self._index_root = None
        self.out_of_core = False

    def materialize(self) -> "SQLVideoDatabase":
        """Load every feature block into RAM; returns ``self``.

        After this the database behaves exactly like an eagerly loaded
        one (same objects, same orderings) and supports mutation.
        """
        self._materialize()
        return self

    def clone_subset(self, titles):
        """Materialise, then clone the subset (see base class)."""
        self._materialize()
        return super().clone_subset(titles)

    def register(self, result):
        self._materialize()
        return super().register(result)

    def unregister(self, title: str) -> int:
        self._materialize()
        return super().unregister(title)

    def save(self, path) -> None:
        self._materialize()
        super().save(path)


def load_database(db_dir: str | Path) -> VideoDatabase:
    """Load the queryable database an ingest run wrote into ``db_dir``.

    A SQL catalog (``catalog.sqlite``) opens *lazily*: registration
    records and routing metadata load eagerly, feature blocks stay
    memory-mapped on disk until a query routes into them.  A directory
    holding only a legacy ``database.json`` deserialises it up front.
    Raises :class:`~repro.errors.IngestError` when the directory holds
    neither.  Also exported as ``repro.ingest.load_database``.
    """
    db_dir = Path(db_dir)
    if catalog_path(db_dir).exists():
        return SQLVideoDatabase.open(db_dir)
    json_path = db_dir / DATABASE_NAME
    if json_path.exists():
        return VideoDatabase.load(json_path)
    raise IngestError(f"no ingested database in {db_dir}")
