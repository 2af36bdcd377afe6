"""Durable storage: SQL catalog + memory-mapped out-of-core features.

A single file holding every feature vector would force a cold start to
parse the whole corpus before the first query.  This subsystem splits
durable state into two pieces sized for their access patterns:

* :class:`SQLCatalog` — everything per video and per leaf (videos,
  events, leaf metadata and routing) in one WAL-mode SQLite file with a
  versioned schema;
* :class:`FeatureStore` — every per-row array (features, ids) as
  content-addressed, memory-mapped ``.npy`` blocks behind a bounded
  LRU of open handles.

:class:`SQLVideoDatabase` is the ordinary
:class:`~repro.database.catalog.VideoDatabase` opened over both — the
same leaf, flat, scene and database classes, their rows loaded from the
store on first touch, answering bit-identically to the corpus that was
saved; :func:`save_database` persists a database, :func:`load_database`
opens a database directory lazily.  (Rebuilding a directory's catalog
from its artifact store — ``classminer migrate`` — is the ingest
layer's :func:`repro.ingest.runner.publish_catalog`; nothing here
imports upward.)  See ``docs/STORAGE.md``.
"""

from repro.storage.featurestore import DEFAULT_MAX_OPEN, BlockRef, FeatureStore
from repro.storage.lazy import SQLVideoDatabase, load_database
from repro.storage.schema import (
    CATALOG_NAME,
    FEATURES_DIR,
    SCHEMA_VERSION,
    catalog_path,
    features_path,
)
from repro.storage.sqlcatalog import (
    EntryRow,
    LeafInfo,
    SearchHit,
    SQLCatalog,
    save_database,
)
from repro.storage.synthetic import build_synthetic_database

__all__ = [
    "BlockRef",
    "CATALOG_NAME",
    "DEFAULT_MAX_OPEN",
    "EntryRow",
    "FEATURES_DIR",
    "FeatureStore",
    "LeafInfo",
    "SCHEMA_VERSION",
    "SQLCatalog",
    "SQLVideoDatabase",
    "SearchHit",
    "build_synthetic_database",
    "catalog_path",
    "features_path",
    "load_database",
    "save_database",
]
