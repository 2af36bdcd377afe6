"""SQLite schema and connection plumbing for the durable catalog.

One database directory gains two durable pieces::

    <db_dir>/
        catalog.sqlite   relational catalog (this module's schema)
        features/        content-addressed mmap feature blocks
                         (:mod:`repro.storage.featurestore`)

The catalog holds everything *relational* about a registered corpus —
videos, scene events, leaf metadata, per-shot entry rows, scene
centroid bookkeeping and a full-text search surface — while the bulky
``(N, 266)`` float64 feature matrices live outside SQLite as
memory-mapped ``.npy`` blocks referenced by sha256.

Schema versioning uses ``PRAGMA user_version``: :func:`connect` upgrades
an older catalog additively and refuses a newer one with a typed
:class:`~repro.errors.StorageError` instead of misreading it.  WAL mode
keeps concurrent readers from blocking the (single) writer.

FTS5 is probed once per process: when the linked SQLite lacks it, the
``search_fts`` virtual table is skipped and text search degrades to a
``LIKE`` scan over the plain ``search_docs`` table (recorded in the
``meta`` table so readers know which surface they got).
"""

from __future__ import annotations

import sqlite3
from pathlib import Path

from repro.errors import StorageError

#: Current on-disk schema generation (``PRAGMA user_version``).
#: v2 added the additive ``ann_leaves`` table (per-leaf IVF quantizer
#: state), v3 the ``leaves.reduced_sha`` column (the leaf's reduced
#: block, what a leaf scan reads); older catalogs are upgraded in place
#: on open.
SCHEMA_VERSION = 3

#: File name of the SQL catalog inside a database directory.
CATALOG_NAME = "catalog.sqlite"

#: Directory name of the feature-block store inside a database directory.
FEATURES_DIR = "features"

#: Relational DDL, applied in order inside one transaction.
SCHEMA_STATEMENTS = (
    """
    CREATE TABLE IF NOT EXISTS meta (
        key   TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS videos (
        title           TEXT PRIMARY KEY,
        shot_count      INTEGER NOT NULL,
        scene_count     INTEGER NOT NULL,
        degraded_stages TEXT NOT NULL DEFAULT '[]'
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS video_events (
        title    TEXT NOT NULL,
        scene_id INTEGER NOT NULL,
        event    TEXT NOT NULL,
        PRIMARY KEY (title, scene_id)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS leaves (
        name         TEXT PRIMARY KEY,
        position     INTEGER NOT NULL,
        entry_count  INTEGER NOT NULL,
        block_sha    TEXT NOT NULL,
        rows         INTEGER NOT NULL,
        cols         INTEGER NOT NULL,
        centers      BLOB NOT NULL,
        centers_rows INTEGER NOT NULL,
        dims         BLOB NOT NULL,
        dims_count   INTEGER NOT NULL,
        reduced_sha  TEXT
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS entries (
        ord         INTEGER PRIMARY KEY,
        leaf        TEXT NOT NULL,
        row         INTEGER NOT NULL,
        video_title TEXT NOT NULL,
        shot_id     INTEGER NOT NULL,
        scene_id    INTEGER NOT NULL
    )
    """,
    "CREATE INDEX IF NOT EXISTS idx_entries_leaf ON entries (leaf, row)",
    """
    CREATE TABLE IF NOT EXISTS scenes (
        row         INTEGER PRIMARY KEY,
        video_title TEXT NOT NULL,
        scene_id    INTEGER NOT NULL,
        event       TEXT NOT NULL,
        shot_count  INTEGER NOT NULL,
        UNIQUE (video_title, scene_id)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS scene_block (
        id        INTEGER PRIMARY KEY CHECK (id = 1),
        block_sha TEXT NOT NULL,
        rows      INTEGER NOT NULL,
        cols      INTEGER NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS search_docs (
        doc_id INTEGER PRIMARY KEY,
        kind   TEXT NOT NULL,
        title  TEXT NOT NULL,
        body   TEXT NOT NULL
    )
    """,
    # Per-leaf ANN tier (schema v2).  The small trained arrays live
    # inline as BLOBs; the bulky uint8 code matrix is a content-addressed
    # feature-store block referenced by code_sha, GC'd like any other.
    """
    CREATE TABLE IF NOT EXISTS ann_leaves (
        leaf      TEXT PRIMARY KEY,
        cells     INTEGER NOT NULL,
        seed      INTEGER NOT NULL,
        code_sha  TEXT NOT NULL,
        rows      INTEGER NOT NULL,
        cols      INTEGER NOT NULL,
        centroids BLOB NOT NULL,
        "assign"  BLOB NOT NULL,
        scale     BLOB NOT NULL,
        "offset"  BLOB NOT NULL,
        sigs      BLOB NOT NULL
    )
    """,
)

#: DDL added by each schema generation after its predecessor, applied
#: additively when :func:`connect` opens an older catalog.
_UPGRADE_STATEMENTS: dict[int, tuple[str, ...]] = {
    2: (SCHEMA_STATEMENTS[-1],),
    # NULL until the next save: such a leaf derives its reduced block.
    3: ("ALTER TABLE leaves ADD COLUMN reduced_sha TEXT",),
}

#: Every data table, in deletion order for a full catalog replace.
DATA_TABLES = (
    "videos",
    "video_events",
    "leaves",
    "entries",
    "scenes",
    "scene_block",
    "search_docs",
    "ann_leaves",
)

_FTS_PROBED: bool | None = None


def fts5_available() -> bool:
    """Whether the linked SQLite can create FTS5 virtual tables."""
    global _FTS_PROBED
    if _FTS_PROBED is None:
        probe = sqlite3.connect(":memory:")
        try:
            probe.execute("CREATE VIRTUAL TABLE probe USING fts5(body)")
            _FTS_PROBED = True
        except sqlite3.OperationalError:
            _FTS_PROBED = False
        finally:
            probe.close()
    return _FTS_PROBED


def catalog_path(db_dir: str | Path) -> Path:
    """Location of the SQL catalog inside a database directory."""
    return Path(db_dir) / CATALOG_NAME


def features_path(db_dir: str | Path) -> Path:
    """Location of the feature-block store inside a database directory."""
    return Path(db_dir) / FEATURES_DIR


def connect(path: str | Path, create: bool = False) -> sqlite3.Connection:
    """Open (optionally creating) a catalog, enforcing the schema version.

    WAL journal mode and ``synchronous=NORMAL`` give durable commits
    without an fsync per statement; ``check_same_thread=False`` lets the
    owning :class:`~repro.storage.sqlcatalog.SQLCatalog` serialise
    access on its own lock instead of sqlite3's thread check.

    Raises :class:`~repro.errors.StorageError` when the file is missing
    (without ``create``), unreadable, or carries a newer
    ``user_version`` than :data:`SCHEMA_VERSION`.
    """
    path = Path(path)
    if not create and not path.exists():
        raise StorageError(f"no SQL catalog at {path}")
    try:
        conn = sqlite3.connect(path, check_same_thread=False)
    except sqlite3.Error as exc:
        raise StorageError(f"cannot open catalog {path}: {exc}") from exc
    try:
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA foreign_keys=ON")
        version = int(conn.execute("PRAGMA user_version").fetchone()[0])
        if version == 0 and create:
            with conn:
                for statement in SCHEMA_STATEMENTS:
                    conn.execute(statement)
                if fts5_available():
                    conn.execute(
                        "CREATE VIRTUAL TABLE IF NOT EXISTS search_fts "
                        "USING fts5(kind, title, body)"
                    )
                conn.execute(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES ('fts', ?)",
                    ("1" if fts5_available() else "0",),
                )
                conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
        elif 0 < version < SCHEMA_VERSION:
            # Forward upgrades are purely additive: apply each newer
            # generation's DDL in order and stamp the new version.  An
            # older catalog keeps serving (leaves without ann_leaves rows
            # or a reduced block make them in process, deterministically).
            # Two processes may open the same old catalog at once: take
            # the write lock, then see what is still left to apply.
            conn.execute("BEGIN IMMEDIATE")
            version = int(conn.execute("PRAGMA user_version").fetchone()[0])
            for target in range(version + 1, SCHEMA_VERSION + 1):
                for statement in _UPGRADE_STATEMENTS.get(target, ()):
                    conn.execute(statement)
            conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
            conn.commit()
        elif version != SCHEMA_VERSION:
            raise StorageError(
                f"catalog {path} has schema version {version}, "
                f"this build reads version {SCHEMA_VERSION} — "
                f"re-run `classminer migrate`"
            )
    except sqlite3.Error as exc:
        conn.close()
        raise StorageError(f"cannot initialise catalog {path}: {exc}") from exc
    except StorageError:
        conn.close()
        raise
    return conn
