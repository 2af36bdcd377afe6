"""SQLite schema and connection plumbing for the durable catalog.

One database directory gains two durable pieces::

    <db_dir>/
        catalog.sqlite   relational catalog (this module's schema)
        features/        content-addressed mmap feature blocks
                         (:mod:`repro.storage.featurestore`)

The catalog holds what is *per video* and *per leaf* — videos, scene
events, leaf metadata and routing, and scene-table bookkeeping.
Everything *per row* lives outside SQLite as memory-mapped ``.npy``
blocks referenced by sha256: a leaf's ``(N, 266)`` float64 rows, its
reduced block and its ``(N, 6)`` int64 id block (flat ordinal, title code, shot id, scene
id, two signature columns); the scene table's centroid block and its
``(S, 3)`` id block (title code, scene id, shot count).  A title code is
the video's position in ``videos`` rowid order.

Schema versioning uses ``PRAGMA user_version``: :func:`connect` converts
a catalog of the previous version in place and refuses any other with a
typed :class:`~repro.errors.SchemaVersionError` instead of misreading it;
``classminer migrate`` rebuilds a refused catalog from its ingest
artifacts.  WAL mode keeps concurrent readers from blocking the (single)
writer.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path

from repro.errors import SchemaVersionError, StorageError
from repro.storage.featurestore import FeatureStore

#: Current on-disk schema generation (``PRAGMA user_version``).
#: v6 dropped the stored ANN tier (its quantizer rows and uint8 code
#: blocks), which a process now trains from the leaf it opened.  A v5
#: catalog converts in place on open (:func:`_upgrade`); each bump
#: replaces that step with its own.
SCHEMA_VERSION = 6

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
        reduced_sha  TEXT,
        ids_sha      TEXT
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS scene_block (
        id        INTEGER PRIMARY KEY CHECK (id = 1),
        block_sha TEXT NOT NULL,
        rows      INTEGER NOT NULL,
        cols      INTEGER NOT NULL,
        ids_sha   TEXT
    )
    """,
)

#: Every data table, in deletion order for a full catalog replace.
DATA_TABLES = (
    "videos",
    "video_events",
    "leaves",
    "scene_block",
)


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
    (without ``create``) or unreadable, and its
    :class:`~repro.errors.SchemaVersionError` — before anything is
    written — for a ``user_version`` other than :data:`SCHEMA_VERSION`
    or the one before it, which converts in place; the feature blocks
    only the old version referenced are deleted once it has.
    """
    path = Path(path)
    if not create and not path.exists():
        raise StorageError(f"no SQL catalog at {path}")
    try:
        conn = sqlite3.connect(path, check_same_thread=False)
    except sqlite3.Error as exc:
        raise StorageError(f"cannot open catalog {path}: {exc}") from exc
    try:
        version = int(conn.execute("PRAGMA user_version").fetchone()[0])
        if version not in (SCHEMA_VERSION - 1, SCHEMA_VERSION) and not (version == 0 and create):
            raise SchemaVersionError(
                f"catalog {path} has schema version {version}, "
                f"this build reads version {SCHEMA_VERSION} — "
                f"re-run `classminer migrate`"
            )
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA foreign_keys=ON")
        if version == 0:
            with conn:
                for statement in SCHEMA_STATEMENTS:
                    conn.execute(statement)
                conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
        elif version < SCHEMA_VERSION:
            # Two processes may open the same old catalog at once: take
            # the write lock, then see whether it is still left to convert.
            conn.execute("BEGIN IMMEDIATE")
            dropped: list[str] = []
            if int(conn.execute("PRAGMA user_version").fetchone()[0]) < SCHEMA_VERSION:
                dropped = _upgrade(conn)
                conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
            conn.commit()
            store = FeatureStore(features_path(path.parent))
            for sha in dropped:
                store.delete(sha)
    except sqlite3.Error as exc:
        conn.close()
        raise StorageError(f"cannot initialise catalog {path}: {exc}") from exc
    except StorageError:
        conn.close()
        raise
    return conn


def _upgrade(conn: sqlite3.Connection) -> list[str]:
    """Convert a v5 catalog to v6 inside the caller's write transaction.

    The catalog loses its stored ANN tier, the ``ann_leaves`` rows; the
    digests of their uint8 code blocks are returned for the caller to
    delete once the conversion commits.  A code block's ``|u1`` header
    differs from every float64 or int64 block's, so no row left names it.
    """
    codes = [sha for (sha,) in conn.execute("SELECT code_sha FROM ann_leaves")]
    conn.execute("DROP TABLE ann_leaves")
    return codes
