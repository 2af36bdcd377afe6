"""One-shot migration of a JSON-era database directory to the SQL catalog.

``classminer migrate --db-dir db/`` converts what an older ingest run
left behind into the durable backend this package serves from::

    database.json  ──►  catalog.sqlite + features/*.npy

The JSON catalog is preferred as the source when present (it is the
exact state the old loader would have produced); without one, the
corpus is rebuilt from the artifact store — the same source-of-truth
path ``classminer ingest`` uses — so a directory holding only
artifacts migrates too.  The migration is idempotent: re-running it
replaces the SQL catalog in one transaction and content addressing
means unchanged feature blocks are not rewritten.

Query equivalence is part of the contract (and covered by the storage
test suite): a migrated catalog answers flat, hierarchical and scene
searches bit-identically to loading the original JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.database.catalog import RegisteredVideo, VideoDatabase
from repro.database.hierarchy import ensure_subject_area
from repro.errors import DatabaseError, StorageError
from repro.obs.trace import span as obs_span
from repro.storage.schema import DATABASE_NAME
from repro.storage.sqlcatalog import save_database


@dataclass(frozen=True)
class MigrationReport:
    """What one :func:`migrate_db_dir` run did.

    Attributes
    ----------
    db_dir / catalog_path:
        The migrated directory and the SQL catalog written into it.
    source:
        Where the corpus came from: ``json`` (``database.json``) or
        ``artifacts`` (rebuilt from the artifact store).
    videos / entries / blocks:
        Registered videos, stored shot entries and feature blocks now
        on disk.
    skipped_artifacts:
        Artifact keys that failed to load during an artifact-sourced
        rebuild (quarantined by the store, not migrated).
    removed_json:
        True when ``--remove-json`` deleted the legacy file.
    """

    db_dir: Path
    catalog_path: Path
    source: str
    videos: int
    entries: int
    blocks: int
    skipped_artifacts: tuple[str, ...] = ()
    removed_json: bool = False

    def render(self) -> str:
        """Human-readable one-paragraph summary."""
        lines = [
            f"migrated {self.db_dir} from {self.source}:",
            f"  catalog: {self.catalog_path}",
            f"  {self.videos} videos, {self.entries} shot entries, "
            f"{self.blocks} feature blocks",
        ]
        if self.skipped_artifacts:
            lines.append(
                f"  skipped {len(self.skipped_artifacts)} unreadable artifacts"
            )
        if self.removed_json:
            lines.append("  removed legacy database.json")
        return "\n".join(lines)


def load_legacy_json(path: str | Path) -> VideoDatabase:
    """Restore the database a JSON-era ``database.json`` holds.

    The file lists shots leaf by leaf, so flat ordinals are assigned in
    that order (as the JSON-era loader did).  Raises
    :class:`~repro.errors.DatabaseError` for a missing or unparsable
    file.
    """
    try:
        payload = json.loads(Path(path).read_text())
        database = VideoDatabase()
        for leaf, entries in payload.get("leaves", {}).items():
            if "/" in leaf:
                # Recreate on-demand subject areas ('general/...').
                ensure_subject_area(database.hierarchy, leaf.split("/", 1)[0])
            for raw in entries:
                database._file(
                    leaf,
                    raw["video_title"],
                    [raw["features"]],
                    [int(raw["shot_id"])],
                    int(raw["scene_id"]),
                )
        for title, raw in payload.get("videos", {}).items():
            database._videos[title] = RegisteredVideo.from_json(title, raw)
    except (OSError, json.JSONDecodeError) as exc:
        raise DatabaseError(f"cannot load database from {path}: {exc}") from exc
    return database


def _database_from_artifacts(db_dir: Path) -> tuple[VideoDatabase, list[str]]:
    """Rebuild the corpus from the artifact store (ingest's own path).

    The only branch that needs the ingest stack, so the only one that
    imports it: migrating a ``database.json`` stays inside the query
    stack's import layer.
    """
    from repro.ingest.runner import ARTIFACTS_DIR, rebuild_database, store_for

    if not (db_dir / ARTIFACTS_DIR).exists():
        raise StorageError(
            f"nothing to migrate in {db_dir}: no {DATABASE_NAME} and "
            f"no {ARTIFACTS_DIR}/ store"
        )
    return rebuild_database(store_for(db_dir))


def migrate_db_dir(
    db_dir: str | Path, remove_json: bool = False
) -> MigrationReport:
    """Convert a database directory to the SQL catalog backend.

    Sources ``database.json`` when present, else rebuilds from the
    artifact store.  Raises :class:`~repro.errors.StorageError` when the
    directory holds neither (or the corpus comes up empty).  With
    ``remove_json`` the legacy JSON file is deleted *after* the SQL
    catalog has been durably written.
    """
    db_dir = Path(db_dir)
    json_path = db_dir / DATABASE_NAME
    skipped: list[str] = []
    with obs_span("storage.migrate") as sp:
        if json_path.exists():
            source = "json"
            database = load_legacy_json(json_path)
        else:
            source = "artifacts"
            database, skipped = _database_from_artifacts(db_dir)
        if not database.videos:
            raise StorageError(f"{db_dir} migration found no registered videos")
        catalog_path = save_database(database, db_dir)
        sp.set(source=source, videos=len(database.videos))

    removed = False
    if remove_json and json_path.exists():
        json_path.unlink()
        removed = True

    from repro.storage.featurestore import FeatureStore
    from repro.storage.schema import features_path

    blocks = len(FeatureStore(features_path(db_dir)).list_blocks())
    return MigrationReport(
        db_dir=db_dir,
        catalog_path=catalog_path,
        source=source,
        videos=len(database.videos),
        entries=database.shot_count,
        blocks=blocks,
        skipped_artifacts=tuple(skipped),
        removed_json=removed,
    )
