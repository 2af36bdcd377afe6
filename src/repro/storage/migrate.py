"""Rebuild a database directory's SQL catalog from its artifact store.

``classminer migrate --db-dir db/`` writes the durable backend this
package serves from out of what ingest runs left behind::

    artifacts/  ──►  catalog.sqlite + features/*.npy

The corpus is rebuilt from the artifact store — the same
source-of-truth path ``classminer ingest`` uses — so a directory
holding only artifacts (or a catalog that was lost or damaged) comes
back queryable.  The migration is idempotent: re-running it replaces
the SQL catalog in one transaction and content addressing means
unchanged feature blocks are not rewritten.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.errors import StorageError
from repro.obs.trace import span as obs_span
from repro.storage.sqlcatalog import save_database


@dataclass(frozen=True)
class MigrationReport:
    """What one :func:`migrate_db_dir` run did.

    Attributes
    ----------
    db_dir / catalog_path:
        The migrated directory and the SQL catalog written into it.
    videos / entries / blocks:
        Registered videos, stored shot entries and feature blocks now
        on disk.
    skipped_artifacts:
        Artifact keys that failed to load during an artifact-sourced
        rebuild (quarantined by the store, not migrated).
    """

    db_dir: Path
    catalog_path: Path
    videos: int
    entries: int
    blocks: int
    skipped_artifacts: tuple[str, ...] = ()

    def render(self) -> str:
        """Human-readable one-paragraph summary."""
        lines = [
            f"migrated {self.db_dir} from artifacts:",
            f"  catalog: {self.catalog_path}",
            f"  {self.videos} videos, {self.entries} shot entries, "
            f"{self.blocks} feature blocks",
        ]
        if self.skipped_artifacts:
            lines.append(
                f"  skipped {len(self.skipped_artifacts)} unreadable artifacts"
            )
        return "\n".join(lines)


def migrate_db_dir(db_dir: str | Path) -> MigrationReport:
    """Rebuild ``db_dir``'s SQL catalog from its artifact store.

    Raises :class:`~repro.errors.StorageError` when the directory holds
    no artifact store (or the corpus comes up empty).
    """
    # The rebuild needs the ingest stack; importing it here keeps this
    # module inside the query stack's import layer.
    from repro.ingest.runner import ARTIFACTS_DIR, rebuild_database, store_for

    db_dir = Path(db_dir)
    if not (db_dir / ARTIFACTS_DIR).exists():
        raise StorageError(
            f"nothing to migrate in {db_dir}: no {ARTIFACTS_DIR}/ store"
        )
    with obs_span("storage.migrate") as sp:
        database, skipped = rebuild_database(store_for(db_dir))
        if not database.videos:
            raise StorageError(f"{db_dir} migration found no registered videos")
        catalog_path = save_database(database, db_dir)
        sp.set(videos=len(database.videos))

    from repro.storage.featurestore import FeatureStore
    from repro.storage.schema import features_path

    blocks = len(FeatureStore(features_path(db_dir)).list_blocks())
    return MigrationReport(
        db_dir=db_dir,
        catalog_path=catalog_path,
        videos=len(database.videos),
        entries=database.shot_count,
        blocks=blocks,
        skipped_artifacts=tuple(skipped),
    )
