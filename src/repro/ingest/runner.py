"""End-to-end corpus ingestion: titles in, queryable database dir out.

:func:`ingest_corpus` is the high-level entry the CLI and benchmarks
use.  It lays out a database directory::

    <db_dir>/
        artifacts/       content-addressed mined results (the cache)
        manifest.jsonl   job journal (resume state)
        catalog.sqlite   the registered, queryable catalog (see
                         repro.storage)
        features/        memory-mapped feature blocks the catalog
                         refers to

The artifacts are the source of truth: every run rebuilds the catalog
from the successful artifacts, so a resumed or partially failed ingest
still leaves a consistent, loadable database covering everything that
was mined.  :func:`~repro.storage.lazy.load_database` (re-exported
here and from :mod:`repro.ingest`) opens the SQL catalog lazily
(out-of-core feature blocks); ``classminer migrate`` rebuilds a lost
catalog from the artifacts.
"""

from __future__ import annotations

import logging
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.structure import MiningConfig
from repro.database.catalog import VideoDatabase
from repro.errors import IngestError
from repro.ingest.executor import JobOutcome, RetryPolicy, run_jobs
from repro.ingest.jobs import IngestJob, jobs_for_titles
from repro.ingest.manifest import JobManifest
from repro.ingest.artifacts import ArtifactStore
from repro.ingest.progress import ProgressCallback
from repro.obs.bridge import JobEventBridge
from repro.obs.registry import get_registry
from repro.obs.trace import span as obs_span
from repro.resilience.faults import fault_point
from repro.storage.lazy import load_database  # noqa: F401  (re-export)

_LOGGER = logging.getLogger(__name__)

#: File names inside a database directory.
ARTIFACTS_DIR = "artifacts"
MANIFEST_NAME = "manifest.jsonl"

#: A corpus hook receives ``(db_dir, database)`` after an ingest run has
#: rebuilt the database from its artifacts.
CorpusHook = Callable[[Path, VideoDatabase], None]

_corpus_hooks: list[CorpusHook] = []


def register_corpus_hook(hook: CorpusHook) -> CorpusHook:
    """Subscribe to corpus rebuilds.

    The serving layer uses this to bump its snapshot generation whenever
    ingest lands new videos: every :func:`ingest_jobs` run calls each
    registered hook with the database directory and the freshly rebuilt
    :class:`~repro.database.catalog.VideoDatabase`.  Returns the hook so
    it can be passed straight to :func:`unregister_corpus_hook`.
    """
    _corpus_hooks.append(hook)
    return hook


def unregister_corpus_hook(hook: CorpusHook) -> None:
    """Remove a previously registered corpus hook (missing hooks are a no-op)."""
    try:
        _corpus_hooks.remove(hook)
    except ValueError:
        pass


def _notify_corpus_hooks(db_dir: Path, database: VideoDatabase) -> None:
    for hook in list(_corpus_hooks):
        hook(db_dir, database)


@dataclass
class IngestReport:
    """What one :func:`ingest_corpus` run did.

    Attributes
    ----------
    db_dir:
        The database directory.
    database_path:
        The written ``catalog.sqlite`` inside it (None when nothing
        succeeded).
    outcomes:
        Per-job terminal outcomes, in job order.
    registered:
        Titles registered into the rebuilt database (this run's jobs
        plus every earlier artifact still in the store).
    """

    db_dir: Path
    database_path: Path | None
    outcomes: list[JobOutcome] = field(default_factory=list)
    registered: list[str] = field(default_factory=list)

    @property
    def mined(self) -> list[JobOutcome]:
        """Jobs actually mined this run."""
        return [o for o in self.outcomes if o.state == "done"]

    @property
    def cached(self) -> list[JobOutcome]:
        """Jobs satisfied from the artifact cache."""
        return [o for o in self.outcomes if o.state == "cached"]

    @property
    def failed(self) -> list[JobOutcome]:
        """Jobs that exhausted their retries (or timed out)."""
        return [o for o in self.outcomes if o.state == "failed"]

    @property
    def ok(self) -> bool:
        """True when every job produced an artifact."""
        return not self.failed


def store_for(db_dir: str | Path) -> ArtifactStore:
    """The artifact store of a database directory."""
    return ArtifactStore(Path(db_dir) / ARTIFACTS_DIR)


def manifest_for(db_dir: str | Path) -> JobManifest:
    """The job manifest of a database directory."""
    return JobManifest(Path(db_dir) / MANIFEST_NAME)


def rebuild_database(
    store: ArtifactStore, first: Sequence[str] = ()
) -> tuple[VideoDatabase, list[str]]:
    """Register every artifact of ``store``, the keys in ``first`` ahead of the rest.

    Only each artifact's catalog columns are read
    (:meth:`ArtifactStore.load_columns`); a title already registered by
    an earlier key is skipped.  One corrupt (or vanished) artifact must
    not take the whole rebuild down with it: the entry is quarantined by
    the store, counted and logged here, and the remaining corpus
    registers.  Returns the database and the keys that were skipped.
    """
    database = VideoDatabase()
    skipped: list[str] = []
    ahead = set(first)
    for key in [*first, *(info.key for info in store.list() if info.key not in ahead)]:
        try:
            columns = store.load_columns(key)
        except IngestError as exc:
            skipped.append(key)
            get_registry().counter(
                "ingest_rebuild_artifacts_skipped_total",
                "Artifacts skipped during database rebuilds.",
            ).inc()
            _LOGGER.warning("rebuild skipping artifact %s: %s", key[:12], exc)
            continue
        if columns.title not in database.videos:
            database.register_shots(*columns)
    return database, skipped


def ingest_jobs(
    jobs: list[IngestJob],
    db_dir: str | Path,
    workers: int = 1,
    force: bool = False,
    timeout: float | None = None,
    policy: RetryPolicy | None = None,
    progress: ProgressCallback | None = None,
    strict: bool = True,
) -> IngestReport:
    """Run prepared jobs into ``db_dir`` and (re)build its database.

    With ``strict`` (the default) any failed job raises
    :class:`IngestError` *after* the database has been rebuilt from the
    successful artifacts; pass ``strict=False`` to inspect failures on
    the returned report instead.
    """
    db_dir = Path(db_dir)
    db_dir.mkdir(parents=True, exist_ok=True)
    store = store_for(db_dir)
    manifest = manifest_for(db_dir)

    # Every run mirrors its job events into the shared registry (and,
    # when a tracer is installed, into back-dated job spans).
    progress = JobEventBridge(get_registry()).wrap(progress)

    with obs_span("ingest.run", jobs=len(jobs), workers=workers) as sp:
        outcomes = run_jobs(
            jobs,
            store,
            manifest,
            workers=workers,
            force=force,
            timeout=timeout,
            policy=policy,
            progress=progress,
            raise_on_failure=False,
        )
        sp.set(
            mined=sum(1 for o in outcomes if o.state == "done"),
            cached=sum(1 for o in outcomes if o.state == "cached"),
            failed=sum(1 for o in outcomes if o.state == "failed"),
        )

    with obs_span("ingest.rebuild") as sp:
        fault_point("ingest.rebuild")
        # This run's results first, then every other artifact already in
        # the store: the cache is the source of truth, so ingesting a
        # disjoint title set must not drop previously ingested videos
        # from the DB.
        database, skipped = rebuild_database(
            store, first=[outcome.key for outcome in outcomes if outcome.ok]
        )
        registered = list(database.videos)
        sp.set(registered=len(registered), skipped=len(skipped))

    database_path: Path | None = None
    if registered:
        from repro.storage.sqlcatalog import save_database

        database_path = save_database(database, db_dir)
        _notify_corpus_hooks(db_dir, database)
        get_registry().counter(
            "ingest_corpus_rebuilds_total",
            "Database rebuilds completed by ingest runs.",
        ).inc()

    report = IngestReport(
        db_dir=db_dir,
        database_path=database_path,
        outcomes=outcomes,
        registered=registered,
    )
    if strict and not report.ok:
        detail = "; ".join(f"{o.title}: {o.error}" for o in report.failed)
        raise IngestError(
            f"{len(report.failed)}/{len(outcomes)} ingest jobs failed — {detail}"
        )
    return report


def ingest_corpus(
    titles: list[str],
    db_dir: str | Path,
    workers: int = 1,
    force: bool = False,
    seed: int = 0,
    config: MiningConfig | None = None,
    mine_events: bool = True,
    timeout: float | None = None,
    policy: RetryPolicy | None = None,
    progress: ProgressCallback | None = None,
    strict: bool = True,
) -> IngestReport:
    """Ingest a set of titles into a persistent database directory.

    ``titles`` accepts corpus titles, ``demo``, and the shorthands
    ``corpus`` (the five paper titles) and ``all`` (corpus + demo).
    See :func:`ingest_jobs` for the execution and failure semantics.
    """
    jobs = jobs_for_titles(titles, seed=seed, config=config, mine_events=mine_events)
    if not jobs:
        raise IngestError("no titles to ingest")
    return ingest_jobs(
        jobs,
        db_dir,
        workers=workers,
        force=force,
        timeout=timeout,
        policy=policy,
        progress=progress,
        strict=strict,
    )
