"""End-to-end corpus ingestion: titles in, queryable database dir out.

:func:`ingest_corpus` is the high-level entry the CLI and benchmarks
use.  The write path is one straight line — jobs → artifacts → catalog
— over a database directory::

    <db_dir>/
        artifacts/       content-addressed mined results: the cache,
                         and the only record of which jobs are done
        catalog.sqlite   the registered, queryable catalog (see
                         repro.storage)
        features/        memory-mapped feature blocks the catalog
                         refers to

The artifacts are the source of truth: :func:`publish_catalog` — the
one function that turns a directory's artifacts into its catalog —
runs at the end of every ingest, so a resumed or partially failed
ingest still leaves a consistent, loadable database covering
everything that was mined, and ``classminer migrate`` is the same
function run on its own to bring back a lost catalog.  A server is
moved to the new corpus explicitly, after the ingest returns:
``server.manager.install(load_database(db_dir))``
(:func:`~repro.storage.lazy.load_database`, re-exported here and from
:mod:`repro.ingest`, opens the SQL catalog lazily over out-of-core
feature blocks).
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.config import MiningConfig
from repro.database.catalog import VideoDatabase
from repro.errors import IngestError
from repro.ingest.executor import JobOutcome, RetryPolicy, run_jobs
from repro.ingest.jobs import IngestJob, jobs_for_titles
from repro.ingest.artifacts import ArtifactStore
from repro.ingest.progress import ProgressCallback
from repro.obs.bridge import JobEventBridge
from repro.obs.registry import get_registry
from repro.obs.trace import span as obs_span
from repro.resilience.faults import fault_point
from repro.storage.lazy import load_database  # noqa: F401  (re-export)
from repro.storage.sqlcatalog import save_database

_LOGGER = logging.getLogger(__name__)

#: The artifact store's directory inside a database directory.
ARTIFACTS_DIR = "artifacts"


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
    skipped:
        Keys of artifacts the rebuild could not read and left out of
        the catalog (the store quarantined them; the next ingest of
        their titles re-mines).
    """

    db_dir: Path
    database_path: Path | None
    outcomes: list[JobOutcome] = field(default_factory=list)
    registered: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)

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


def publish_catalog(
    db_dir: str | Path, outcomes: Sequence[JobOutcome] = ()
) -> IngestReport:
    """Turn ``db_dir``'s artifacts into its catalog — the one publish.

    Every artifact in the store is registered, the ``outcomes`` of the
    run that just ended first (the cache is the source of truth, so
    ingesting a disjoint title set must not drop previously ingested
    videos), and the catalog is saved when anything registered.  Called
    with no outcomes this is ``classminer migrate``: the catalog of a
    directory that holds only artifacts, or lost its own, comes back.
    """
    db_dir = Path(db_dir)
    with obs_span("ingest.rebuild") as sp:
        fault_point("ingest.rebuild")
        database, skipped = rebuild_database(
            store_for(db_dir), first=[outcome.key for outcome in outcomes if outcome.ok]
        )
        registered = list(database.videos)
        sp.set(registered=len(registered), skipped=len(skipped))

    database_path: Path | None = None
    if registered:
        database_path = save_database(database, db_dir)
        get_registry().counter(
            "ingest_corpus_rebuilds_total",
            "Database rebuilds completed by ingest runs.",
        ).inc()
    return IngestReport(
        db_dir=db_dir,
        database_path=database_path,
        outcomes=list(outcomes),
        registered=registered,
        skipped=skipped,
    )


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
    """Run prepared jobs into ``db_dir`` and publish its catalog.

    See :func:`repro.ingest.executor.run_jobs` for the execution
    semantics.  With ``strict`` (the default) any failed job raises
    :class:`IngestError` *after* the catalog has been rebuilt from the
    successful artifacts; pass ``strict=False`` to inspect failures on
    the returned report instead.
    """
    db_dir = Path(db_dir)
    db_dir.mkdir(parents=True, exist_ok=True)

    # Every run mirrors its job events into the shared registry (and,
    # when a tracer is installed, into back-dated job spans).
    progress = JobEventBridge(get_registry()).wrap(progress)

    with obs_span("ingest.run", jobs=len(jobs), workers=workers) as sp:
        outcomes = run_jobs(
            jobs,
            store_for(db_dir),
            workers=workers,
            force=force,
            timeout=timeout,
            policy=policy,
            progress=progress,
        )
        sp.set(
            mined=sum(1 for o in outcomes if o.state == "done"),
            cached=sum(1 for o in outcomes if o.state == "cached"),
            failed=sum(1 for o in outcomes if o.state == "failed"),
        )

    report = publish_catalog(db_dir, outcomes)
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
