"""Corpus ingestion runtime: parallel mining, artifact cache, resumable jobs.

The batch layer that turns a set of titles into a persistent, queryable
database directory (Sec. 5-6's corpus-scale story) — the offline half
of the paper's split; the query stack only reads what it writes.  One
straight line, jobs → artifacts → catalog directory:

* :mod:`repro.ingest.jobs` — jobs and deterministic cache keys;
* :mod:`repro.ingest.executor` — the one job loop: worker processes or
  the calling thread, retry, backoff and per-job timeouts;
* :mod:`repro.ingest.artifacts` — content-addressed ``.npz`` + JSON
  store for mined :class:`~repro.core.pipeline.ClassMinerResult`\\ s;
  a valid artifact is what marks its job done (there is no second
  journal), which is what makes an interrupted ingest resumable;
* :mod:`repro.ingest.progress` — structured per-job progress events;
* :mod:`repro.ingest.runner` — ``ingest_corpus`` end to end, and
  ``publish_catalog``, the one step from artifacts to catalog.
"""

from repro._lazy import lazy_exports

# Exported lazily (PEP 562): ``from repro.ingest import load_database``
# (the serving entry points' historical spelling) loads no ingest module.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.ingest.artifacts": (
            "ArtifactInfo",
            "ArtifactStore",
            "decode_result",
            "encode_result",
        ),
        "repro.ingest.executor": ("JobOutcome", "run_jobs"),
        "repro.ingest.jobs": ("IngestJob", "cache_key", "jobs_for_titles"),
        "repro.ingest.progress": ("JobEvent", "ProgressTracker"),
        "repro.ingest.runner": (
            "IngestReport",
            "ingest_corpus",
            "ingest_jobs",
            "store_for",
        ),
        # Moved out so the query stack can use them without this package's
        # mining imports; re-exported here because this is where callers
        # learned to find them.
        "repro.resilience.retry": ("RetryPolicy",),
        "repro.storage.lazy": ("load_database",),
    },
)

__all__ = [
    "ArtifactInfo",
    "ArtifactStore",
    "IngestJob",
    "IngestReport",
    "JobEvent",
    "JobOutcome",
    "ProgressTracker",
    "RetryPolicy",
    "cache_key",
    "decode_result",
    "encode_result",
    "ingest_corpus",
    "ingest_jobs",
    "jobs_for_titles",
    "load_database",
    "run_jobs",
    "store_for",
]
