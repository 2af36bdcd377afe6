"""Exception hierarchy for the ClassMiner reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.  The taxonomy
fans out by subsystem:

``ReproError``
    ├── ``VideoError`` / ``AudioError`` / ``VisionError`` — substrate
    │   failures (streams, waveforms, visual features).
    ├── ``MiningError`` / ``EventMiningError`` — the Sec. 3/4 pipeline.
    ├── ``DatabaseError``
    │   ├── ``AccessDeniedError`` — an access rule denied the request;
    │   │   the HTTP gateway answers an unknown token with it (401).
    │   ├── ``UnknownVideoError`` — the request names an unregistered
    │   │   video; the HTTP gateway maps the *type* to 404.
    │   └── ``StorageError`` — the durable storage subsystem (SQL
    │       catalog schema/locking, feature-store bookkeeping).
    │       └── ``SchemaVersionError`` — a catalog version this build
    │           neither reads nor converts; ``classminer migrate``
    │           rebuilds it.
    ├── ``IngestError`` — the corpus ingestion runtime.
    │   └── ``IntegrityError`` — a stored artifact failed checksum
    │       verification (corrupt on disk; quarantined by the store).
    ├── ``ServingError`` — the concurrent query-serving runtime.
    │   ├── ``BadRequestError`` — the request itself is malformed
    │   │   (unknown kind, missing features, ``k < 1``, …); the HTTP
    │   │   gateway maps the *type* to 400.
    │   ├── ``OverloadedError`` — ``queue_depth`` queries are already in
    │   │   flight; shed and retry instead of queueing without bound.
    │   ├── ``RpcTransportError`` — a shard RPC failed in transit
    │   │   (reset, refused connect, truncated frame).  Transient and
    │   │   retry-safe: every shard op is idempotent.
    │   │   ├── ``FrameCorruptError`` — a frame failed its CRC32
    │   │   │   checksum (corruption detected, never decoded).
    │   │   └── ``WorkerDrainingError`` — the worker is draining and
    │   │       refused new work; retry lands on its replacement.
    │   ├── ``DeadlineExpiredError`` — the query's deadline ran out
    │   │   (spent on arrival, answer ready too late, before or
    │   │   during a shard call).  *Not* transient: there is no budget
    │   │   left to retry with; the gateway maps the *type* to 504.
    │   └── ``NoShardAnsweredError`` — a flat or scene scatter got no
    │       response from any shard; the query fails with it.
    ├── ``FaultInjectedError`` — raised only by an armed
    │   :class:`repro.resilience.FaultPlan`; production code never
    │   raises it, but must contain it like any other failure.
    ├── ``ObservabilityError`` / ``SkimmingError`` / ``EvaluationError``
    └── …

:class:`DegradedResultWarning` is a *warning*, not an error: it is
emitted (via :mod:`warnings`) when a pipeline stage fails and the miner
degrades to a partial result — structure-only events, visual-only rules
— instead of raising.  Callers that must not accept partial results can
promote it with ``warnings.simplefilter("error", DegradedResultWarning)``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class VideoError(ReproError):
    """Problems with video streams, frames, or the synthetic generator."""


class AudioError(ReproError):
    """Problems with waveforms, audio features, or speaker analysis."""


class VisionError(ReproError):
    """Problems inside the visual-feature substrate."""


class MiningError(ReproError):
    """Problems while mining content structure (shots/groups/scenes)."""


class EventMiningError(ReproError):
    """Problems while classifying scene events."""


class DatabaseError(ReproError):
    """Problems in the hierarchical video database layer."""


class AccessDeniedError(DatabaseError):
    """An access-control rule denied the requested operation."""


class UnknownVideoError(DatabaseError):
    """The request names a video that is not registered (HTTP 404)."""


class StorageError(DatabaseError):
    """Problems in the durable storage subsystem (SQL catalog, feature store).

    Raised for schema-version mismatches, a catalog that stays locked
    past the retry budget, or missing feature blocks.  Corrupt feature
    blocks (truncated or checksum-failing mmaps) raise
    :class:`IntegrityError` instead, matching the artifact store.
    """


class SchemaVersionError(StorageError):
    """The catalog's schema version is neither this build's nor the one
    before it, which converts on open; ``classminer migrate`` rebuilds it."""


class IngestError(ReproError):
    """Problems in the corpus ingestion runtime (jobs, cache, executor)."""


class IntegrityError(IngestError):
    """A stored artifact's content does not match its checksums.

    Raised on read by :class:`~repro.ingest.artifacts.ArtifactStore`
    after the corrupt entry has been quarantined; the next ingest run
    re-mines the affected video transparently.
    """


class ServingError(ReproError):
    """Problems in the concurrent query-serving runtime."""


class BadRequestError(ServingError):
    """The query request is malformed; retrying it unchanged cannot help.

    Raised by :func:`repro.serving.engine.validate_request`, the one
    request validator both query fronts share, and by the HTTP gateway
    for a body or header it cannot parse.  The gateway maps this type to
    400 (every other :class:`ServingError` is the server's fault:
    500/503/504), and :class:`~repro.net.client.HttpFront` raises it
    back from a 400.
    """


class OverloadedError(ServingError):
    """Bounded admission refused the request: too many queries in flight."""


class RpcTransportError(ServingError):
    """A shard RPC failed in transit: reset, refused connect, or a
    connection that closed mid-frame.

    Transient by contract — every shard op is idempotent (reads,
    ``reload``, ``drain``), so the coordinator retries these within the
    query's remaining deadline before charging the shard's breaker.
    """


class FrameCorruptError(RpcTransportError):
    """A received frame failed its CRC32 checksum.

    The payload is never JSON-decoded: corruption is detected at the
    framing layer and the connection is torn down so the retry starts
    on a clean one.
    """


class WorkerDrainingError(RpcTransportError):
    """The shard worker is draining and refused new work.

    Raised from the typed ``draining`` error response; retrying is safe
    and lands on the respawned replacement once the cluster cycles it.
    """


class DeadlineExpiredError(ServingError):
    """The query deadline ran out: spent on arrival, spent by the time the
    answer was ready, or before (or during) a shard call.

    Deliberately *not* an :class:`RpcTransportError`: with no budget
    left there is nothing to retry with, so the coordinator fails the
    shard immediately and the gateway maps it to HTTP 504.
    """


class NoShardAnsweredError(ServingError):
    """A ``flat`` or ``scene`` scatter got no response from any shard.

    Each shard call has already spent its retry budget and every
    breaker-blocked shard has had its last-resort attempt, so the query
    fails; past its deadline the coordinator raises
    :class:`DeadlineExpiredError` instead.
    """


class FaultInjectedError(ReproError):
    """An armed fault plan fired an error fault at an instrumented point.

    Only :mod:`repro.resilience.faults` raises this; it exists so chaos
    tests can tell injected failures from organic ones while the rest of
    the system handles both identically.
    """


class DegradedResultWarning(UserWarning):
    """A pipeline stage failed and the result degraded instead of raising.

    The warning message names the failed stage; the produced
    :class:`~repro.core.pipeline.ClassMinerResult` lists it in
    ``degraded_stages``.
    """


class ObservabilityError(ReproError):
    """Problems in the observability layer (tracing, metrics, export)."""


class SkimmingError(ReproError):
    """Problems while building or traversing scalable skims."""


class EvaluationError(ReproError):
    """Problems while computing evaluation metrics."""
