"""Concurrent query-serving runtime over the hierarchical database.

The online counterpart to :mod:`repro.ingest` (Sec. 6's "efficient
access" requirement at many-user scale):

* :mod:`repro.serving.snapshot` — immutable, versioned read snapshots
  with atomic generation swap and an ingest hook;
* :mod:`repro.serving.cache` — bounded LRU result cache keyed on query
  digest, principal scope and generation (access resolved *before*
  lookup, never after);
* :mod:`repro.serving.engine` — the types of the one request
  lifecycle: request, result, ``ServerConfig`` (the knobs it reads),
  the backend seam, and ``QueryFront``, the one surface everything
  above a front (gateway, load generator, health) is written against;
* :mod:`repro.serving.server` — ``QueryServer``, the front: it runs
  that lifecycle (validate, admit, deadline, scope, cache, execute,
  account, explain) on the caller's thread, pins one generation per
  request, registers its metric families and reports health and
  status; the sharded front in :mod:`repro.net.coordinator` is its
  subclass;
* :mod:`repro.serving.loadgen` — the closed-loop multi-threaded load
  generator behind ``classminer loadtest``; drives any front, a remote
  one (:class:`repro.net.client.HttpFront`) included.
"""

from repro.serving.cache import (
    ANONYMOUS_SCOPE,
    CacheKey,
    CacheStats,
    ResultCache,
    feature_digest,
    request_digest,
    scope_token,
)
from repro.serving.loadgen import (
    DEFAULT_MIX,
    LoadgenConfig,
    LoadReport,
    build_query_pool,
    run_load,
)
from repro.serving.engine import (
    QUERY_KINDS,
    QueryFront,
    QueryRequest,
    ServerConfig,
    ServingResult,
)
from repro.serving.server import QueryServer
from repro.serving.snapshot import (
    Snapshot,
    SnapshotManager,
    build_snapshot,
)

__all__ = [
    "ANONYMOUS_SCOPE",
    "CacheKey",
    "CacheStats",
    "DEFAULT_MIX",
    "LoadReport",
    "LoadgenConfig",
    "QUERY_KINDS",
    "QueryFront",
    "QueryRequest",
    "QueryServer",
    "ResultCache",
    "ServerConfig",
    "ServingResult",
    "Snapshot",
    "SnapshotManager",
    "build_query_pool",
    "build_snapshot",
    "feature_digest",
    "request_digest",
    "run_load",
    "scope_token",
]
