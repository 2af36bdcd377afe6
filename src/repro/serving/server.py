"""The in-process query front.

:class:`QueryServer` is what is left of a server once a query runs on
the thread that brought it: the :class:`SnapshotManager` it reads, the
:class:`SnapshotBackend` that :meth:`QueryServer._pin` pins for one
generation per request, and the health / describe / metrics views.  It
owns no thread and no queue.  Everything a query does — validation,
admission, deadline, scope, cache, execution, accounting — is
:meth:`QueryEngine.query <repro.serving.engine.QueryEngine.query>`.
The sharded front, :class:`~repro.net.coordinator.ShardedQueryService`,
is this class with a backend whose leaf work runs on shard workers.

* **Lifecycle** — :meth:`QueryServer.start` builds the first snapshot
  generation and opens the engine;
  :meth:`QueryServer.stop` closes it and returns once the queries in
  flight have finished, so the database may be closed afterwards.
* **Generations** — results carry the snapshot generation they were
  computed against; a generation swap (``refresh`` or
  ``manager.install``) invalidates the cache structurally.
"""

from __future__ import annotations

import numpy as np

from repro.database.access import User
from repro.database.catalog import RegisteredVideo, VideoDatabase
from repro.errors import ServingError
from repro.obs.export import render_prometheus
from repro.resilience.health import HealthReport, server_health
from repro.serving.cache import ResultCache
from repro.serving.engine import (
    BackendAnswer,
    ExplainSink,
    QueryEngine,
    QueryRequest,
    ServerConfig,
    ServingResult,
)
from repro.serving.metrics import ServingMetrics
from repro.serving.snapshot import Snapshot, SnapshotManager, warm_ann_indexes


class SnapshotBackend:
    """The in-process :class:`~repro.serving.engine.QueryBackend`.

    Pins the manager's current snapshot for one request, so scope
    resolution, the cache key and the scan all see one generation.
    """

    __slots__ = ("_manager", "_snapshot", "generation")

    name = "single"
    span = "serve.query"

    def __init__(self, manager: SnapshotManager) -> None:
        self._manager = manager
        self._snapshot = manager.current()
        self.generation = self._snapshot.generation

    @property
    def degraded(self) -> bool:
        """Stale generation, or a corpus with degraded videos."""
        return self._manager.degraded or bool(self._snapshot.degraded_videos)

    def permitted_leaves(self, user: User) -> frozenset[str]:
        """Leaf concepts ``user`` may enter in the pinned snapshot."""
        return self._snapshot.permitted_leaves(user)

    def run(
        self,
        request: QueryRequest,
        leaves: frozenset[str] | None,
        deadline: float | None,
        sink: ExplainSink | None,
    ) -> BackendAnswer:
        """Execute against the pinned snapshot (a scan cannot be interrupted)."""
        snapshot = self._snapshot
        if request.kind == "shot":
            result = snapshot.search(
                request.features,
                user=request.user,
                k=request.k,
                allowed_leaves=leaves,
                nprobe=request.nprobe,
                rerank_k=request.rerank_k,
            )
            stats = result.stats
            return BackendAnswer(
                tuple(result.hits),
                stats.comparisons,
                stats.approx_comparisons,
                stats.reranked,
            )
        if request.kind == "shot_flat":
            result = snapshot.search_flat(request.features, k=request.k)
            return BackendAnswer(tuple(result.hits), result.stats.comparisons)
        if request.kind == "scene":
            scenes = snapshot.search_scenes(
                request.features, k=request.k, event=request.event, allowed=leaves
            )
            return BackendAnswer(tuple(scenes), len(snapshot.scenes))
        events = snapshot.query_events(
            request.event, user=request.user, video_title=request.video_title
        )
        return BackendAnswer(tuple(events))

    def explain_fragment(self, sink: ExplainSink, result: ServingResult) -> dict:
        """No keys of its own: an in-process answer sits behind no breaker."""
        return {}


class QueryServer:
    """In-process query front over a :class:`SnapshotManager`."""

    def __init__(
        self,
        database: VideoDatabase | None = None,
        config: ServerConfig | None = None,
        manager: SnapshotManager | None = None,
        metrics: ServingMetrics | None = None,
    ) -> None:
        if (database is None) == (manager is None):
            raise ServingError("pass exactly one of database or manager")
        self.config = config if config is not None else ServerConfig()
        self._manager = manager if manager is not None else SnapshotManager(database)
        # Default: metrics on a private registry, so independent servers
        # never mix counts.  ``classminer serve`` passes the process-wide
        # one, so its ``GET /metrics`` carries these numbers too.
        self._metrics = metrics if metrics is not None else ServingMetrics()
        self.engine = QueryEngine(self._pin, self.config, self._metrics)
        self._manager.subscribe(self._on_snapshot)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def start(self) -> "QueryServer":
        """Build the first generation, then accept queries (idempotent).

        A started front is ready: health reads a generation before the
        first query, not after it.
        """
        self._manager.current()
        self.engine.open()
        return self

    def stop(self) -> None:
        """Refuse new queries and wait for those in flight (idempotent)."""
        self.engine.close()

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        """True while the server is accepting queries."""
        return self.engine.is_open

    # ------------------------------------------------------------------
    # State the outside world may inspect.
    # ------------------------------------------------------------------

    @property
    def manager(self) -> SnapshotManager:
        """The snapshot manager this server reads from."""
        return self._manager

    @property
    def metrics(self) -> ServingMetrics:
        """Live serving metrics."""
        return self._metrics

    @property
    def cache(self) -> ResultCache:
        """The result cache."""
        return self.engine.cache

    @property
    def generation(self) -> int:
        """Current snapshot generation."""
        return self._manager.generation

    def refresh(self) -> Snapshot:
        """Rebuild the snapshot from the live database (generation bump)."""
        return self._manager.refresh()

    fanout = 1  #: one process answers; nothing scatters

    def records(self) -> dict[str, RegisteredVideo]:
        """Registration records of the current snapshot, by title."""
        return dict(self._manager.current().records)

    def health_report(self) -> HealthReport:
        """The live / ready / degraded verdict (cheap state only)."""
        return server_health(self)

    def sample_features(self, n: int = 16) -> list[np.ndarray]:
        """Evenly spaced stored feature vectors (loadgen pools)."""
        snapshot = self._manager.current()  # pinned: sampling may load leaves
        return snapshot.flat.sample(n)

    def metrics_text(self) -> str:
        """Prometheus exposition of this server's registry."""
        return render_prometheus(self._metrics.registry)

    def _pin(self) -> SnapshotBackend:
        """The backend one query runs on: the current snapshot, pinned."""
        return SnapshotBackend(self._manager)

    def _on_snapshot(self, snapshot: Snapshot) -> None:
        if self.config.ann_nprobe is not None:
            warm_ann_indexes(snapshot)
        self.engine.advance(snapshot.generation)

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    def query(self, request: QueryRequest) -> ServingResult:
        """Answer one request on the calling thread (see the engine)."""
        return self.engine.query(request)

    def search(
        self,
        features: np.ndarray,
        user: User | None = None,
        k: int = 10,
        kind: str = "shot",
    ) -> ServingResult:
        """Shorthand for a blocking shot (or flat) search."""
        return self.query(QueryRequest(kind=kind, features=features, k=k, user=user))

    # ------------------------------------------------------------------
    # Reporting.
    # ------------------------------------------------------------------

    def describe(self) -> str:
        """One-stop plain-text status: snapshot, cache, metrics."""
        snapshot = self._manager.current()
        cache = self.engine.cache
        stats = cache.stats()
        degraded_videos = snapshot.degraded_videos
        lines = [
            f"query server: {self.engine.in_flight}/{self.config.queue_depth} "
            f"queries in flight, {'running' if self.running else 'stopped'}",
            f"  snapshot: generation {snapshot.generation}, "
            f"{len(snapshot.records)} videos, {snapshot.shot_count} shots"
            + (
                f", {len(degraded_videos)} degraded"
                if degraded_videos
                else ""
            )
            + (
                f" (stale: {self._manager.last_error})"
                if self._manager.degraded
                else ""
            ),
            f"  cache: {len(cache)}/{cache.capacity} entries, "
            f"hit rate {stats.hit_rate * 100:.1f}%, "
            f"{stats.stale_evictions} stale evicted",
            self._metrics.render(),
        ]
        return "\n".join(lines)
