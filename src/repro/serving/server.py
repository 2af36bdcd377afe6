"""The concurrent in-process query server.

:class:`QueryServer` puts a worker pool, a bounded admission queue and
per-query deadlines in front of the snapshot layer; everything a query
does once a worker picks it up — scope, cache, execution, accounting —
is the shared :class:`~repro.serving.engine.QueryEngine` lifecycle run
over a :class:`SnapshotBackend`:

* **Admission** — ``submit`` enqueues onto a bounded queue and raises
  :class:`~repro.errors.OverloadedError` when it is full, so overload
  sheds load instead of growing an unbounded backlog (the caller can
  back off and retry).
* **Deadlines** — every request carries an absolute deadline; a request
  that expires while still queued is failed without executing, and
  :meth:`query` raises :class:`~repro.errors.ServingError` when the
  deadline passes while waiting.
* **Generations** — results carry the snapshot generation they were
  computed against; a generation swap (manual ``refresh`` or the ingest
  hook) invalidates the cache structurally.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.database.access import User
from repro.database.catalog import RegisteredVideo, VideoDatabase
from repro.database.events_query import event_concept
from repro.errors import DeadlineExpiredError, OverloadedError, ReproError, ServingError
from repro.obs.export import render_prometheus
from repro.obs.trace import active_tracer
from repro.resilience.breaker import BreakerState, CircuitBreaker
from repro.resilience.health import HealthReport, server_health
from repro.resilience.watchdog import Watchdog
from repro.serving.cache import ResultCache
from repro.serving.engine import (
    BackendAnswer,
    ExplainSink,
    QueryEngine,
    QueryRequest,
    ServingResult,
    validate_front_config,
    validate_request,
)
from repro.serving.metrics import ServingMetrics
from repro.serving.snapshot import Snapshot, SnapshotManager, warm_ann_indexes


@dataclass(frozen=True)
class ServerConfig:
    """Tuning knobs of one :class:`QueryServer`.

    Attributes
    ----------
    workers:
        Worker threads executing queries.
    queue_depth:
        Bounded admission queue; a full queue rejects with
        :class:`~repro.errors.OverloadedError`.
    default_timeout:
        Per-query deadline in seconds applied when the request carries
        none (``None`` disables deadlines by default).
    cache_capacity:
        Resident entries in the LRU result cache.
    watchdog_interval:
        Seconds between worker-pool repair checks (a dead worker thread
        is resurrected); ``None`` disables the watchdog.
    ann_nprobe:
        Default coarse cells probed per leaf for ``shot`` queries that
        carry no ``nprobe`` of their own.  ``None`` (the default) keeps
        leaf scans exact unless a request opts in.  Enabling this also
        pre-warms per-leaf ANN indexes on every generation swap.
    ann_rerank_k:
        Default exact re-rank tail applied with :attr:`ann_nprobe`
        (``None`` re-ranks every surviving candidate).
    """

    workers: int = 4
    queue_depth: int = 64
    default_timeout: float | None = 5.0
    cache_capacity: int = 512
    watchdog_interval: float | None = 0.2
    ann_nprobe: int | None = None
    ann_rerank_k: int | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ServingError("a server needs at least one worker")
        if self.watchdog_interval is not None and self.watchdog_interval <= 0:
            raise ServingError("watchdog interval must be > 0 (or None)")
        validate_front_config(self)


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
        """Execute against the pinned snapshot (deadlines end at admission)."""
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
                stats.ann_degraded,
            )
        if request.kind == "shot_flat":
            result = snapshot.search_flat(request.features, k=request.k)
            return BackendAnswer(tuple(result.hits), result.stats.comparisons)
        if request.kind == "scene":
            scenes = snapshot.search_scenes(
                request.features, k=request.k, event=request.event
            )
            if leaves is not None:
                # Scope resolved before the cache key: filtering here is
                # part of computing the answer, not a post-cache patch.
                scenes = [
                    hit
                    for hit in scenes
                    if event_concept(hit.entry.video_title, hit.entry.event) in leaves
                ]
            return BackendAnswer(tuple(scenes), len(snapshot.scenes))
        events = snapshot.query_events(
            request.event, user=request.user, video_title=request.video_title
        )
        return BackendAnswer(tuple(events))

    def explain_fragment(
        self, sink: ExplainSink, result: ServingResult, cache_breaker: str
    ) -> dict:
        """The two breakers an in-process answer can sit behind."""
        return {
            "breakers": {
                "result-cache": cache_breaker,
                "snapshot": self._manager.breaker.state.value,
            }
        }


_SENTINEL = object()


class QueryServer:
    """Concurrent query-serving runtime over a :class:`SnapshotManager`."""

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
        # never mix counts.  ``classminer serve`` passes
        # ``ServingMetrics(registry=repro.obs.get_registry())`` to make
        # the same numbers visible to the Prometheus/JSON exporters.
        self._metrics = metrics if metrics is not None else ServingMetrics()
        self.engine = QueryEngine(
            partial(SnapshotBackend, self._manager), self.config, self._metrics
        )
        self._queue: queue.Queue = queue.Queue(maxsize=self.config.queue_depth)
        self._threads: list[threading.Thread] = []
        self._running = False
        self._lifecycle = threading.Lock()
        self._watchdog: Watchdog | None = None
        self._worker_serial = 0
        self._manager.subscribe(self._on_snapshot)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def _spawn_worker(self) -> threading.Thread:
        self._worker_serial += 1
        thread = threading.Thread(
            target=self._worker_loop,
            name=f"query-worker-{self._worker_serial}",
            daemon=True,
        )
        thread.start()
        return thread

    def start(self) -> "QueryServer":
        """Spin up the worker pool (idempotent once running)."""
        with self._lifecycle:
            if self._running:
                return self
            self._running = True
            self._threads = [
                self._spawn_worker() for _ in range(self.config.workers)
            ]
            if self.config.watchdog_interval is not None:
                self._watchdog = Watchdog(
                    self._repair_workers,
                    interval=self.config.watchdog_interval,
                    name="query-server-watchdog",
                ).start()
        return self

    def stop(self) -> None:
        """Drain the pool: in-flight and queued work finishes first."""
        with self._lifecycle:
            if not self._running:
                return
            self._running = False
            watchdog, self._watchdog = self._watchdog, None
        # Joined outside the lifecycle lock: its repair check takes the
        # same lock, so stopping it under the lock could deadlock.  With
        # ``_running`` already False the check is a no-op either way.
        if watchdog is not None:
            watchdog.stop()
        with self._lifecycle:
            for _ in self._threads:
                self._queue.put(_SENTINEL)
            for thread in self._threads:
                thread.join()
            self._threads = []

    def _repair_workers(self) -> int:
        """Resurrect dead worker threads (the watchdog's repair check).

        The worker loop is hardened to survive anything short of a
        process-killing condition, so this is the second line of
        defence: whatever still manages to kill a thread gets replaced,
        keeping the pool at its configured width.
        """
        with self._lifecycle:
            if not self._running:
                return 0
            dead = [t for t in self._threads if not t.is_alive()]
            if not dead:
                return 0
            alive = [t for t in self._threads if t.is_alive()]
            self._threads = alive + [self._spawn_worker() for _ in dead]
        self._metrics.registry.counter(
            "serving_worker_resurrections_total",
            "Dead query-worker threads replaced by the watchdog.",
        ).inc(len(dead))
        return len(dead)

    @property
    def alive_workers(self) -> int:
        """Worker threads currently alive."""
        return sum(1 for thread in self._threads if thread.is_alive())

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        """True while the worker pool is accepting queries."""
        return self._running

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
    def cache_breaker(self) -> CircuitBreaker:
        """The breaker guarding result-cache access."""
        return self.engine.cache_breaker

    @property
    def watchdog(self) -> Watchdog | None:
        """The worker watchdog (None while stopped or disabled)."""
        return self._watchdog

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
        return self._manager.current().flat.sample(n)

    def metrics_text(self) -> str:
        """Prometheus exposition of this server's registry."""
        return render_prometheus(self._metrics.registry)

    def attach_ingest(self):
        """Register this server's manager on the ingest corpus hook.

        Returns the hook so callers can pass it to
        :func:`repro.ingest.runner.unregister_corpus_hook` on shutdown.
        """
        from repro.ingest.runner import register_corpus_hook

        return register_corpus_hook(self._manager.ingest_hook())

    def _on_snapshot(self, snapshot: Snapshot) -> None:
        if self.config.ann_nprobe is not None:
            warm_ann_indexes(snapshot)
        self.engine.advance(snapshot.generation)

    # ------------------------------------------------------------------
    # Submission.
    # ------------------------------------------------------------------

    def submit(self, request: QueryRequest) -> "Future[ServingResult]":
        """Admit one query; returns a future resolving to its result.

        Raises :class:`~repro.errors.BadRequestError` for malformed
        requests, :class:`~repro.errors.ServingError` for a stopped
        server, and :class:`~repro.errors.OverloadedError` when the
        admission queue is full.
        """
        validate_request(request)
        if not self._running:
            raise ServingError("server is not running (call start())")
        timeout = self._timeout(request)
        deadline = None if timeout is None else time.perf_counter() + timeout
        future: Future[ServingResult] = Future()
        # Trace context is captured on the *submitting* thread: the
        # worker that dequeues this request adopts the span/trace ids so
        # the serve.query span nests under the caller (e.g. the HTTP
        # gateway's request span) despite crossing the queue.
        tracer = active_tracer()
        trace_parent = tracer.current_span_id()
        trace_id = tracer.current_trace_id()
        try:
            self._queue.put_nowait((request, future, deadline, trace_parent, trace_id))
        except queue.Full:
            self._metrics.record_rejection()
            raise OverloadedError(
                f"admission queue full ({self.config.queue_depth} pending); "
                "back off and retry"
            ) from None
        return future

    def _timeout(self, request: QueryRequest) -> float | None:
        if request.timeout is not None:
            return request.timeout
        return self.config.default_timeout

    def query(self, request: QueryRequest) -> ServingResult:
        """Blocking convenience: submit and wait out the deadline."""
        timeout = self._timeout(request)
        future = self.submit(request)
        try:
            return future.result(timeout=timeout)
        except FutureTimeoutError:
            future.cancel()
            self._metrics.record_timeout()
            raise DeadlineExpiredError(
                f"query deadline of {timeout}s exceeded while waiting"
            ) from None

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
    # Execution (worker side).
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        # Nothing a request does may kill this loop.  ``_process``
        # already converts execution failures into typed errors on the
        # future; the catch-all below covers the loop's own plumbing
        # (e.g. resolving an already-cancelled future), counts the
        # event, answers with a typed ServingError, and keeps going.
        while True:
            item = self._queue.get()
            if item is _SENTINEL:
                return
            try:
                self._process(item)
            except Exception as exc:
                self._metrics.registry.counter(
                    "serving_worker_failures_total",
                    "Unexpected exceptions survived by the worker loop.",
                ).inc()
                self._metrics.record_error()
                try:
                    future = item[1]
                    self._fail(future, ServingError(f"worker failed: {exc}"))
                except Exception:  # malformed item; nothing to answer
                    pass

    @staticmethod
    def _fail(future: Future, exc: Exception) -> None:
        """Fail a future that may already be cancelled or resolved."""
        try:
            future.set_exception(exc)
        except Exception:
            pass

    def _process(self, item) -> None:
        request, future, deadline, trace_parent, trace_id = item
        if not future.set_running_or_notify_cancel():
            return
        if deadline is not None and time.perf_counter() > deadline:
            self._metrics.record_timeout()
            self._fail(
                future,
                DeadlineExpiredError("deadline expired while queued for admission"),
            )
            return
        try:
            with active_tracer().adopt(trace_parent, trace_id):
                result = self.engine.execute(request, deadline)
        except ReproError as exc:
            self._metrics.record_error()
            self._fail(future, exc)
            return
        except Exception as exc:
            self._metrics.record_error()
            self._fail(future, ServingError(f"query execution failed: {exc}"))
            return
        try:
            future.set_result(result)
        except Exception:  # future cancelled while we computed
            pass

    # ------------------------------------------------------------------
    # Reporting.
    # ------------------------------------------------------------------

    def describe(self) -> str:
        """One-stop plain-text status: snapshot, cache, metrics."""
        snapshot = self._manager.current()
        cache, cache_breaker = self.engine.cache, self.engine.cache_breaker
        stats = cache.stats()
        degraded_videos = snapshot.degraded_videos
        lines = [
            f"query server: {self.alive_workers}/{self.config.workers} workers, "
            f"queue depth {self.config.queue_depth}, "
            f"{'running' if self._running else 'stopped'}",
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
            f"{stats.stale_evictions} stale evicted"
            + (
                ""
                if cache_breaker.state is BreakerState.CLOSED
                else f" [{cache_breaker.describe()}]"
            ),
            f"  breakers: {self._manager.breaker.describe()}; "
            f"{cache_breaker.describe()}",
            self._metrics.render(),
        ]
        return "\n".join(lines)
