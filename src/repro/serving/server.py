"""The query front: one class from arrival to answer.

:class:`QueryServer` runs every step of a query on the thread that
brought it — validation, admission, deadline, scope, cache, execution,
accounting, explain — over the :class:`SnapshotManager` it reads and
the :class:`SnapshotBackend` that :meth:`QueryServer._pin` pins for one
generation per request.  It owns no thread and no queue, and registers
its own metric families.  The sharded front,
:class:`~repro.net.coordinator.ShardedQueryService`, is this class with
a backend whose leaf work runs on shard workers, so rejections, missed
deadlines and errors are counted in one place for both.

* **Lifecycle** — :meth:`QueryServer.start` builds the first snapshot
  generation and admits queries; :meth:`QueryServer.stop` refuses new
  ones and returns once the queries in flight have finished, so the
  database may be closed afterwards.
* **Generations** — results carry the snapshot generation they were
  computed against; a generation swap (``refresh`` or
  ``manager.install``) invalidates the cache structurally.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import numpy as np

from repro.database.access import User
from repro.database.catalog import RegisteredVideo, VideoDatabase
from repro.errors import (
    DeadlineExpiredError,
    OverloadedError,
    ReproError,
    ServingError,
)
from repro.obs.export import render_prometheus
from repro.obs.metrics import format_seconds
from repro.obs.registry import MetricsRegistry
from repro.obs.slowlog import SlowQuery, get_slow_log
from repro.obs.trace import (
    active_tracer,
    current_trace_id,
    new_trace_id,
    span as obs_span,
)
from repro.resilience.faults import fault_point
from repro.resilience.health import HealthReport, server_health
from repro.serving.cache import CacheKey, ResultCache, request_digest, scope_token
from repro.serving.engine import (
    QUERY_KINDS,
    BackendAnswer,
    ExplainSink,
    QueryBackend,
    QueryRequest,
    ServerConfig,
    ServingResult,
    validate_request,
)
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
    """Query front over a :class:`SnapshotManager`.

    ``registry`` is where the front's metric families live.  The default
    is a private registry, so independent servers never mix counts;
    ``classminer serve`` passes the process-wide one, so its
    ``GET /metrics`` carries these numbers too.
    """

    def __init__(
        self,
        database: VideoDatabase | None = None,
        config: ServerConfig | None = None,
        manager: SnapshotManager | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if (database is None) == (manager is None):
            raise ServingError("pass exactly one of database or manager")
        self.config = config if config is not None else ServerConfig()
        self._manager = manager if manager is not None else SnapshotManager(database)
        self.registry = registry if registry is not None else MetricsRegistry()
        self._started = time.perf_counter()
        self._events = self.registry.counter(
            "serving_events_total",
            "Serving runtime event counts, by event name.",
            labelnames=("event",),
        )
        self._latency = self.registry.histogram(
            "serving_latency_seconds",
            "Query execution latency, all query kinds.",
        )
        self._by_kind = self.registry.histogram(
            "serving_kind_latency_seconds",
            "Query execution latency, per query kind.",
            labelnames=("kind",),
        )
        self.cache = ResultCache()
        self.registry.register_collector(self.cache.metrics_snapshot)
        self._scope_lock = threading.Lock()
        self._scopes: dict[tuple[User, int], frozenset[str]] = {}
        self._slow_log = get_slow_log()
        # Queries in flight, counted under one condition: admission is
        # ``count < queue_depth`` while running, the drain waits for zero.
        self._gate = threading.Condition(threading.Lock())
        self._in_flight = 0
        self._running = False
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
        with self._gate:
            self._running = True
        return self

    def stop(self) -> None:
        """Refuse new queries; return once those in flight have finished.

        Idempotent; :meth:`start` re-opens.
        """
        with self._gate:
            self._running = False
            self._gate.wait_for(lambda: self._in_flight == 0)

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        """True while the server is accepting queries."""
        return self._running

    @property
    def in_flight(self) -> int:
        """Queries running right now (those draining after a stop included)."""
        return self._in_flight

    # ------------------------------------------------------------------
    # State the outside world may inspect.
    # ------------------------------------------------------------------

    @property
    def manager(self) -> SnapshotManager:
        """The snapshot manager this server reads from."""
        return self._manager

    @property
    def generation(self) -> int:
        """Current snapshot generation."""
        return self._manager.generation

    def refresh(self) -> Snapshot:
        """Rebuild the snapshot from the live database (generation bump)."""
        return self._manager.refresh()

    fanout = 1  #: one process answers; nothing scatters

    def count(self, event: str) -> int:
        """One ``serving_events_total`` count (0 when never touched; none is created)."""
        return int(self._events.peek(event=event))

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
        return render_prometheus(self.registry)

    def _pin(self) -> QueryBackend:
        """The backend one query runs on: the current snapshot, pinned."""
        return SnapshotBackend(self._manager)

    def _on_snapshot(self, snapshot: Snapshot) -> None:
        """A new generation is live: drop what the old one keyed."""
        self._warm(snapshot)
        generation = snapshot.generation
        self.cache.evict_other_generations(generation)
        with self._scope_lock:
            self._scopes = {
                key: leaves for key, leaves in self._scopes.items() if key[1] == generation
            }
        self._note("generation_swaps")

    def _warm(self, snapshot: Snapshot) -> None:
        """Pre-build the leaves' ANN indexes when shot queries default to them."""
        if self.config.ann_nprobe is not None:
            warm_ann_indexes(snapshot)

    def _note(self, event: str, amount: float = 1.0) -> None:
        self._events.labels(event=event).inc(amount)

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    def query(self, request: QueryRequest) -> ServingResult:
        """Answer one request on the calling thread; typed errors only.

        :class:`~repro.errors.BadRequestError` for a malformed request,
        :class:`~repro.errors.ServingError` while stopped,
        :class:`~repro.errors.OverloadedError` beyond ``queue_depth``
        queries in flight, :class:`~repro.errors.DeadlineExpiredError`
        when the deadline (``request.timeout``, else ``default_timeout``)
        is spent on arrival or by the time the answer is ready — a scan
        cannot be interrupted, so a late answer is refused, not returned.
        Whatever else fails surfaces as a :class:`~repro.errors.ReproError`.
        """
        arrived = time.perf_counter()
        validate_request(request)
        with self._gate:
            if not self._running:
                raise ServingError("query front is not running")
            admitted = self._in_flight < self.config.queue_depth
            if admitted:
                self._in_flight += 1
        if not admitted:
            self._note("rejected_overload")
            raise OverloadedError(
                f"{self.config.queue_depth} queries in flight; back off and retry"
            )
        try:
            timeout = request.timeout
            if timeout is None:
                timeout = self.config.default_timeout
            deadline = None if timeout is None else arrived + timeout
            if deadline is not None and time.perf_counter() >= deadline:
                raise DeadlineExpiredError(
                    f"query deadline of {timeout}s was spent on arrival"
                )
            # Inside an adopted trace (the gateway's) keep its id; as the
            # entry point, mint one so every span of the query shares it.
            tracer = active_tracer()
            trace_id = (
                (tracer.current_trace_id() or new_trace_id())
                if tracer.enabled
                else None
            )
            with tracer.adopt(trace_id):
                result = self.execute(request, deadline)
            if deadline is not None and time.perf_counter() > deadline:
                raise DeadlineExpiredError(
                    f"query deadline of {timeout}s exceeded before the answer"
                )
            return result
        except DeadlineExpiredError:
            self._note("deadline_timeouts")
            raise
        except ReproError:
            self._note("errors")
            raise
        except Exception as exc:
            self._note("errors")
            raise ServingError(f"query execution failed: {exc}") from exc
        finally:
            with self._gate:
                self._in_flight -= 1
                if not self._in_flight:
                    self._gate.notify_all()
            # Block once per query (a zero sleep still parks the thread
            # for a timer tick, ~70 us on Linux).  A closed-loop caller
            # blocks nowhere else, and CPython lets such a thread keep
            # the interpreter 5 ms at a time: a writer thread in this
            # process (live ingest, a publish) waits that out per I/O call.
            time.sleep(0)

    def search(
        self,
        features: np.ndarray,
        user: User | None = None,
        k: int = 10,
        kind: str = "shot",
    ) -> ServingResult:
        """Shorthand for a blocking shot (or flat) search."""
        return self.query(QueryRequest(kind=kind, features=features, k=k, user=user))

    def execute(
        self, request: QueryRequest, deadline: float | None = None
    ) -> ServingResult:
        """Answer one validated request (cache, backend, accounting)."""
        backend = self._pin()
        with obs_span(backend.span, kind=request.kind) as sp:
            trace_id = current_trace_id()
            if trace_id is not None:
                sp.set(trace_id=trace_id)
            result = self._answer(backend, request, deadline)
            sp.set(
                cache_hit=result.cache_hit,
                generation=result.generation,
                hits=len(result.hits),
                comparisons=result.comparisons,
                shards_missing=len(result.shards_missing),
            )
            return result

    def _answer(
        self, backend: QueryBackend, request: QueryRequest, deadline: float | None
    ) -> ServingResult:
        start = time.perf_counter()
        fault_point("serve.query")
        request = self._fold_ann_defaults(request)
        leaves, scope = self._scope(request.user, backend)
        scope_seconds = time.perf_counter() - start
        key = CacheKey(
            kind=request.kind,
            digest=request_digest(request),
            k=request.k,
            scope=scope,
            generation=backend.generation,
        )
        # Explain queries bypass the cache in both directions: the
        # reported timings must describe a real execution, and a result
        # carrying explain metadata must never be served to a caller
        # that did not ask for it.
        sink = ExplainSink() if request.explain else None
        cached = self.cache.get(key) if sink is None else None
        if cached is not None:
            result = replace(
                cached,
                cache_hit=True,
                elapsed_seconds=time.perf_counter() - start,
                degraded=backend.degraded,
            )
            self._account(backend, result)
            return result

        if sink is not None:
            sink.phases["scope"] = scope_seconds
        search_start = time.perf_counter()
        answer = backend.run(request, leaves, deadline, sink)
        if sink is not None:
            sink.phases["search"] = time.perf_counter() - search_start
        # Weakness of this execution only — a lost shard may heal on the
        # very next query, so caching the answer would pin the weakened
        # result for a whole generation.
        transient = bool(answer.shards_missing)
        result = ServingResult(
            kind=request.kind,
            hits=answer.hits,
            generation=backend.generation,
            cache_hit=False,
            elapsed_seconds=time.perf_counter() - start,
            comparisons=answer.comparisons,
            degraded=backend.degraded or transient,
            shards_missing=answer.shards_missing,
            approx_comparisons=answer.approx_comparisons,
            reranked=answer.reranked,
        )
        if sink is not None:
            result = replace(
                result, explain=self._explain(backend, request, key, result, sink)
            )
        elif not transient:
            self.cache.put(key, result)
        self._account(backend, result)
        return result

    def _fold_ann_defaults(self, request: QueryRequest) -> QueryRequest:
        """Fold the front's configured ANN defaults into the request.

        Resolved *before* the cache key is computed, so a configured
        default and an explicit per-request knob with the same values
        share cache entries (and an exact query never collides with an
        approximate one).
        """
        if (
            request.kind != "shot"
            or request.nprobe is not None
            or self.config.ann_nprobe is None
        ):
            return request
        return replace(
            request,
            nprobe=self.config.ann_nprobe,
            rerank_k=(
                request.rerank_k
                if request.rerank_k is not None
                else self.config.ann_rerank_k
            ),
        )

    def _scope(
        self, user: User | None, backend: QueryBackend
    ) -> tuple[frozenset[str] | None, str]:
        """Resolve (permitted leaves, scope token) for the cache key.

        Leaf sets are memoised per (user, generation); the audit log
        records the resolution once per generation rather than once per
        query.
        """
        if user is None:
            return None, scope_token(None, None)
        memo_key = (user, backend.generation)
        with self._scope_lock:
            leaves = self._scopes.get(memo_key)
        if leaves is None:
            leaves = backend.permitted_leaves(user)
            with self._scope_lock:
                self._scopes[memo_key] = leaves
        return leaves, scope_token(user, leaves)

    def _account(self, backend: QueryBackend, result: ServingResult) -> None:
        """Metrics and slow log for one finished query (hit or miss)."""
        with self.registry.lock:
            self._note("queries_total")
            self._note(f"queries_{result.kind}")
            if not result.cache_hit:
                self._note("executed_queries")
                self._note("comparisons_total", result.comparisons)
            self._latency.record(result.elapsed_seconds)
            self._by_kind.labels(kind=result.kind).record(result.elapsed_seconds)
        self._slow_log.record(
            SlowQuery(
                kind=result.kind,
                elapsed_seconds=result.elapsed_seconds,
                backend=backend.name,
                comparisons=result.comparisons,
                approx_comparisons=result.approx_comparisons,
                cache_hit=result.cache_hit,
                degraded=result.degraded,
                shards_missing=result.shards_missing,
                trace_id=current_trace_id(),
            )
        )

    def _explain(
        self,
        backend: QueryBackend,
        request: QueryRequest,
        key: CacheKey,
        result: ServingResult,
        sink: ExplainSink,
    ) -> dict:
        """Execution metadata for one explain query (never cached)."""
        payload = {
            "backend": backend.name,
            "kind": request.kind,
            "generation": result.generation,
            "phases_ms": sink.phases_ms(result.elapsed_seconds),
            "counts": {
                "comparisons": result.comparisons,
                "approx_comparisons": result.approx_comparisons,
                "reranked": result.reranked,
            },
            "cache": {
                "disposition": "bypassed (explain)",
                "would_hit": self.cache.peek(key) is not None,
                "entries": len(self.cache),
                "capacity": self.cache.capacity,
            },
            "degraded": result.degraded,
            "ann": {"nprobe": request.nprobe, "rerank_k": request.rerank_k},
            "trace_id": current_trace_id(),
        }
        payload.update(backend.explain_fragment(sink, result))
        return payload

    # ------------------------------------------------------------------
    # Reporting.
    # ------------------------------------------------------------------

    def describe(self) -> str:
        """One-stop plain-text status: snapshot, cache, metrics."""
        snapshot = self._manager.current()
        cache = self.cache
        stats = cache.stats()
        degraded_videos = snapshot.degraded_videos
        lines = [
            f"query server: {self.in_flight}/{self.config.queue_depth} "
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
        ]
        with self.registry.lock:
            events = {
                labels[0][1]: int(child.value) for labels, child in self._events.samples()
            }
            kinds = {labels[0][1]: hist for labels, hist in self._by_kind.samples()}
            uptime = max(time.perf_counter() - self._started, 1e-9)
            queries = events.get("queries_total", 0)
            executed = events.get("executed_queries", 0)
            latency = self._latency
            lines += [
                "serving metrics",
                f"  uptime           {uptime:.2f}s",
                f"  queries          {queries} ({queries / uptime:.1f} qps)",
                "  comparisons/q    {:.1f} (executed only)".format(
                    events.get("comparisons_total", 0) / executed if executed else 0.0
                ),
                f"  rejected         {events.get('rejected_overload', 0)} overload,"
                f" {events.get('deadline_timeouts', 0)} deadline,"
                f" {events.get('errors', 0)} errors",
                f"  generation swaps {events.get('generation_swaps', 0)}",
                "  latency          p50 {p50}  p95 {p95}  p99 {p99}  max {mx}".format(
                    p50=format_seconds(latency.quantile(0.50)),
                    p95=format_seconds(latency.quantile(0.95)),
                    p99=format_seconds(latency.quantile(0.99)),
                    mx=format_seconds(latency.max),
                ),
            ]
            for kind in QUERY_KINDS:
                hist = kinds.get(kind)
                if hist is None or not hist.count:
                    continue
                lines.append(
                    f"    {kind:<10} n={hist.count:<6} "
                    f"p50 {format_seconds(hist.quantile(0.5))}  "
                    f"p95 {format_seconds(hist.quantile(0.95))}  "
                    f"p99 {format_seconds(hist.quantile(0.99))}"
                )
        return "\n".join(lines)
