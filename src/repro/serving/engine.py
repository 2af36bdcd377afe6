"""The one request lifecycle behind both query fronts.

:class:`QueryEngine` owns every step a query takes between arrival and
answer, for the in-process :class:`~repro.serving.server.QueryServer`
and the sharded :class:`~repro.net.coordinator.ShardedQueryService`
alike, and runs all of it on the thread that called
:meth:`QueryEngine.query`::

    validate -> admission (queue_depth in flight, else OverloadedError)
      -> absolute deadline; already spent = DeadlineExpiredError
      -> fold ANN defaults -> resolve + memoise scope -> CacheKey
      -> cache lookup (explain bypasses)
      -> backend.run(request, leaves, deadline, explain sink)
      -> assemble ServingResult -> cache-put policy -> metrics
      -> slow log -> explain envelope
      -> deadline again: a late answer is DeadlineExpiredError

The only variable is the :class:`QueryBackend` seam — *where* the
leaves are scanned.  Access scope is resolved **before** the cache
lookup and is part of the key, so a cached result can never cross a
clearance boundary; answers weakened by a missing shard are never
cached, and neither are explain executions.
Rejections, missed deadlines and errors are counted here and nowhere
else, so the two fronts cannot account for them differently.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, NamedTuple, Protocol

import numpy as np

from repro.core.kernels import HISTOGRAM_DIM, TEXTURE_DIM
from repro.database.access import User
from repro.errors import (
    BadRequestError,
    DeadlineExpiredError,
    OverloadedError,
    ReproError,
    ServingError,
)
from repro.obs.slowlog import SlowQuery, get_slow_log
from repro.obs.trace import (
    active_tracer,
    current_trace_id,
    new_trace_id,
    span as obs_span,
)
from repro.resilience.faults import fault_point
from repro.serving.cache import CacheKey, ResultCache, request_digest, scope_token
from repro.serving.metrics import QUERY_KINDS, ServingMetrics
from repro.types import EventKind

if TYPE_CHECKING:  # names the front surface only, never called here
    from repro.database.catalog import RegisteredVideo
    from repro.resilience.health import HealthReport


@dataclass(frozen=True)
class QueryRequest:
    """One query submitted to a query front.

    ``kind`` selects the execution path: ``shot`` (hierarchical
    descent), ``shot_flat`` (Eq. 24 linear-scan baseline), ``scene``
    (centroid search) or ``event`` (registration-record walk).  Shot and
    scene kinds need ``features``; event kind needs ``event``.

    ``nprobe`` / ``rerank_k`` (``shot`` kind only) opt this query into
    the approximate leaf tier; unset, the front's configured defaults
    apply, and with neither the scan stays exact.

    ``explain`` asks for per-phase timings and execution metadata on
    the result.  An explain query computes the same answer (the result
    fields are bit-identical) but bypasses the result cache in both
    directions — it is never served from cache and never written to it
    — so the reported timings describe a real execution.  ``explain``
    is deliberately *not* part of the cache identity
    (:func:`~repro.serving.cache.request_digest` ignores it).
    """

    kind: str
    features: np.ndarray | None = field(default=None, repr=False)
    k: int = 10
    user: User | None = None
    event: EventKind | None = None
    video_title: str | None = None
    timeout: float | None = None
    nprobe: int | None = None
    rerank_k: int | None = None
    explain: bool = False


@dataclass(frozen=True)
class ServingResult:
    """What a query front hands back for one query.

    ``hits`` is the kind-specific payload (``RankedShot`` /
    ``RankedScene`` / ``EventHit`` lists); ``generation`` names the
    corpus generation the answer was computed against;
    ``elapsed_seconds`` is the execution time, measured on the
    monotonic clock.

    ``degraded`` is True when the answer comes from a weakened
    position: the last snapshot rebuild failed (so the generation is
    stale), the corpus contains videos whose mining fell back
    somewhere, or a shard could not contribute.  The answer is still
    correct for the data it covers — the flag tells the caller the
    evidence is not at full strength.  It is recomputed on every answer,
    cache hits included.

    ``shards_missing`` is only ever non-empty on answers produced by
    the sharded scatter-gather backend: it lists the shard ids whose
    worker could not contribute, in which case ``degraded`` is also
    True and the hits cover the reachable shards only.

    ``approx_comparisons`` counts quantized-code (uint8) evaluations the
    ANN tier performed and ``reranked`` the candidates its exact tail
    scored; both stay 0 on exact queries.

    ``explain`` is populated only on ``explain=True`` requests: a plain
    dict of per-phase timings, comparison counts, cache disposition and
    (sharded) per-shard breaker states.  It is metadata *about* the
    execution — the other fields are bit-identical to what the same
    request would return without explain.
    """

    kind: str
    hits: tuple
    generation: int
    cache_hit: bool
    elapsed_seconds: float
    comparisons: int = 0
    degraded: bool = False
    shards_missing: tuple[int, ...] = ()
    approx_comparisons: int = 0
    reranked: int = 0
    explain: dict | None = None


def validate_request(request: QueryRequest) -> None:
    """Reject a malformed request with :class:`BadRequestError`.

    The first thing :meth:`QueryEngine.query` does, so a bad request
    never costs an admission slot or a scatter.
    """
    if request.kind not in QUERY_KINDS:
        raise BadRequestError(
            f"unknown query kind {request.kind!r}; expected one of {QUERY_KINDS}"
        )
    if request.kind == "event":
        if request.event is None:
            raise BadRequestError("event queries need an EventKind")
    elif request.features is None:
        raise BadRequestError(f"{request.kind} queries need a feature vector")
    elif np.shape(request.features) != (HISTOGRAM_DIM + TEXTURE_DIM,):
        raise BadRequestError(
            f"{request.kind} queries need a ({HISTOGRAM_DIM + TEXTURE_DIM},) "
            f"feature vector, not shape {np.shape(request.features)}"
        )
    elif not np.isfinite(request.features).all():
        # A NaN score fails every ``top_k`` comparison, and each kind drops a different set.
        raise BadRequestError(f"{request.kind} queries need finite feature values")
    if request.kind == "shot_flat" and request.user is not None:
        # The flat baseline has no concept structure to filter on;
        # silently post-filtering would apply access control after
        # ranking, which the serving layer forbids.
        raise BadRequestError(
            "the flat baseline does not support per-user access filtering"
        )
    if request.k < 1:
        raise BadRequestError("k must be >= 1")
    if request.timeout is not None and not math.isfinite(request.timeout):
        raise BadRequestError(f"timeout must be finite, not {request.timeout}")
    if request.video_title is not None and not isinstance(request.video_title, str):
        raise BadRequestError("video_title must be a string")
    if request.nprobe is not None or request.rerank_k is not None:
        if request.kind != "shot":
            raise BadRequestError(
                "nprobe/rerank_k only apply to hierarchical shot queries"
            )
        if request.nprobe is not None and request.nprobe < 1:
            raise BadRequestError("nprobe must be >= 1 (or None for exact)")
        if request.rerank_k is not None and request.rerank_k < 1:
            raise BadRequestError("rerank_k must be >= 1 (or None for all)")


@dataclass(frozen=True)
class ServerConfig:
    """The knobs of one query front — what :class:`QueryEngine` reads.

    Both fronts take it; each knob means the same thing on either.

    Attributes
    ----------
    queue_depth:
        Queries in flight at once, each on the thread that brought it;
        one more is :class:`~repro.errors.OverloadedError` (HTTP 503).
    default_timeout:
        Per-query deadline in seconds when the request carries none
        (``None``: no deadline unless the request sets one).
    ann_nprobe:
        Default coarse cells probed per leaf for ``shot`` queries that
        carry no ``nprobe`` of their own; ``None`` (the default) keeps
        scans exact unless a request opts in.  Scores stay kernel-exact
        (each shard prunes with its own quantizer), so ``nprobe`` over
        every cell with an unbounded re-rank tail reproduces the exact
        answer bit for bit.  In process, setting it also pre-warms the
        per-leaf ANN indexes on every generation swap.
    ann_rerank_k:
        Default exact re-rank tail applied with :attr:`ann_nprobe`
        (``None`` re-ranks every surviving candidate).
    """

    queue_depth: int = 64
    default_timeout: float | None = 5.0
    ann_nprobe: int | None = None
    ann_rerank_k: int | None = None

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ServingError("queue depth must be >= 1")
        if self.ann_nprobe is not None and self.ann_nprobe < 1:
            raise ServingError("ann_nprobe must be >= 1 (or None for exact)")
        if self.ann_rerank_k is not None and self.ann_rerank_k < 1:
            raise ServingError("ann_rerank_k must be >= 1 (or None for all)")


class ExplainSink:
    """Accumulates the per-query evidence an ``explain`` response ships.

    ``phases`` maps phase name -> seconds; ``shard_ops`` records one
    entry per shard RPC (appended from scatter threads — list.append is
    atomic, and the sink is sorted once at assembly).
    """

    __slots__ = ("phases", "shard_ops")

    def __init__(self) -> None:
        self.phases: dict[str, float] = {}
        self.shard_ops: list[dict] = []

    def record_op(self, shard: int, op: str, seconds: float, ok: bool) -> None:
        """Note one shard RPC attempt (called from scatter threads)."""
        self.shard_ops.append(
            {"shard": shard, "op": op, "ms": round(seconds * 1e3, 3), "ok": ok}
        )

    def phases_ms(self, total: float) -> dict[str, float]:
        """Phase timings in milliseconds, plus the end-to-end total."""
        out = {name: round(secs * 1e3, 3) for name, secs in self.phases.items()}
        out["total"] = round(total * 1e3, 3)
        return out

    def ops(self) -> list[dict]:
        """Shard RPC records, deterministically ordered."""
        return sorted(
            self.shard_ops, key=lambda op: (op["shard"], op["op"], op["ms"])
        )


class BackendAnswer(NamedTuple):
    """What :meth:`QueryBackend.run` computed for one request.

    ``shards_missing`` describes *this execution* only (a lost shard may
    heal on the very next query), which is why an answer carrying it is
    never cached.
    """

    hits: tuple
    comparisons: int = 0
    approx_comparisons: int = 0
    reranked: int = 0
    shards_missing: tuple[int, ...] = ()


class QueryBackend(Protocol):
    """What the engine needs from wherever the leaves are scanned.

    One instance serves one request: the engine *pins* a backend per
    query, so ``generation``, the scope and the scan all see the same
    corpus even while a new generation is being installed.
    """

    name: str  #: ``backend`` tag in explain payloads and the slow log
    span: str  #: name of the root trace span of one query
    generation: int
    degraded: bool  #: standing weakness: stale generation, degraded videos

    def permitted_leaves(self, user: User) -> frozenset[str]:
        """Leaf concepts ``user`` may enter (resolved before the cache)."""

    def run(
        self,
        request: QueryRequest,
        leaves: frozenset[str] | None,
        deadline: float | None,
        sink: ExplainSink | None,
    ) -> BackendAnswer:
        """Execute the (validated, ANN-folded) request inside ``leaves``."""

    def explain_fragment(self, sink: ExplainSink, result: ServingResult) -> dict:
        """Backend-specific explain keys (``breakers``, ``shards``, …)."""


class QueryFront(Protocol):
    """What everything *above* a query front is written against.

    The engine's other seam: :class:`QueryBackend` is where the leaves
    are scanned, this is who answers.  ``QueryServer`` implements all of
    it, and so does its subclass ``ShardedQueryService`` (leaf work on
    shard workers), so the gateway, the load generator and the health
    command call whichever they were handed; :class:`~repro.net.client.HttpFront` is the client
    half (``query`` / ``health_report`` / ``sample_features``) over a
    running gateway.  A hit is an identity and a score: one that crossed
    a wire (sharded or HTTP) carries ``entry.features`` /
    ``entry.centroid`` ``None``, an in-process hit a lazy view of the row.
    """

    fanout: int  #: shards the front scatters across (1 in process)
    generation: int
    metrics: ServingMetrics
    cache: ResultCache

    def query(self, request: QueryRequest) -> ServingResult:
        """Answer one request, blocking; typed errors on every failure."""

    def records(self) -> dict[str, RegisteredVideo]:
        """Registration records by video title."""

    def health_report(self) -> HealthReport:
        """The live / ready / degraded verdict."""

    def sample_features(self, n: int) -> list[np.ndarray]:
        """Up to ``n`` stored feature vectors, spread over the corpus."""

    def metrics_text(self) -> str:
        """Prometheus exposition of everything this front counts."""

    def refresh(self) -> object:
        """Re-read the corpus and start a new generation."""


class QueryEngine:
    """Runs the request lifecycle over a pinned :class:`QueryBackend`.

    ``pin`` returns the backend one request executes against.  The
    engine is built closed: a front calls :meth:`open` when it is ready
    to answer and :meth:`close` before it lets go of what the backend
    reads.
    """

    def __init__(
        self,
        pin: Callable[[], QueryBackend],
        config: ServerConfig,
        metrics: ServingMetrics,
    ) -> None:
        self._pin = pin
        self._config = config
        self.metrics = metrics
        self.cache = ResultCache()
        metrics.registry.register_collector(self.cache.metrics_snapshot)
        self._scope_lock = threading.Lock()
        self._scopes: dict[tuple[User, int], frozenset[str]] = {}
        self._slow_log = get_slow_log()
        # Queries in flight, counted under one condition: admission is
        # ``count < queue_depth`` while open, the drain waits for zero.
        self._gate = threading.Condition(threading.Lock())
        self._in_flight = 0
        self._open = False

    # -- lifecycle -----------------------------------------------------

    def open(self) -> None:
        """Start admitting queries (idempotent)."""
        with self._gate:
            self._open = True

    def close(self) -> None:
        """Refuse new queries; return once those in flight have finished.

        Idempotent; :meth:`open` re-opens.
        """
        with self._gate:
            self._open = False
            self._gate.wait_for(lambda: self._in_flight == 0)

    @property
    def is_open(self) -> bool:
        """True while queries are being admitted."""
        return self._open

    @property
    def in_flight(self) -> int:
        """Queries running right now (those draining after a close included)."""
        return self._in_flight

    # -- the one public query path -------------------------------------

    def query(self, request: QueryRequest) -> ServingResult:
        """Answer one request on the calling thread; typed errors only.

        :class:`~repro.errors.BadRequestError` for a malformed request,
        :class:`~repro.errors.ServingError` while closed,
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
            if not self._open:
                raise ServingError("query front is not running")
            admitted = self._in_flight < self._config.queue_depth
            if admitted:
                self._in_flight += 1
        if not admitted:
            self.metrics.record_rejection()
            raise OverloadedError(
                f"{self._config.queue_depth} queries in flight; back off and retry"
            )
        try:
            timeout = request.timeout
            if timeout is None:
                timeout = self._config.default_timeout
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
            self.metrics.record_timeout()
            raise
        except ReproError:
            self.metrics.record_error()
            raise
        except Exception as exc:
            self.metrics.record_error()
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

    def advance(self, generation: int) -> None:
        """A new corpus generation is live: drop what the old one keyed."""
        self.cache.evict_other_generations(generation)
        with self._scope_lock:
            self._scopes = {
                key: leaves
                for key, leaves in self._scopes.items()
                if key[1] == generation
            }
        self.metrics.record_generation_swap()

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
            or self._config.ann_nprobe is None
        ):
            return request
        return replace(
            request,
            nprobe=self._config.ann_nprobe,
            rerank_k=(
                request.rerank_k
                if request.rerank_k is not None
                else self._config.ann_rerank_k
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
        self.metrics.record_query(
            result.kind,
            result.elapsed_seconds,
            comparisons=result.comparisons,
            cache_hit=result.cache_hit,
        )
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
