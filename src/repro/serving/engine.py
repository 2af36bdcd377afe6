"""The types of the one request lifecycle behind both query fronts.

:meth:`QueryServer.query <repro.serving.server.QueryServer.query>` runs
every step a query takes between arrival and answer, for the
in-process front and its sharded subclass
:class:`~repro.net.coordinator.ShardedQueryService` alike, on the
thread that called it::

    validate -> admission (queue_depth in flight, else OverloadedError)
      -> absolute deadline; already spent = DeadlineExpiredError
      -> fold ANN defaults -> resolve + memoise scope -> CacheKey
      -> cache lookup (explain bypasses)
      -> backend.run(request, leaves, deadline, explain sink)
      -> assemble ServingResult -> cache-put policy -> metrics
      -> slow log -> explain envelope
      -> deadline again: a late answer is DeadlineExpiredError

This module holds what that lifecycle reads and hands back: the
request, the result, the knobs, and its two seams.  The only variable
is the :class:`QueryBackend` — *where* the leaves are scanned.  Access
scope is resolved **before** the cache lookup and is part of the key,
so a cached result can never cross a clearance boundary; answers
weakened by a missing shard are never cached, and neither are explain
executions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple, Protocol

import numpy as np

from repro.core.kernels import HISTOGRAM_DIM, TEXTURE_DIM
from repro.database.access import User
from repro.errors import BadRequestError, ServingError
from repro.types import EventKind

if TYPE_CHECKING:  # names the front surface only, never called here
    from repro.database.catalog import RegisteredVideo
    from repro.obs.registry import MetricsRegistry
    from repro.resilience.health import HealthReport
    from repro.serving.cache import ResultCache
    from repro.serving.snapshot import Snapshot

#: Query kinds the serving runtime distinguishes.
QUERY_KINDS = ("shot", "shot_flat", "scene", "event")


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

    The first thing :meth:`QueryServer.query
    <repro.serving.server.QueryServer.query>` does, so a bad request
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
    """The knobs of one query front.

    Both fronts take it; each knob means the same thing on either.

    Attributes
    ----------
    queue_depth:
        Queries in flight at once, each on the thread that brought it;
        one more is :class:`~repro.errors.OverloadedError` (HTTP 503).
    default_timeout:
        Per-query deadline in seconds when the request carries none
        (``None``: no deadline unless the request sets one).  A finite
        number above 0: a spent default would refuse every query, and
        ``nan`` / ``inf`` would switch deadlines off unannounced.
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
        timeout = self.default_timeout
        if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
            raise ServingError(
                f"default_timeout must be finite and > 0 (or None), not {timeout}"
            )
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
    """What a front's query lifecycle needs from wherever the leaves are
    scanned.

    One instance serves one request: the front *pins* a backend per
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

    The lifecycle's other seam: :class:`QueryBackend` is where the leaves
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
    registry: MetricsRegistry
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

    def refresh(self) -> Snapshot:
        """Re-read the corpus and start a new generation."""
