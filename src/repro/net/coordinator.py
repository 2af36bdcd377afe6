"""Scatter-gather coordinator over shard workers.

:class:`ShardedQueryService` is the sharded counterpart of the
in-process :class:`~repro.serving.server.QueryServer`: the same
:class:`~repro.serving.engine.QueryEngine` lifecycle (validation,
scope, cache, accounting, explain) — but the service is the engine's
scatter-gather :class:`~repro.serving.engine.QueryBackend`: the corpus
lives in N shard worker processes and every feature query fans out.

**Exactness.**  With all shards healthy, results are bit-identical to
the single-process path (ids, scores, tie-break order):

* The coordinator itself runs the Eq. (25) beam descent over a routing
  tree rebuilt from the manifest's full-corpus leaf metadata
  (:func:`~repro.net.shard.build_routing_tree`), so the visited node
  sequence and descent comparisons match the unsharded server.
* Shards only execute leaf-level work, in one ``probe`` round: each
  runs the in-process leaf step, :func:`~repro.database.query.probe_leaf`,
  on its share of every leaf; ``flat`` and ``scene`` answer the shard's
  whole index as one probe.  Every answer merges through
  :func:`~repro.database.query.merge_probes`, as ``search_hierarchical``
  does: per leaf it keeps the shards whose bucket is non-empty, or all
  when none is, and ranks by (−score, leaf position, key).  Keys are
  global flat ordinals (scenes: ``[title, scene_id]``) and hash-by-title
  sharding keeps every within-shard order an order-preserving subset of
  the global one, so that is the unsharded visit order.
* A candidate on the wire is an identity and a score — no 266-d row,
  no scene centroid — and so is a merged hit: its ``entry.features`` /
  ``entry.centroid`` is ``None``, the contract
  :class:`~repro.serving.engine.QueryFront` states for every hit that
  crossed a wire.

**QueryStats aggregation** is ``merge_probes``' for every kind: the kept
probes' ``count`` / ``approx`` / ``reranked`` sum into ``comparisons`` /
``approx_comparisons`` / ``reranked`` (plus the descent's comparisons
for ``shot``; a flat or scene probe counts the shard's entries or
scenes); ``event`` = 0.

**Degradation.**  Each shard sits behind a circuit breaker; a shard
that fails or is skipped by an open breaker is reported in
``ServingResult.shards_missing`` with ``degraded=True`` and the answer
covers the reachable shards.  The engine never caches such an answer.
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np

from repro.database.access import User
from repro.database.catalog import RegisteredVideo
from repro.database.events_query import query_event_records
from repro.database.index import ShotEntry
from repro.database.query import (
    LeafProbe,
    QueryStats,
    RankedShot,
    descend_to_leaves,
    merge_probes,
)
from repro.database.scene_search import RankedScene, SceneEntry
from repro.errors import (
    DatabaseError,
    DeadlineExpiredError,
    NoShardAnsweredError,
    RpcTransportError,
    ServingError,
)
from repro.net.protocol import ShardEndpoint, pack_array, unpack_array
from repro.net.shard import ShardSpec, build_routing_tree
from repro.obs.export import render_prometheus_dumps
from repro.obs.trace import Span, active_tracer, span as obs_span
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.health import HealthCheck, HealthReport
from repro.resilience.retry import RetryPolicy
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
from repro.types import EventKind

#: Per-shard circuit breaker: consecutive failures to open, and seconds
#: until a half-open retry.  The reset is deliberately short — a
#: respawned worker should be folded back in quickly.
SHARD_BREAKER_THRESHOLD = 3
SHARD_BREAKER_RESET = 1.0
#: Retry budget for *transient* shard-call failures
#: (:class:`~repro.errors.RpcTransportError`: reset, refused connect,
#: truncated/corrupt frame, draining worker).  Attempts beyond the first
#: back off with the ingest layer's seeded decorrelated jitter, starting
#: at :data:`RPC_BACKOFF` seconds and capped at :data:`RPC_MAX_DELAY`,
#: every sleep bounded by the query's remaining deadline; only an
#: exhausted budget charges the shard's circuit breaker.
RPC_RETRIES = 2
RPC_BACKOFF = 0.02
RPC_MAX_DELAY = 0.25


def _per_leaf(responses: dict[int, dict]) -> list[tuple[LeafProbe, ...]]:
    """The shards' ``leaves`` answers regrouped per leaf position."""
    per_shard = [
        [LeafProbe(**probe) for probe in response["leaves"]]
        for response in responses.values()
    ]
    return list(zip(*per_shard))


def _merged_shots(responses: dict[int, dict], k: int, stats: QueryStats) -> tuple:
    """The ``k`` best shot hits of the shards' probes (``stats`` summed)."""
    return tuple(
        RankedShot(ShotEntry(*probe.items[index], features=None), probe.scores[index])
        for _position, probe, index in merge_probes(_per_leaf(responses), k, stats)
    )


class _Phase:
    """One coordinator query phase: a trace span + explain timing.

    Context manager; with tracing disabled and no explain sink it costs
    two clock reads and a no-op span handle.
    """

    __slots__ = ("_name", "_sink", "_span", "_start")

    def __init__(self, name: str, sink: ExplainSink | None) -> None:
        self._name = name
        self._sink = sink
        self._span = obs_span(f"coord.{name}")

    def __enter__(self) -> "_Phase":
        self._start = time.perf_counter()
        self._span.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self._span.__exit__(*exc)
        if self._sink is not None:
            elapsed = time.perf_counter() - self._start
            self._sink.phases[self._name] = (
                self._sink.phases.get(self._name, 0.0) + elapsed
            )


class ShardedQueryService:
    """Scatter-gather query front over a set of shard endpoints.

    Also the :class:`~repro.serving.engine.QueryBackend` its own engine
    runs: ``generation`` / ``degraded`` / :meth:`permitted_leaves` /
    :meth:`run` / :meth:`explain_fragment` are that seam.

    The service does not own the worker processes — pass a
    :class:`~repro.net.cluster.ShardCluster`'s ``endpoints`` (or any
    other list of live :class:`~repro.net.protocol.ShardEndpoint`\\ s)
    and manage their lifecycle outside.
    """

    name = "sharded"
    span = "net.query"

    def __init__(
        self,
        spec: ShardSpec,
        endpoints: list[ShardEndpoint],
        config: ServerConfig | None = None,
        metrics: ServingMetrics | None = None,
    ) -> None:
        if len(endpoints) != spec.num_shards:
            raise ServingError(
                f"manifest names {spec.num_shards} shards but "
                f"{len(endpoints)} endpoints were given"
            )
        self.spec = spec
        self.config = config if config is not None else ServerConfig()
        self._endpoints = {ep.shard_id: ep for ep in endpoints}
        self._metrics = metrics if metrics is not None else ServingMetrics()
        self._hierarchy, self._root, self._controller = build_routing_tree(spec)
        self._engine = QueryEngine(lambda: self, self.config, self._metrics)
        self._breakers = {
            ep.shard_id: CircuitBreaker(
                name=f"shard-{ep.shard_id}",
                failure_threshold=SHARD_BREAKER_THRESHOLD,
                reset_timeout=SHARD_BREAKER_RESET,
                registry=self._metrics.registry,
            )
            for ep in endpoints
        }
        self._executor = ThreadPoolExecutor(
            max_workers=max(4, 4 * len(endpoints)),
            thread_name_prefix="scatter",
        )
        self._retry_policy = RetryPolicy(
            retries=RPC_RETRIES,
            backoff=RPC_BACKOFF,
            max_delay=RPC_MAX_DELAY,
        )
        # One seeded stream for the decorrelated jitter: replayable in
        # chaos runs, and never the process-global random state.
        self._retry_rng = random.Random(0x5EED)
        self._rpc_retries_total = self._metrics.registry.counter(
            "net_rpc_retries_total",
            "Transient shard-call failures retried, by op.",
            labelnames=("op",),
        )
        self._shard_failures_total = self._metrics.registry.counter(
            "net_shard_failures_total",
            "Shard calls that failed or were skipped by a breaker.",
        ).labels()  # listed at 0 before the first failure
        self._degraded_responses_total = self._metrics.registry.counter(
            "net_degraded_responses_total",
            "Answers computed with at least one shard missing.",
        ).labels()
        self._shard_up = self._metrics.registry.gauge(
            "net_shard_up",
            "1 when the shard's metrics scrape succeeded.",
            labelnames=("shard",),
        )
        self._generation = 1
        self._records_lock = threading.Lock()
        self._records: dict[str, RegisteredVideo] = {}
        self._records_missing: set[int] = set(self._endpoints)
        # Maintained under ``_records_lock`` where records are merged,
        # so query threads read a flag instead of iterating a dict that
        # another thread's ``_ensure_records`` may be growing.
        self._degraded_videos = False
        self._last_errors: dict[int, str] = {}
        # Prime registration records (event queries, skims, degradation
        # flags).  Per-shard failures are tolerated here — the fetch
        # retries lazily once the shard comes back.
        self._ensure_records(self._deadline())
        self._engine.open()

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Drain the engine, then shut the pools down (endpoints are the caller's)."""
        self._engine.close()
        self._executor.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "ShardedQueryService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- state ---------------------------------------------------------

    @property
    def generation(self) -> int:
        """Coordinator generation (bumped by :meth:`refresh`)."""
        return self._generation

    @property
    def degraded(self) -> bool:
        """Whether any known video's mining fell back somewhere."""
        return self._degraded_videos

    @property
    def fanout(self) -> int:
        """The fleet width queries scatter across."""
        return self.spec.num_shards

    @property
    def metrics(self) -> ServingMetrics:
        """Live serving metrics."""
        return self._metrics

    @property
    def cache(self) -> ResultCache:
        """The result cache."""
        return self._engine.cache

    def records(self) -> dict[str, RegisteredVideo]:
        """Merged registration records of every reachable shard."""
        self._ensure_records(self._deadline())
        with self._records_lock:
            return dict(self._records)

    # -- scatter plumbing ----------------------------------------------

    def _deadline(self) -> float | None:
        """When a maintenance scatter (records, reload, ping) gives up."""
        timeout = self.config.default_timeout
        return None if timeout is None else time.perf_counter() + timeout

    def _shard_call(
        self,
        shard_id: int,
        request: dict,
        deadline: float | None,
        trace_parent: int | None,
        trace_id: str | None,
        sink: ExplainSink | None,
    ) -> dict:
        """One shard RPC on a scatter thread: retry + trace + stitch.

        Transient failures (:class:`~repro.errors.RpcTransportError`)
        retry up to :data:`RPC_RETRIES` times with seeded decorrelated
        jitter, every backoff sleep bounded by the query's remaining
        deadline; each retried attempt records an ``rpc.retry.<op>``
        span and counts into ``net_rpc_retries_total``.  Only an
        exhausted budget propagates to the breaker in ``_scatter``.

        When a trace is active the frame carries ``trace_id`` /
        ``parent_span``, the round-trip records as ``rpc.<op>`` under
        the coordinator phase span, and the worker's returned spans are
        grafted beneath it (remote ids remapped, starts offset by the
        RPC's start — a small skew bounded by the one-way latency).
        """
        tracer = active_tracer()
        op = str(request.get("op"))
        endpoint = self._endpoints[shard_id]
        # Trace kwargs ride only on traced calls, so an untraced scatter
        # exercises the exact historic endpoint.call shape (and
        # duck-typed call wrappers keep working).
        traced = (
            {}
            if trace_id is None
            else {"trace_id": trace_id, "parent_span": trace_parent}
        )
        attempt = 0
        previous_delay = 0.0
        while True:
            started = time.perf_counter()
            try:
                response = endpoint.call(request, deadline, **traced)
                break
            except RpcTransportError as exc:
                elapsed = time.perf_counter() - started
                if sink is not None:
                    sink.record_op(shard_id, op, elapsed, ok=False)
                if tracer.enabled:
                    tracer.add_span_at(
                        f"rpc.retry.{op}",
                        tracer.now() - elapsed,
                        elapsed,
                        parent_id=trace_parent,
                        shard=shard_id,
                        attempt=attempt,
                        error=str(exc),
                    )
                attempt += 1
                if attempt > self._retry_policy.retries:
                    raise
                delay = self._retry_policy.next_delay(
                    attempt, previous_delay, self._retry_rng
                )
                if (
                    deadline is not None
                    and time.perf_counter() + delay >= deadline
                ):
                    raise  # no budget left to retry with
                self._rpc_retries_total.labels(op=op).inc()
                time.sleep(delay)
                previous_delay = delay
            except Exception:
                if sink is not None:
                    sink.record_op(
                        shard_id, op, time.perf_counter() - started, ok=False
                    )
                raise
        elapsed = time.perf_counter() - started
        if sink is not None:
            sink.record_op(shard_id, op, elapsed, ok=True)
        if tracer.enabled:
            start_rel = tracer.now() - elapsed
            attrs: dict = {"shard": shard_id}
            if attempt:
                attrs["retries"] = attempt
            rpc_span = tracer.add_span_at(
                f"rpc.{op}",
                start_rel,
                elapsed,
                parent_id=trace_parent,
                **attrs,
            )
            remote = response.pop("spans", None)
            if remote:
                tracer.attach_remote_spans(
                    [Span.from_json(item) for item in remote],
                    rpc_span.span_id,
                    start_rel,
                )
        return response

    def _scatter(
        self,
        request: dict,
        deadline: float | None,
        shard_ids: "list[int] | None" = None,
        sink: ExplainSink | None = None,
    ) -> tuple[dict[int, dict], set[int]]:
        """Send one op to shards; returns (responses, missing shard ids)."""
        targets = sorted(self._endpoints) if shard_ids is None else shard_ids
        responses: dict[int, dict] = {}
        missing: set[int] = set()
        # Trace context is read on the calling thread (the phase span)
        # and handed to the scatter threads explicitly.
        tracer = active_tracer()
        trace_parent = tracer.current_span_id()
        trace_id = tracer.current_trace_id()
        def _submit(ids: list[int]) -> dict[int, Future]:
            return {
                shard_id: self._executor.submit(
                    self._shard_call,
                    shard_id,
                    dict(request),
                    deadline,
                    trace_parent,
                    trace_id,
                    sink,
                )
                for shard_id in ids
            }

        def _collect(submitted: dict[int, Future]) -> None:
            for shard_id, future in submitted.items():
                breaker = self._breakers[shard_id]
                try:
                    responses[shard_id] = future.result()
                except Exception as exc:
                    breaker.record_failure()
                    missing.add(shard_id)
                    self._last_errors[shard_id] = str(exc)
                    self._shard_failures_total.inc()
                else:
                    breaker.record_success()
                    missing.discard(shard_id)

        skipped: list[int] = []
        attempted: list[int] = []
        for shard_id in targets:
            if self._breakers[shard_id].allow():
                attempted.append(shard_id)
            else:
                missing.add(shard_id)
                skipped.append(shard_id)
        _collect(_submit(attempted))
        if not responses and skipped:
            # Nothing answered and the rest were breaker-blocked (e.g.
            # one shard mid-restart while another's breaker sits open
            # or half-open under concurrent traffic).  Shedding load is
            # pointless when it fails the query outright, so force one
            # last-resort attempt per blocked shard: successes close the
            # breaker, failures land where they would have anyway.
            _collect(_submit(skipped))
        return responses, missing

    def _ensure_records(self, deadline: float | None) -> set[int]:
        """Fetch registration records from shards still missing them.

        Returns the shard ids whose records are (still) missing.  Heals
        automatically: the next event/skim query after a dead worker
        respawns re-fetches just that shard's records.
        """
        with self._records_lock:
            wanted = sorted(self._records_missing)
        if not wanted:
            return set()
        responses, _failed = self._scatter(
            {"op": "records"}, deadline, shard_ids=wanted
        )
        if responses:
            with self._records_lock:
                for shard_id, response in responses.items():
                    for title, payload in response["records"].items():
                        self._records[title] = RegisteredVideo.from_json(
                            title, payload
                        )
                    self._records_missing.discard(shard_id)
                self._degraded_videos = any(
                    record.degraded_stages for record in self._records.values()
                )
        with self._records_lock:
            return set(self._records_missing)

    # -- the public query path -----------------------------------------

    def query(self, request: QueryRequest) -> ServingResult:
        """Answer one request on the calling thread (see the engine)."""
        return self._engine.query(request)

    # -- the engine's backend seam -------------------------------------

    def permitted_leaves(self, user: User) -> frozenset[str]:
        """Leaf concepts ``user`` may enter (the routing tree's rules)."""
        return frozenset(self._controller.permitted_leaves(user))

    def run(
        self,
        request: QueryRequest,
        leaves: frozenset[str] | None,
        deadline: float | None,
        explain: ExplainSink | None,
    ) -> BackendAnswer:
        """Scatter one request to the shards and merge per its kind."""
        try:
            if request.kind == "shot":
                answer = self._shot(request, leaves, deadline, explain)
            elif request.kind == "shot_flat":
                answer = self._flat(request, deadline, explain)
            elif request.kind == "scene":
                answer = self._scene(request, leaves, deadline, explain)
            else:
                answer = self._event(request, deadline, explain)
        except NoShardAnsweredError as exc:
            if deadline is not None and time.perf_counter() >= deadline:
                # Out of budget, not out of shards: typed so the gateway
                # answers 504, as the in-process front does.
                raise DeadlineExpiredError(str(exc)) from exc
            raise
        if answer.shards_missing:
            self._degraded_responses_total.inc()
        return answer

    def explain_fragment(self, sink: ExplainSink, result: ServingResult) -> dict:
        """Per-shard RPC evidence and the fleet's breaker states."""
        return {
            "shards": sink.ops(),
            "breakers": {
                str(sid): self._breakers[sid].state.value
                for sid in sorted(self._breakers)
            },
            "shards_missing": sorted(result.shards_missing),
        }

    def _require_responses(self, responses: dict, missing: set[int]) -> None:
        if responses:
            return
        detail = "; ".join(
            f"shard {sid}: {self._last_errors.get(sid, 'breaker open')}"
            for sid in sorted(missing)
        )
        raise NoShardAnsweredError(f"no shard responded ({detail})")

    # -- kind executors ------------------------------------------------

    def _shot(
        self,
        request: QueryRequest,
        scope_leaves: frozenset[str] | None,
        deadline: float | None,
        explain: ExplainSink | None = None,
    ) -> BackendAnswer:
        stats = QueryStats()
        allowed = set(scope_leaves) if scope_leaves is not None else None
        with _Phase("descend", explain):
            leaves = descend_to_leaves(
                self._root, request.features, stats, allowed
            )
        if not leaves:
            if allowed is not None:
                return BackendAnswer((), stats.comparisons)
            raise DatabaseError("descent reached no populated leaf")
        message = {
            "op": "probe",
            "features": pack_array(request.features),
            "leaves": [leaf.name for leaf in leaves],
            "k": int(request.k),
        }
        if request.nprobe is not None:
            message["nprobe"] = int(request.nprobe)
            if request.rerank_k is not None:
                message["rerank_k"] = int(request.rerank_k)
        with _Phase("probe", explain):
            responses, missing = self._scatter(message, deadline, sink=explain)
        self._require_responses(responses, missing)

        with _Phase("merge", explain):
            hits = _merged_shots(responses, request.k, stats)
        return BackendAnswer(
            hits,
            stats.comparisons,
            stats.approx_comparisons,
            stats.reranked,
            tuple(sorted(missing)),
        )

    def _flat(
        self,
        request: QueryRequest,
        deadline: float | None,
        explain: ExplainSink | None = None,
    ) -> BackendAnswer:
        with _Phase("scatter", explain):
            responses, missing = self._scatter(
                {
                    "op": "flat",
                    "features": pack_array(request.features),
                    "k": int(request.k),
                },
                deadline,
                sink=explain,
            )
        self._require_responses(responses, missing)
        stats = QueryStats()
        hits = _merged_shots(responses, request.k, stats)
        return BackendAnswer(hits, stats.comparisons, shards_missing=tuple(sorted(missing)))

    def _scene(
        self,
        request: QueryRequest,
        scope_leaves: frozenset[str] | None,
        deadline: float | None,
        explain: ExplainSink | None = None,
    ) -> BackendAnswer:
        message = {
            "op": "scene",
            "features": pack_array(request.features),
            "k": int(request.k),
        }
        if request.event is not None:
            message["event"] = request.event.value
        if scope_leaves is not None:
            message["allowed"] = sorted(scope_leaves)
        with _Phase("scatter", explain):
            responses, missing = self._scatter(message, deadline, sink=explain)
        self._require_responses(responses, missing)
        stats = QueryStats()
        winners = merge_probes(_per_leaf(responses), request.k, stats)
        if stats.comparisons == 0 and not missing:
            raise DatabaseError("scene index is empty")
        hits = []
        for _position, probe, index in winners:
            (title, scene_id), (event, shot_count) = probe.keys[index], probe.items[index]
            entry = SceneEntry(title, scene_id, EventKind(event), shot_count, centroid=None)
            hits.append(RankedScene(entry=entry, score=probe.scores[index]))
        return BackendAnswer(
            tuple(hits), stats.comparisons, shards_missing=tuple(sorted(missing))
        )

    def _event(
        self,
        request: QueryRequest,
        deadline: float | None,
        explain: ExplainSink | None = None,
    ) -> BackendAnswer:
        with _Phase("records", explain):
            missing = self._ensure_records(deadline)
        with self._records_lock:
            records = dict(self._records)
        hits = tuple(
            query_event_records(
                records,
                self._controller,
                request.event,
                user=request.user,
                video_title=request.video_title,
            )
        )
        return BackendAnswer(hits, shards_missing=tuple(sorted(missing)))

    # -- maintenance ---------------------------------------------------

    def refresh(self) -> int:
        """Reload every shard's database and bump the generation.

        The sharded analogue of :meth:`QueryServer.refresh
        <repro.serving.server.QueryServer>`: shards reopen their SQL
        catalogs, the coordinator's cache drops the old generation, and
        registration records are re-fetched.
        """
        deadline = self._deadline()
        responses, missing = self._scatter({"op": "reload"}, deadline)
        self._require_responses(responses, missing)
        self._generation += 1
        with self._records_lock:
            self._records = {}
            self._records_missing = set(self._endpoints)
            self._degraded_videos = False
        self._ensure_records(deadline)
        self._engine.advance(self._generation)
        return self._generation

    def sample_features(self, n: int = 16) -> list[np.ndarray]:
        """Corpus feature vectors sampled across shards (loadgen pools)."""
        per_shard = max(1, -(-n // max(1, len(self._endpoints))))
        responses, _missing = self._scatter(
            {"op": "sample", "n": per_shard}, self._deadline()
        )
        pools = [
            [unpack_array(packed) for packed in response["features"]]
            for _, response in sorted(responses.items())
        ]
        merged: list[np.ndarray] = []
        while pools and len(merged) < n:
            for pool in pools:
                if pool:
                    merged.append(pool.pop(0))
            pools = [pool for pool in pools if pool]
        return merged[:n]

    def scrape_metrics(self) -> tuple[dict[int, dict], set[int]]:
        """Scrape every worker's registry via the ``metrics`` wire op.

        Returns ``(dumps_by_shard, missing_shard_ids)``; a dead or
        breaker-open shard is simply missing — the merged view degrades
        instead of failing.
        """
        responses, missing = self._scatter({"op": "metrics"}, self._deadline())
        dumps = {
            shard_id: response.get("metrics", {})
            for shard_id, response in responses.items()
        }
        for shard_id in self._endpoints:
            self._shard_up.labels(shard=shard_id).set(shard_id in dumps)
        return dumps, missing

    def metrics_dumps(self) -> list[tuple[dict[str, str], dict]]:
        """The ``(extra_labels, dump)`` pairs behind merged ``/metrics``.

        The coordinator's own registry comes first (no extra labels; its
        ``net_shard_up`` gauge says which scrapes succeeded), then each
        scraped worker's dump under ``shard="<id>"``.
        """
        dumps, _missing = self.scrape_metrics()
        return [({}, self._metrics.registry.dump())] + [
            ({"shard": str(shard_id)}, dumps[shard_id]) for shard_id in sorted(dumps)
        ]

    def metrics_text(self) -> str:
        """Coordinator registry merged with every worker's scrape.

        A shard whose scrape failed reads ``net_shard_up 0`` instead of
        taking the exposition down.
        """
        return render_prometheus_dumps(self.metrics_dumps())

    def health_report(self) -> HealthReport:
        """Live/ready/degraded verdict over the shard fleet."""
        if not self._engine.is_open:  # the scatter pool went with close()
            stopped = [HealthCheck("front", False, "stopped")]
            return HealthReport(live=False, ready=False, degraded=False, checks=stopped)
        responses, missing = self._scatter({"op": "ping"}, self._deadline())
        checks = []
        for shard_id in sorted(self._endpoints):
            endpoint = self._endpoints[shard_id]
            host, port = endpoint.address
            breaker_state = self._breakers[shard_id].state.value
            ok = shard_id in responses
            if ok:
                generation = responses[shard_id].get("generation")
                detail = (
                    f"{host}:{port} generation {generation}, "
                    f"breaker {breaker_state}"
                )
            else:
                detail = f"breaker {breaker_state}: " + self._last_errors.get(
                    shard_id, "breaker open"
                )
            checks.append(HealthCheck(name=f"shard-{shard_id}", ok=ok, detail=detail))
        with self._records_lock:
            known, degraded_videos = len(self._records), self._degraded_videos
        checks.append(
            HealthCheck(
                name="corpus",
                ok=not degraded_videos,
                detail=f"{known} videos known",
            )
        )
        return HealthReport(
            live=True,
            ready=bool(responses),
            degraded=bool(missing) or degraded_videos,
            checks=checks,
        )
