"""Scatter-gather coordinator over shard workers.

:class:`ShardedQueryService` is a :class:`~repro.serving.server.QueryServer`
whose leaf work runs on shard workers.  It opens the published catalog
behind a :class:`~repro.serving.snapshot.SnapshotManager` as the
in-process front does, so the generation a query pins, the scope, the
cache, event queries, the records, ``degraded``, a failed rebuild
(stale but serving) and the health checks are the in-process code's.
Its per-query backend, a :class:`~repro.serving.server.SnapshotBackend`,
sends only the leaf work to N worker processes, each serving a view of
the same catalog.

**Exactness.**  With all shards healthy, results are bit-identical to
the single-process path (ids, scores, tie-break order):

* The coordinator runs the Eq. (25) beam descent itself over the pinned
  snapshot's ``index_root``, so the visited node sequence and descent
  comparisons match the unsharded server.
* Shards only execute leaf-level work.  A shot query is one ``probe``
  round to the owners of the leaves the descent reached
  (:func:`~repro.net.shard.pack_leaves` over the snapshot's ``leaves``),
  each running the in-process leaf step,
  :func:`~repro.database.query.probe_leaf`, on its whole leaves;
  ``flat`` answers each served leaf and ``scene`` a shard's contiguous
  share of the scene rows, from every shard.  Every answer merges
  through :func:`~repro.database.query.merge_probes`, as
  ``search_hierarchical`` does, ranked by (−score, leaf position, key).
  Keys are the catalog's flat ordinals (scenes: ``[title, scene_id]``,
  the scene table's row order), ascending with the rows of a leaf, so
  that is the unsharded visit order.
* A candidate on the wire is an identity and a score — no 266-d row,
  no scene centroid — and so is a merged hit: its ``entry.features`` /
  ``entry.centroid`` is ``None``, the contract
  :class:`~repro.serving.engine.QueryFront` states for every hit that
  crossed a wire.  The coordinator maps no feature block to answer a
  query (``sample_features``, the in-process sampler, reads rows) and
  trains no ANN tier.

**QueryStats aggregation** is ``merge_probes``' for every kind: the kept
probes' ``count`` / ``approx`` / ``reranked`` sum into ``comparisons`` /
``approx_comparisons`` / ``reranked`` (plus the descent's comparisons
for ``shot``; a flat probe counts a leaf's rows, a scene probe a
share's scenes); ``event`` = 0.

**Degradation.**  Each shard sits behind a circuit breaker; a shard an
answer needed that fails or is skipped by an open breaker is reported in
``ServingResult.shards_missing`` with ``degraded=True`` and the answer
covers the reachable shards — for a shot, the owners that answered, so
one whose owners are all lost is answered empty while any other shard
still answers a ``ping``.  A query no shard answers raises
:class:`~repro.errors.NoShardAnsweredError`.
The front never caches a degraded answer.  Event queries and skims read
the snapshot's records and need no shard.
"""

from __future__ import annotations

import random
import time
from collections.abc import Mapping
from concurrent.futures import Future, ThreadPoolExecutor

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
from repro.net.protocol import ShardEndpoint, pack_array
from repro.net.shard import ShardSpec, pack_leaves
from repro.obs.export import render_prometheus_dumps
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Span, active_tracer, span as obs_span
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.health import HealthCheck, HealthReport, server_health
from repro.resilience.retry import RetryPolicy
from repro.serving.engine import (
    BackendAnswer,
    ExplainSink,
    QueryRequest,
    ServerConfig,
    ServingResult,
)
from repro.serving.server import QueryServer, SnapshotBackend
from repro.serving.snapshot import Snapshot, SnapshotManager
from repro.storage.lazy import SQLVideoDatabase
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


def _pooled(responses: dict[int, dict]) -> list[list[LeafProbe]]:
    """Every probe the shards answered, as the sources of one position
    (``flat``'s leaves and ``scene``'s shares rank by key alone)."""
    return [[LeafProbe(**probe) for response in responses.values() for probe in response["leaves"]]]


def _ranked_shots(answers: list[list[LeafProbe]], k: int, stats: QueryStats) -> tuple:
    """The ``k`` best shot hits of the probes (``stats`` summed)."""
    return tuple(
        RankedShot(ShotEntry(*probe.items[index], features=None), probe.scores[index])
        for _position, probe, index in merge_probes(answers, k, stats)
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


class _ShardedBackend(SnapshotBackend):
    """One query's pinned snapshot, its leaf work sent to the shards.

    The descent runs here, on the snapshot's ``index_root``; ``probe``,
    ``flat`` and ``scene`` run on the workers.  Event queries, the scope
    and ``degraded`` are the in-process backend's.
    """

    __slots__ = ("_front",)

    name = "sharded"
    span = "net.query"

    def __init__(self, front: "ShardedQueryService") -> None:
        super().__init__(front.manager)
        self._front = front

    def run(
        self,
        request: QueryRequest,
        leaves: frozenset[str] | None,
        deadline: float | None,
        explain: ExplainSink | None,
    ) -> BackendAnswer:
        """Scatter one request to the shards and merge per its kind."""
        if request.kind == "event":
            return super().run(request, leaves, deadline, explain)
        try:
            if request.kind == "shot":
                answer = self._shot(request, leaves, deadline, explain)
            elif request.kind == "shot_flat":
                answer = self._flat(request, deadline, explain)
            else:
                answer = self._scene(request, leaves, deadline, explain)
        except NoShardAnsweredError as exc:
            if deadline is not None and time.perf_counter() >= deadline:
                # Out of budget, not out of shards: typed so the gateway
                # answers 504, as the in-process front does.
                raise DeadlineExpiredError(str(exc)) from exc
            raise
        if answer.shards_missing:
            self._front._degraded_responses_total.inc()
        return answer

    def explain_fragment(self, sink: ExplainSink, result: ServingResult) -> dict:
        """Per-shard RPC evidence and the fleet's breaker states."""
        breakers = self._front._breakers
        return {
            "shards": sink.ops(),
            "breakers": {str(sid): breakers[sid].state.value for sid in sorted(breakers)},
            "shards_missing": sorted(result.shards_missing),
        }

    # -- kind executors ------------------------------------------------

    def _shot(
        self,
        request: QueryRequest,
        scope_leaves: frozenset[str] | None,
        deadline: float | None,
        explain: ExplainSink | None,
    ) -> BackendAnswer:
        stats = QueryStats()
        allowed = set(scope_leaves) if scope_leaves is not None else None
        front, snapshot = self._front, self._snapshot
        with _Phase("descend", explain):
            leaves = descend_to_leaves(
                snapshot.index_root, request.features, stats, allowed
            )
        if not leaves:
            if allowed is not None:
                return BackendAnswer((), stats.comparisons)
            raise DatabaseError("descent reached no populated leaf")
        owners = front._owners(snapshot)
        owned: dict[int, list[str]] = {}
        for leaf in leaves:
            owned.setdefault(owners[leaf.name], []).append(leaf.name)
        message = {
            "op": "probe",
            "features": pack_array(request.features),
            "k": int(request.k),
        }
        if request.nprobe is not None:
            message["nprobe"] = int(request.nprobe)
            if request.rerank_k is not None:
                message["rerank_k"] = int(request.rerank_k)
        with _Phase("probe", explain):
            responses, missing = front._scatter(message, deadline, explain, owned)
        if not responses:
            # Every owner asked is lost.  While another shard answers (a
            # rolling restart) the answer is empty and degraded; a fleet
            # that is down altogether is the typed error.
            front._require_responses(*front._scatter({"op": "ping"}, deadline))
        with _Phase("merge", explain):
            # One source per leaf, its owner's.  A missing owner's leaves
            # rank nothing: the answer covers the owners that answered.
            position = {leaf.name: index for index, leaf in enumerate(leaves)}
            answers: list[list[LeafProbe]] = [[] for _ in leaves]
            for shard_id, response in responses.items():
                for name, probe in zip(owned[shard_id], response["leaves"]):
                    answers[position[name]].append(LeafProbe(**probe))
            hits = _ranked_shots(answers, request.k, stats)
        return BackendAnswer(
            hits,
            stats.comparisons,
            stats.approx_comparisons,
            stats.reranked,
            tuple(sorted(missing)),
        )

    def _flat(
        self, request: QueryRequest, deadline: float | None, explain: ExplainSink | None
    ) -> BackendAnswer:
        message = {"op": "flat", "features": pack_array(request.features), "k": int(request.k)}
        with _Phase("scatter", explain):
            responses, missing = self._front._scatter(message, deadline, explain)
        self._front._require_responses(responses, missing)
        stats = QueryStats()
        hits = _ranked_shots(_pooled(responses), request.k, stats)
        return BackendAnswer(hits, stats.comparisons, shards_missing=tuple(sorted(missing)))

    def _scene(
        self,
        request: QueryRequest,
        scope_leaves: frozenset[str] | None,
        deadline: float | None,
        explain: ExplainSink | None,
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
            responses, missing = self._front._scatter(message, deadline, explain)
        self._front._require_responses(responses, missing)
        stats = QueryStats()
        winners = merge_probes(_pooled(responses), request.k, stats)
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


class ShardedQueryService(QueryServer):
    """A :class:`~repro.serving.server.QueryServer` whose leaf work runs
    on shard workers.

    Built open: the constructor builds generation 1 and admits queries;
    :meth:`close` stops it and releases the scatter pool and the catalog
    (leaving a ``with`` block only stops it, as for any ``QueryServer``).
    The service does not own the worker processes — pass a
    :class:`~repro.net.cluster.ShardCluster`'s ``endpoints`` (or any
    other list of live :class:`~repro.net.protocol.ShardEndpoint`\\ s)
    and manage their lifecycle outside.
    """

    def __init__(
        self,
        spec: ShardSpec,
        endpoints: list[ShardEndpoint],
        config: ServerConfig | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if len(endpoints) != spec.num_shards:
            raise ServingError(
                f"manifest names {spec.num_shards} shards but "
                f"{len(endpoints)} endpoints were given"
            )
        self.spec = spec
        self._endpoints = {ep.shard_id: ep for ep in endpoints}

        def open_catalog() -> SQLVideoDatabase:
            return SQLVideoDatabase.open(spec.catalog)

        super().__init__(
            config=config,
            manager=SnapshotManager(open_catalog(), reopen=open_catalog),
            registry=registry,
        )
        self._owner_map: tuple[int, dict[str, int]] = (0, {})
        registry = self.registry
        self._breakers = {
            ep.shard_id: CircuitBreaker(
                name=f"shard-{ep.shard_id}",
                failure_threshold=SHARD_BREAKER_THRESHOLD,
                reset_timeout=SHARD_BREAKER_RESET,
                registry=registry,
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
        self._rpc_retries_total = registry.counter(
            "net_rpc_retries_total",
            "Transient shard-call failures retried, by op.",
            labelnames=("op",),
        )
        self._shard_failures_total = registry.counter(
            "net_shard_failures_total",
            "Shard calls that failed or were skipped by a breaker.",
        ).labels()  # listed at 0 before the first failure
        self._degraded_responses_total = registry.counter(
            "net_degraded_responses_total",
            "Answers computed with at least one shard missing.",
        ).labels()
        self._shard_up = registry.gauge(
            "net_shard_up",
            "1 when the shard's metrics scrape succeeded.",
            labelnames=("shard",),
        )
        self._last_errors: dict[int, str] = {}
        try:
            self.start()
        except BaseException:
            self.close()
            raise

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Drain the queries in flight, then shut the pools and the catalog
        down (endpoints are the caller's)."""
        self.stop()
        self._executor.shutdown(wait=False, cancel_futures=True)
        self.manager.database.close()

    def refresh(self) -> Snapshot:
        """Reopen the catalog on every shard, then here; returns the new
        snapshot.

        Here is :meth:`QueryServer.refresh
        <repro.serving.server.QueryServer.refresh>`: a failed rebuild
        raises and leaves the last good generation answering, flagged
        ``degraded``.
        """
        responses, missing = self._scatter({"op": "reload"}, self._deadline())
        self._require_responses(responses, missing)
        return super().refresh()

    def _pin(self) -> _ShardedBackend:
        return _ShardedBackend(self)

    def _warm(self, snapshot: Snapshot) -> None:
        """Nothing to build: the leaves' ANN tiers are the workers'."""

    def _owners(self, snapshot: Snapshot) -> dict[str, int]:
        """Each leaf's owning shard in ``snapshot``, packed once a generation."""
        generation, owners = self._owner_map
        if generation != snapshot.generation:
            counts = [len(leaf) for leaf in snapshot.leaves.values()]
            owners = dict(zip(snapshot.leaves, pack_leaves(counts, self.spec.num_shards)))
            self._owner_map = (snapshot.generation, owners)
        return owners

    @property
    def fanout(self) -> int:
        """The fleet width: every shard for ``shot_flat`` and ``scene``;
        a shot asks only its descended leaves' owners."""
        return self.spec.num_shards

    # -- scatter plumbing ----------------------------------------------

    def _deadline(self) -> float | None:
        """When a maintenance scatter (reload, ping, metrics) gives up."""
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
        sink: ExplainSink | None = None,
        leaves: Mapping[int, list[str]] | None = None,
    ) -> tuple[dict[int, dict], set[int]]:
        """Send one op to every shard, or to the keys of ``leaves`` with
        their own ``leaves`` list each; returns (responses, missing shard ids)."""
        targets = sorted(self._endpoints) if leaves is None else sorted(leaves)
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
                    dict(request) if leaves is None else {**request, "leaves": leaves[shard_id]},
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

    def _require_responses(self, responses: dict, missing: set[int]) -> None:
        if responses:
            return
        detail = "; ".join(
            f"shard {sid}: {self._last_errors.get(sid, 'breaker open')}"
            for sid in sorted(missing)
        )
        raise NoShardAnsweredError(f"no shard responded ({detail})")

    # -- fleet views ---------------------------------------------------

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
        return [({}, self.registry.dump())] + [
            ({"shard": str(shard_id)}, dumps[shard_id]) for shard_id in sorted(dumps)
        ]

    def metrics_text(self) -> str:
        """Coordinator registry merged with every worker's scrape.

        A shard whose scrape failed reads ``net_shard_up 0`` instead of
        taking the exposition down.
        """
        return render_prometheus_dumps(self.metrics_dumps())

    def health_report(self) -> HealthReport:
        """The in-process checks plus one ``shard-N`` check per worker.

        Ready also needs one shard to answer a ping, and a missing shard
        degrades; a stopped front reports without a ping.
        """
        report = server_health(self)
        if not report.live:  # the scatter pool went with close()
            return report
        responses, missing = self._scatter({"op": "ping"}, self._deadline())
        for shard_id in sorted(self._endpoints):
            host, port = self._endpoints[shard_id].address
            breaker_state = self._breakers[shard_id].state.value
            ok = shard_id in responses
            if ok:
                generation = responses[shard_id].get("generation")
                detail = f"{host}:{port} generation {generation}, breaker {breaker_state}"
            else:
                detail = f"breaker {breaker_state}: " + self._last_errors.get(
                    shard_id, "breaker open"
                )
            report.checks.append(HealthCheck(f"shard-{shard_id}", ok, detail))
        report.ready = report.ready and bool(responses)
        report.degraded = report.degraded or bool(missing)
        return report
