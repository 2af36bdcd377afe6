"""Closed-loop multi-threaded load generator for any query front.

Each client thread issues one query at a time (closed loop: think time
zero, next request only after the previous response), drawn from a
deterministic mixed workload of shot, flat-baseline, scene and event
queries over feature vectors the front itself hands out
(``front.sample_features``) — so the same generator drives the
in-process :class:`~repro.serving.server.QueryServer`, the sharded
:class:`~repro.net.coordinator.ShardedQueryService` and, through
:class:`~repro.net.client.HttpFront`, a running gateway over real
sockets.

Failures are counted by what they mean under saturation:
:class:`~repro.errors.OverloadedError` is admission control working
(``rejected``: back off, carry on), :class:`~repro.errors.DeadlineExpiredError`
is the latency budget failing (``timeouts``), and anything else is the
front actually breaking (``errors``, with its text in ``failures``).

An ``on_result`` callback sees every successful ``(request, result)``
pair; tests use it to assert invariants (no cross-clearance hit, no
stale generation) while the load is live.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.database.access import User
from repro.errors import DeadlineExpiredError, OverloadedError, ServingError
from repro.obs.metrics import format_seconds
from repro.serving.engine import QueryFront, QueryRequest, ServingResult
from repro.types import EventKind

#: Workload mix: (kind, weight).  Flat-scan baseline traffic is kept
#: light — it exists for the side-by-side cost comparison, not volume.
DEFAULT_MIX: tuple[tuple[str, float], ...] = (
    ("shot", 0.6),
    ("shot_flat", 0.1),
    ("scene", 0.2),
    ("event", 0.1),
)
#: Seconds a client waits after an overload rejection or an error.
BACKOFF = 0.002


@dataclass(frozen=True)
class LoadgenConfig:
    """Shape of one load run.

    ``duration`` bounds the run in seconds; ``requests_per_client``
    (when set) stops each client earlier once it has completed that
    many attempts.  ``unique_fraction`` controls cache pressure: 0.0
    replays the same few queries (cache-friendly), 1.0 perturbs every
    query so almost nothing repeats.  ``nprobe``/``rerank_k`` (when
    set) put the pool's ``shot`` queries on the approximate leaf tier.
    """

    clients: int = 4
    duration: float = 2.0
    requests_per_client: int | None = None
    k: int = 5
    timeout: float | None = 2.0
    pool_size: int = 32
    unique_fraction: float = 0.25
    seed: int = 0
    nprobe: int | None = None
    rerank_k: int | None = None


@dataclass
class LoadReport:
    """Aggregated outcome of one load run."""

    clients: int = 0
    elapsed: float = 0.0
    issued: int = 0
    completed: int = 0
    cache_hits: int = 0
    degraded: int = 0
    rejected: int = 0
    timeouts: int = 0
    errors: int = 0
    generations: set[int] = field(default_factory=set)
    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def qps(self) -> float:
        """Completed queries per second of wall time."""
        return self.completed / self.elapsed if self.elapsed else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Cache hits over completed queries."""
        return self.cache_hits / self.completed if self.completed else 0.0

    def percentile(self, q: float) -> float:
        """Client-observed latency percentile in seconds."""
        if not self.latencies:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies), q))

    def render(self, title: str = "load report") -> str:
        """Plain-text summary of the run."""
        return "\n".join(
            [
                title,
                f"  clients {self.clients}, elapsed {self.elapsed:.2f}s",
                f"  completed {self.completed}/{self.issued}"
                f" ({self.qps:.1f} qps sustained)",
                f"  cache hit rate {self.cache_hit_rate * 100:.1f}%,"
                f" {self.degraded} degraded answers",
                f"  rejected {self.rejected} overload, {self.timeouts} deadline,"
                f" {self.errors} errors",
                f"  generations seen {sorted(self.generations)}",
                "  latency (client-side) p50 {p50}  p95 {p95}  p99 {p99}".format(
                    p50=format_seconds(self.percentile(50)),
                    p95=format_seconds(self.percentile(95)),
                    p99=format_seconds(self.percentile(99)),
                ),
            ]
        )


def build_query_pool(
    stored: Sequence[np.ndarray],
    config: LoadgenConfig,
    users: Sequence[User | None] = (None,),
) -> list[QueryRequest]:
    """A deterministic mixed workload over ``stored`` feature vectors.

    Shot/scene queries replay the stored vectors (guaranteed to have
    matches); event queries sweep the event kinds.  Users are assigned
    round-robin, except the flat baseline which always runs anonymously
    (it supports no access filtering).
    """
    if not len(stored):
        raise ServingError("cannot build a workload over an empty corpus")
    rng = np.random.default_rng(config.seed)
    kinds = [kind for kind, _ in DEFAULT_MIX]
    weights = np.asarray([weight for _, weight in DEFAULT_MIX], dtype=np.float64)
    weights = weights / weights.sum()
    event_kinds = list(EventKind)
    requests: list[QueryRequest] = []
    for index in range(config.pool_size):
        kind = kinds[int(rng.choice(len(kinds), p=weights))]
        user = users[index % len(users)]
        if kind == "event":
            requests.append(
                QueryRequest(
                    kind="event",
                    event=event_kinds[index % len(event_kinds)],
                    user=user,
                    timeout=config.timeout,
                )
            )
            continue
        features = stored[int(rng.integers(len(stored)))]
        if rng.random() < config.unique_fraction:
            features = np.clip(
                features + rng.normal(0.0, 1e-4, features.shape), 0.0, None
            )
        requests.append(
            QueryRequest(
                kind=kind,
                features=features,
                k=config.k,
                user=None if kind == "shot_flat" else user,
                timeout=config.timeout,
                nprobe=config.nprobe if kind == "shot" else None,
                rerank_k=config.rerank_k if kind == "shot" else None,
            )
        )
    return requests


def run_load(
    front: QueryFront,
    config: LoadgenConfig | None = None,
    users: Sequence[User | None] = (None,),
    on_result: Callable[[QueryRequest, ServingResult], None] | None = None,
) -> LoadReport:
    """Drive a closed-loop load against a running query front.

    ``on_result`` runs on the client thread for every success; anything
    it raises is captured into ``report.failures`` (the run keeps
    going, the caller asserts the list is empty).
    """
    config = config if config is not None else LoadgenConfig()
    pool = build_query_pool(
        front.sample_features(config.pool_size), config, users=users
    )
    report = LoadReport(clients=config.clients)
    lock = threading.Lock()
    deadline_holder: list[float] = [0.0]
    barrier = threading.Barrier(config.clients + 1)

    def client(client_id: int) -> None:
        rng = np.random.default_rng(config.seed + 1000 + client_id)
        issued = completed = hits = degraded = rejected = timeouts = errors = 0
        latencies: list[float] = []
        generations: set[int] = set()
        failures: list[str] = []
        barrier.wait()
        stop_at = deadline_holder[0]
        while time.perf_counter() < stop_at:
            if (
                config.requests_per_client is not None
                and issued >= config.requests_per_client
            ):
                break
            request = pool[int(rng.integers(len(pool)))]
            issued += 1
            start = time.perf_counter()
            try:
                result = front.query(request)
            except OverloadedError:
                rejected += 1
                time.sleep(BACKOFF)
                continue
            except DeadlineExpiredError:
                timeouts += 1
                continue
            except Exception as exc:  # noqa: BLE001 - surfaced via report
                errors += 1
                text = f"client {client_id}: {type(exc).__name__}: {exc}"
                if text not in failures:  # a dead front fails every attempt alike
                    failures.append(text)
                time.sleep(BACKOFF)
                continue
            latencies.append(time.perf_counter() - start)
            completed += 1
            hits += int(result.cache_hit)
            degraded += int(result.degraded)
            generations.add(result.generation)
            if on_result is not None:
                try:
                    on_result(request, result)
                except Exception as exc:  # noqa: BLE001 - assertion transport
                    failures.append(
                        f"client {client_id} invariant: {type(exc).__name__}: {exc}"
                    )
        with lock:
            report.issued += issued
            report.completed += completed
            report.cache_hits += hits
            report.degraded += degraded
            report.rejected += rejected
            report.timeouts += timeouts
            report.errors += errors
            report.latencies.extend(latencies)
            report.generations.update(generations)
            report.failures.extend(failures)

    threads = [
        threading.Thread(target=client, args=(i,), name=f"loadgen-{i}")
        for i in range(config.clients)
    ]
    for thread in threads:
        thread.start()
    start = time.perf_counter()
    deadline_holder[0] = start + config.duration
    barrier.wait()
    for thread in threads:
        thread.join()
    report.elapsed = time.perf_counter() - start
    return report
