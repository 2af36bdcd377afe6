"""Shard worker: serves one shard's view of the catalog over local TCP.

A worker opens the one published catalog as a
:class:`~repro.storage.lazy.SQLVideoDatabase` and serves the leaves
:func:`~repro.net.shard.pack_leaves` gives its shard, and a contiguous
share of the scene rows (:func:`~repro.net.shard.scene_share`); it
answers framed JSON requests:

========== =========================================================
op          semantics
========== =========================================================
``ping``    liveness probe
``probe``   one :class:`~repro.database.query.LeafProbe` per requested leaf
``flat``    each served leaf's Eq. (24) top-k, keys global ordinals
``scene``   the scoped scene-centroid top-k of the share as one probe
``metrics`` the worker registry's wire dump (cluster-metrics scrape)
``reload``  reopen the catalog; the old one closes once no request holds it
``drain``   finish in-flight requests, refuse new ones, exit cleanly
========== =========================================================

``drain`` is the graceful half of a rolling restart: the worker stops
accepting connections, keeps answering introspection ops (``ping``,
``metrics``) on existing connections, rejects query work
with a typed ``draining`` error response (the coordinator retries it
as transient), waits for in-flight requests to finish, then severs
connections and — in subprocess mode — exits 0.

A request frame carrying ``trace_id`` gets a private per-request
:class:`~repro.obs.trace.Tracer` (epoch = request arrival): the worker
opens ``worker.<op>`` under the frame's ``parent_span``, records
per-leaf spans including ANN prune / exact re-rank splits, and ships
the finished spans back as ``spans`` in the response frame for the
coordinator to stitch.  Dispatch also counts every op into the worker
registry (``net_worker_requests_total`` / ``net_worker_op_seconds``),
which the ``metrics`` op exposes for cluster-wide scraping.

Every query op answers ``leaves``, a list of probes the coordinator
merges with :func:`~repro.database.query.merge_probes`.  A probe carries
global identities (the ordinals in each leaf's id block) and kernel-exact
scores, and nothing else: no
266-d row or scene centroid crosses the shard wire in an answer, so a
stored probe's ``probe`` / ``scene`` reads no 266-d block (see
``docs/SHARDING.md``).  An array crosses it only as a *query* vector.
A ``probe`` leaf runs the in-process leaf
step, :func:`~repro.database.query.probe_leaf`, on the whole leaf; the
coordinator asks a leaf's owner for it, so a shot query is one round to
the owners of the leaves its descent reached.

The worker runs threaded (one thread per coordinator connection) and
can be embedded in-process for tests or launched as
``python -m repro.net.worker CATALOG --shard-id I --num-shards N`` (or on
a ``shard-NNNN`` directory :func:`~repro.net.shard.build_shards` made) —
the subprocess prints
``READY <port>`` on stdout once it accepts connections, and drains when
a stdin pipe nothing writes to ends (the cluster that started it died).
"""

from __future__ import annotations

import argparse
import os
import select
import signal
import stat
import sys
import threading
import time
from functools import partial
from pathlib import Path

import numpy as np

from repro.core.kernels import top_k
from repro.database.catalog import VideoDatabase, close_when_released
from repro.database.hierarchy import ConceptLevel
from repro.database.index import IndexNode, LeafHashIndex, feature_similarity_batch, leaf_node
from repro.database.query import LeafProbe, probe_leaf
from repro.database.scene_search import SceneIndex, SceneTable
from repro.errors import BadRequestError, DatabaseError, ReproError
from repro.resilience.faults import fault_point
from repro.net.protocol import recv_frame, send_frame, unpack_array
from repro.net.shard import pack_leaves, scene_share, worker_view
from repro.net.tcpserver import ConnectionServer
from repro.obs.registry import MetricsRegistry, get_registry
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.storage.lazy import SQLVideoDatabase
from repro.types import EventKind


def _scene_rows(database: VideoDatabase, rows: range) -> SceneTable:
    """The catalog's scene table cut to ``rows`` (views: the share's pages only are read)."""
    return SceneTable(*(column[rows.start : rows.stop] for column in database.scene_index.table))


def _identities(leaf: LeafHashIndex, rows: np.ndarray) -> list:
    """``[title, shot_id, scene_id]`` of each of ``rows``."""
    columns = (leaf.titles[rows], leaf.shot_ids[rows], leaf.scene_ids[rows])
    return list(zip(*(column.tolist() for column in columns)))


class _ShardState:
    """One opened generation of the catalog, seen as one shard (immutable once built)."""

    def __init__(self, catalog_dir: Path, shard_id: int, num_shards: int) -> None:
        self.database = SQLVideoDatabase.open(catalog_dir)
        leaves = self.database.leaves
        owners = pack_leaves([len(leaf) for leaf in leaves.values()], num_shards)
        depth = ConceptLevel.SCENE.depth
        self.leaves: dict[str, IndexNode] = {
            name: leaf_node(name, depth, leaf)
            for (name, leaf), owner in zip(leaves.items(), owners)
            if owner == shard_id
        }
        rows = scene_share(len(self.database.scene_index), shard_id, num_shards)
        self.scenes = SceneIndex(partial(_scene_rows, self.database, rows), count=len(rows))

    def node(self, name: str) -> IndexNode:
        """The index node of any leaf of the catalog, served here or not."""
        leaf = self.database.leaves.get(name)
        if leaf is None:
            raise DatabaseError(f"the catalog has no leaf {name!r}")
        return leaf_node(name, ConceptLevel.SCENE.depth, leaf)


class ShardWorker:
    """Threaded TCP server answering one shard's RPCs over the catalog.

    ``path`` is the catalog directory (serve shard ``shard_id`` of
    ``num_shards``, default 0 of 1) or a ``shard-NNNN`` directory
    :func:`~repro.net.shard.build_shards` made (:func:`~repro.net.shard.worker_view`).
    """

    def __init__(
        self,
        path: str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        shard_id: int | None = None,
        registry: MetricsRegistry | None = None,
        num_shards: int | None = None,
    ) -> None:
        self._catalog_dir, self.shard_id, self.num_shards = worker_view(path, shard_id, num_shards)
        # Subprocess workers report into their process-global registry
        # (so storage/kernel metrics ride along in the scrape); embedded
        # test workers pass a private registry to stay distinguishable.
        self._registry = registry if registry is not None else get_registry()
        self._op_requests = self._registry.counter(
            "net_worker_requests_total",
            "Shard worker RPC requests served, by op.",
            labelnames=("op",),
        )
        self._op_latency = self._registry.histogram(
            "net_worker_op_seconds",
            "Shard worker RPC handler latency, by op.",
            labelnames=("op",),
        )
        self._state = _ShardState(self._catalog_dir, self.shard_id, self.num_shards)
        self._generation = 1
        self._state_lock = threading.Lock()
        self._draining = False
        self._drained = threading.Event()
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._inflight_idle = threading.Condition(self._inflight_lock)
        self._server = ConnectionServer((host, port), self._serve_connection)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``."""
        host, port = self._server.server_address[:2]
        return (str(host), int(port))

    @property
    def port(self) -> int:
        """The bound TCP port."""
        return self.address[1]

    @property
    def generation(self) -> int:
        """Reload counter (1 for a freshly opened shard)."""
        return self._generation

    def start(self) -> "ShardWorker":
        """Serve in a daemon thread (the in-process/test mode)."""
        self._thread = threading.Thread(
            target=self.serve_forever,
            name=f"shard-worker-{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (subprocess mode); a stop is noticed within 50 ms."""
        self._server.serve_forever(poll_interval=0.05)

    def _serve_connection(self, conn) -> None:
        """One coordinator connection: a loop of request frames."""
        while True:
            try:
                request = recv_frame(conn)
            except (ReproError, OSError):
                return  # connection closed or garbage: drop it
            with self._inflight_lock:
                self._inflight += 1
            # In flight until the response is *written*: a drain that
            # severed the connection between dispatch and send would
            # drop a finished answer (or its own ack).
            try:
                try:
                    response = self._dispatch(request)
                except ReproError as exc:
                    response = {"ok": False, "error": str(exc)}
                except Exception as exc:  # never kill the connection
                    response = {
                        "ok": False,
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                try:
                    send_frame(conn, response)
                except (ReproError, OSError):
                    return
            finally:
                with self._inflight_lock:
                    self._inflight -= 1
                    self._inflight_idle.notify_all()

    def stop(self) -> None:
        """Stop accepting connections and close the database."""
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._state.database.close()  # idempotent: a drain may have closed it

    # -- graceful drain ------------------------------------------------

    @property
    def draining(self) -> bool:
        """True once a ``drain`` op was accepted."""
        return self._draining

    def join_drained(self, timeout: float | None = None) -> bool:
        """Wait for a started drain to complete (in-process mode)."""
        return self._drained.wait(timeout)

    def _finish_drain(self, grace: float) -> None:
        """Background half of ``drain``: quiesce, then tear down."""
        self._server.shutdown()  # no new connections
        deadline = time.perf_counter() + grace
        with self._inflight_lock:
            while self._inflight > 0:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break  # grace exhausted: sever what is left
                self._inflight_idle.wait(timeout=min(remaining, 0.1))
        self._server.server_close()
        self._state.database.close()
        self._drained.set()

    # -- dispatch ------------------------------------------------------

    #: Ops still answered on live connections while draining — pure
    #: introspection plus the (idempotent) drain itself.
    _DRAIN_SAFE_OPS = frozenset({"ping", "metrics", "drain"})

    def _dispatch(self, request: dict) -> dict:
        fault_point("net.slow_shard")  # latency faults: a slow worker
        op = request.get("op")
        deadline_ms = request.get("deadline_ms")
        if deadline_ms is not None and float(deadline_ms) <= 0:
            return {"ok": False, "error": "deadline expired on arrival"}
        if self._draining and op not in self._DRAIN_SAFE_OPS:
            # Typed refusal: the coordinator maps it to a transient
            # WorkerDrainingError and retries toward the replacement.
            return {
                "ok": False,
                "draining": True,
                "error": f"worker draining; refusing op {op!r}",
            }
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            return {"ok": False, "error": f"unknown op {op!r}"}
        trace_id = request.get("trace_id")
        # Each traced request gets its own tracer (epoch = arrival) so
        # concurrent handler threads never interleave span trees; the
        # finished spans ship back in the response frame.  The frame's
        # parent_span is kept as an attribute — remote ids must not mix
        # with local ones; the coordinator re-parents on attach.
        tracer: Tracer | NullTracer
        attrs: dict = {}
        if trace_id is not None:
            tracer = Tracer()
            attrs = {"shard": self.shard_id, "trace_id": trace_id}
            if request.get("parent_span") is not None:
                attrs["parent_span"] = request["parent_span"]
        else:
            tracer = NULL_TRACER
        started = time.perf_counter()
        try:
            with tracer.span(f"worker.{op}", **attrs):
                response = handler(request, tracer)
        finally:
            elapsed = time.perf_counter() - started
            self._op_requests.labels(op=str(op)).inc()
            self._op_latency.labels(op=str(op)).record(elapsed)
        if trace_id is not None and response.get("ok"):
            response["spans"] = [span.to_json() for span in tracer.spans()]
        return response

    def _op_ping(self, request: dict, tracer=NULL_TRACER) -> dict:
        return {"ok": True, "generation": self._generation}

    def _op_metrics(self, request: dict, tracer=NULL_TRACER) -> dict:
        return {
            "ok": True,
            "generation": self._generation,
            "shard": self.shard_id,
            "metrics": self._registry.dump(),
        }

    def _op_probe(self, request: dict, tracer=NULL_TRACER) -> dict:
        """Each requested leaf's :func:`~repro.database.query.probe_leaf`, in order.

        Keys become the rows' global ordinals (ascending with the rows, so
        ties keep the in-process visit order) and ``items`` ``[title,
        shot_id, scene_id]``.  Any leaf of the opened catalog is answered:
        across a republish the coordinator may route by the other
        generation's leaf map, and ownership only decides what ``flat``
        and ``scene`` cover.
        """
        if "k" not in request:
            raise BadRequestError("probe needs k")
        k = int(request["k"])
        state = self._state
        features = unpack_array(request["features"])
        nprobe, rerank_k = request.get("nprobe"), request.get("rerank_k")
        probes = []
        for name in request.get("leaves", []):
            node = state.leaves.get(name) or state.node(name)
            with tracer.span("worker.leaf", leaf=name) as leaf_span:
                probe = probe_leaf(node, features, k, nprobe, rerank_k, tracer)
                leaf_span.set(bucket=probe.bucket)
            leaf, rows = node.leaf, np.asarray(probe.keys, dtype=np.intp)
            probe = probe._replace(
                keys=leaf.ordinals[rows].tolist(), items=_identities(leaf, rows)
            )
            probes.append(probe._asdict())
        return {"ok": True, "generation": self._generation, "leaves": probes}

    def _op_flat(self, request: dict, tracer=NULL_TRACER) -> dict:
        """Each served leaf's Eq. (24) top-k as a probe under global ordinals."""
        k = int(request.get("k", 10))
        features = unpack_array(request["features"])
        probes = []
        for node in self._state.leaves.values():
            leaf = node.leaf
            with tracer.span("score.exact", rows=len(leaf)):
                scores = feature_similarity_batch(features, leaf.block)
            best = top_k(scores, k)
            probe = LeafProbe(
                0,
                len(leaf),
                keys=leaf.ordinals[best].tolist(),
                scores=scores[best].tolist(),
                items=_identities(leaf, best),
            )
            probes.append(probe._asdict())
        return {"ok": True, "generation": self._generation, "leaves": probes}

    def _op_scene(self, request: dict, tracer=NULL_TRACER) -> dict:
        """The share's scene-centroid top-k as one probe keyed ``[title, scene_id]``.

        ``allowed`` is the caller's access scope, applied before ranking;
        ``count`` is the share's scene count whatever the filters.
        """
        state = self._state
        event = request.get("event")
        allowed = request.get("allowed")
        index = state.scenes
        try:
            with tracer.span("scene.search", scenes=len(index)):
                hits = index.search(
                    unpack_array(request["features"]),
                    k=int(request.get("k", 5)),
                    event=EventKind(event) if event is not None else None,
                    allowed=frozenset(allowed) if allowed is not None else None,
                )
        except DatabaseError:
            hits = []  # an empty local index is not an error under sharding
        probe = LeafProbe(
            0,
            len(index),
            keys=[(hit.entry.video_title, hit.entry.scene_id) for hit in hits],
            scores=[hit.score for hit in hits],
            items=[(hit.entry.event.value, hit.entry.shot_count) for hit in hits],
        )
        return {"ok": True, "generation": self._generation, "leaves": [probe._asdict()]}

    def _op_reload(self, request: dict, tracer=NULL_TRACER) -> dict:
        fresh = _ShardState(self._catalog_dir, self.shard_id, self.num_shards)
        with self._state_lock:
            previous = self._state
            self._state = fresh
            self._generation += 1
        # A request in flight holds the old state for its whole answer: the
        # old database closes as the last of them lets go (none: right here).
        close_when_released(previous.database, previous)
        return {"ok": True, "generation": self._generation}

    def _op_drain(self, request: dict, tracer=NULL_TRACER) -> dict:
        grace = float(request.get("grace", 10.0))
        already = self._draining
        self._draining = True
        if not already:
            threading.Thread(
                target=self._finish_drain,
                args=(grace,),
                name=f"shard-drain-{self.shard_id}",
                daemon=True,
            ).start()
        return {"ok": True, "draining": True, "generation": self._generation}


class _PrefixWriter:
    """Wraps a text stream, prefixing every line with a shard tag.

    Installed over the worker subprocess's stderr so interleaved
    cluster logs stay attributable (``[shard 2] …``).
    """

    def __init__(self, stream, prefix: str) -> None:
        self._stream = stream
        self._prefix = prefix
        self._midline = False

    def write(self, text: str) -> int:
        out = []
        for chunk in text.splitlines(keepends=True):
            if not self._midline:
                out.append(self._prefix)
            out.append(chunk)
            self._midline = not chunk.endswith("\n")
        self._stream.write("".join(out))
        return len(text)

    def flush(self) -> None:
        """Pass flushes through to the wrapped stream."""
        self._stream.flush()

    def __getattr__(self, name):
        return getattr(self._stream, name)


def _drain_at_end_of_stdin(worker: ShardWorker) -> None:
    """Drain ``worker`` once stdin ends: a pipe nothing writes to, from the
    :class:`~repro.net.cluster.ShardCluster` that started it, ends when that
    parent closes it or dies — even by SIGKILL.  (A worker started by hand
    has a terminal, ``/dev/null`` or a pipe with something to read.)"""
    sys.stdin.buffer.read()
    worker._op_drain({})


def _interrupt(_signum, _frame) -> None:
    raise KeyboardInterrupt


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro.net.worker``."""
    parser = argparse.ArgumentParser(description="classminer shard worker")
    parser.add_argument(
        "shard_dir",
        help="the catalog directory, or a shard-NNNN directory build_shards made beside one",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument(
        "--shard-id",
        type=int,
        default=None,
        help="which shard's leaves to serve (default: parsed from a "
        "shard-NNNN directory's name, else 0)",
    )
    parser.add_argument(
        "--num-shards",
        type=int,
        default=None,
        help="how many shards share the catalog (default: a shard-NNNN "
        "directory's manifest, else 1)",
    )
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        worker = ShardWorker(
            args.shard_dir,
            host=args.host,
            port=args.port,
            shard_id=args.shard_id,
            num_shards=args.num_shards,
        )
    except ReproError as exc:  # no catalog there, or no such shard of it
        parser.error(str(exc))
    sys.stderr = _PrefixWriter(sys.stderr, f"[shard {worker.shard_id}] ")
    if sys.stdin and stat.S_ISFIFO(os.fstat(0).st_mode) and not select.select([0], [], [], 0)[0]:
        threading.Thread(target=_drain_at_end_of_stdin, args=(worker,), daemon=True).start()
    print(f"READY {worker.port}", flush=True)
    print(
        f"shard worker serving shard {worker.shard_id} of {worker.num_shards} over "
        f"{worker._catalog_dir} on {args.host}:{worker.port} "
        f"(opened in {time.perf_counter() - started:.2f}s)",
        file=sys.stderr,
        flush=True,
    )
    # SIGTERM (a cluster's stop) unwinds like Ctrl-C: the catalog is closed,
    # so the last reader leaves no SQLite ``-wal`` / ``-shm`` file behind.
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        worker.serve_forever()
    except KeyboardInterrupt:
        pass
    # serve_forever returns when a drain (the op, or the end of stdin)
    # shut the server down; let it finish quiescing, then exit cleanly.
    if worker.draining:
        worker.join_drained(timeout=15.0)
    worker._state.database.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
