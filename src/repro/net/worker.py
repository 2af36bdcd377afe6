"""Shard worker: serves one shard's database over local TCP.

A worker owns one opened
:class:`~repro.storage.lazy.SQLVideoDatabase` (plus the shard's
``global_ords.npy`` sidecar) and answers framed JSON requests:

========== =========================================================
op          semantics
========== =========================================================
``ping``    liveness probe
``records`` the shard's registration records (coordinator metadata)
``probe``   one :class:`~repro.database.query.LeafProbe` per requested leaf
``flat``    the local Eq. (24) top-k as one probe, keys global ordinals
``scene``   the local scoped scene-centroid top-k as one probe
``sample``  evenly spaced feature vectors (loadgen pools)
``metrics`` the worker registry's wire dump (cluster-metrics scrape)
``reload``  reopen the shard database; the old one closes once no request holds it
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
**global** identities and kernel-exact scores, and nothing else: no
266-d row or scene centroid crosses the shard wire in an answer, so a
stored probe's ``probe`` / ``scene`` reads no 266-d block (see
``docs/SHARDING.md``).  Arrays cross it only as a *query* vector and as
the ``sample`` op's pool.  A ``probe`` leaf runs the in-process leaf
step, :func:`~repro.database.query.probe_leaf`, on the local rows: the
coordinator applies the global empty-bucket rule to the reported bucket
sizes, so a shot query is one round.

The worker runs threaded (one thread per coordinator connection) and
can be embedded in-process for tests or launched as
``python -m repro.net.worker SHARD_DIR`` — the subprocess prints
``READY <port>`` on stdout once it accepts connections, and drains when
a stdin pipe nothing writes to ends (the cluster that started it died).
"""

from __future__ import annotations

import argparse
import os
import re
import select
import stat
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.database.catalog import close_when_released
from repro.database.index import IndexNode
from repro.database.query import LeafProbe, probe_leaf
from repro.errors import BadRequestError, DatabaseError, ReproError
from repro.resilience.faults import fault_point
from repro.net.protocol import (
    pack_array,
    recv_frame,
    send_frame,
    unpack_array,
)
from repro.net.shard import GLOBAL_ORDS_NAME
from repro.net.tcpserver import ConnectionServer
from repro.obs.registry import MetricsRegistry, get_registry
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.storage.featurestore import map_block
from repro.storage.lazy import SQLVideoDatabase
from repro.types import EventKind


class _ShardState:
    """One opened generation of the shard database (immutable once built)."""

    def __init__(self, shard_dir: Path) -> None:
        self.database = SQLVideoDatabase.open(shard_dir)
        ords_path = shard_dir / GLOBAL_ORDS_NAME
        if ords_path.exists():
            self.global_ords = map_block(ords_path, np.int64)
        else:  # an unsharded dir served as a single "shard"
            self.global_ords = np.arange(self.database.shot_count, dtype=np.int64)
        self.leaves: dict[str, IndexNode] = {}
        if self.database.videos:
            self.leaves = {
                node.name: node for node in self.database.index_root.iter_leaves()
            }


class ShardWorker:
    """Threaded TCP server answering shard RPCs for one shard directory."""

    def __init__(
        self,
        shard_dir: str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        shard_id: int | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._shard_dir = Path(shard_dir)
        if shard_id is None:
            match = re.fullmatch(r"shard-(\d+)", self._shard_dir.name)
            shard_id = int(match.group(1)) if match else 0
        self.shard_id = shard_id
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
        self._state = _ShardState(self._shard_dir)
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

    def _op_records(self, request: dict, tracer=NULL_TRACER) -> dict:
        state = self._state  # pinned: a reload closes what no request holds
        records = {
            title: record.to_json() for title, record in state.database.videos.items()
        }
        return {"ok": True, "generation": self._generation, "records": records}

    def _op_probe(self, request: dict, tracer=NULL_TRACER) -> dict:
        """Each requested leaf's :func:`~repro.database.query.probe_leaf`, in order.

        Keys become global ordinals (order-preserving, so ties keep the
        unsharded visit order) and ``items`` ``[title, shot_id,
        scene_id]``; a leaf this shard does not hold answers an empty probe.
        """
        if "k" not in request:
            raise BadRequestError("probe needs k")
        k = int(request["k"])
        state = self._state
        features = unpack_array(request["features"])
        nprobe, rerank_k = request.get("nprobe"), request.get("rerank_k")
        probes = []
        for name in request.get("leaves", []):
            node = state.leaves.get(name)
            if node is None:
                probes.append(LeafProbe(0, 0)._asdict())
                continue
            with tracer.span("worker.leaf", leaf=name) as leaf_span:
                probe = probe_leaf(node, features, k, nprobe, rerank_k, tracer)
                leaf_span.set(bucket=probe.bucket)
            leaf, rows = node.leaf, np.asarray(probe.keys, dtype=np.intp)
            columns = (leaf.titles[rows], leaf.shot_ids[rows], leaf.scene_ids[rows])
            probe = probe._replace(
                keys=state.global_ords[leaf.ordinals[rows]].tolist(),
                items=list(zip(*(column.tolist() for column in columns))),
            )
            probes.append(probe._asdict())
        return {"ok": True, "generation": self._generation, "leaves": probes}

    def _op_flat(self, request: dict, tracer=NULL_TRACER) -> dict:
        """The local Eq. (24) top-k as one probe under global ordinals."""
        state = self._state
        features = unpack_array(request["features"])
        flat = state.database.flat_index
        with tracer.span("score.exact", rows=len(flat)):
            top, scores = flat.rank(features, int(request.get("k", 10)))
        probe = LeafProbe(
            0,
            len(flat),
            keys=state.global_ords[top].tolist(),
            scores=scores[top].tolist(),
            items=[
                (entry.video_title, entry.shot_id, entry.scene_id)
                for entry in flat.entries_at(top)
            ],
        )
        return {"ok": True, "generation": self._generation, "leaves": [probe._asdict()]}

    def _op_scene(self, request: dict, tracer=NULL_TRACER) -> dict:
        """The local scene-centroid top-k as one probe keyed ``[title, scene_id]``.

        ``allowed`` is the caller's access scope, applied before ranking;
        ``count`` is the local scene count whatever the filters.
        """
        state = self._state
        event = request.get("event")
        allowed = request.get("allowed")
        index = state.database.scene_index
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

    def _op_sample(self, request: dict, tracer=NULL_TRACER) -> dict:
        state = self._state
        sample = state.database.flat_index.sample(max(1, int(request.get("n", 16))))
        return {"ok": True, "features": [pack_array(features) for features in sample]}

    def _op_reload(self, request: dict, tracer=NULL_TRACER) -> dict:
        fresh = _ShardState(self._shard_dir)
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


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro.net.worker``."""
    parser = argparse.ArgumentParser(description="classminer shard worker")
    parser.add_argument("shard_dir", help="shard directory (SQL catalog)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument(
        "--shard-id",
        type=int,
        default=None,
        help="shard id for log prefixes and span attributes "
        "(default: parsed from the directory name)",
    )
    args = parser.parse_args(argv)
    started = time.perf_counter()
    worker = ShardWorker(
        args.shard_dir, host=args.host, port=args.port, shard_id=args.shard_id
    )
    sys.stderr = _PrefixWriter(sys.stderr, f"[shard {worker.shard_id}] ")
    if sys.stdin and stat.S_ISFIFO(os.fstat(0).st_mode) and not select.select([0], [], [], 0)[0]:
        threading.Thread(target=_drain_at_end_of_stdin, args=(worker,), daemon=True).start()
    print(f"READY {worker.port}", flush=True)
    print(
        f"shard worker serving {args.shard_dir} on {args.host}:{worker.port} "
        f"(opened in {time.perf_counter() - started:.2f}s)",
        file=sys.stderr,
        flush=True,
    )
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
