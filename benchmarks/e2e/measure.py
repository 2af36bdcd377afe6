"""The measuring process: start the server under test, drive it, record.

``python -m benchmarks.e2e child <plan_dir>`` runs in a fresh
interpreter and its own process group.  It holds the in-process server
or spawns the HTTP one (``python -m repro.cli serve ...`` with shipped
defaults), runs the load generator, and writes ``result.json``: raw
numbers plus the answers to the seeded check ops.  It does not know
the right answers — the set-up process verifies them afterwards.
"""

from __future__ import annotations

import http.client
import json
import os
import resource
import threading
import time
from pathlib import Path

import numpy as np

from benchmarks.e2e import inputs, layers, loadgen, procs, spec, stats, verify
from benchmarks.e2e.trace import SpanRecorder

_EVENT = spec.KINDS.index("event")
#: The approximate tier as ``ann_probe`` configures it (the shipped defaults of docs/ANN.md).
_ANN = {"nprobe": 8, "rerank_k": 32}
_HEADERS = {"Content-Type": "application/json"}


def build_requests(ops: dict, titles: list[str]) -> list:
    """Every op as the ``QueryRequest`` an in-process backend takes."""
    from repro.serving import QueryRequest
    from repro.types import EventKind

    requests = []
    for i, code in enumerate(ops["kinds"]):
        if code == _EVENT:
            event, title = inputs.event_pair(int(ops["event_args"][i]), titles)
            requests.append(QueryRequest(kind="event", event=EventKind(event), video_title=title))
        else:
            requests.append(QueryRequest(kind=spec.KINDS[code], features=ops["probes"][i], k=spec.K))
    return requests


class CallClient:
    """A client of anything with ``query(QueryRequest) -> ServingResult``."""

    def __init__(self, query, requests: list, kinds) -> None:
        self._query, self._requests, self._kinds = query, requests, kinds

    def issue(self, op: int):
        result = self._query(self._requests[op])
        ok = not result.degraded and bool(self._kinds[op] == _EVENT or len(result.hits) > 0)
        return ok, result

    def facts(self, result) -> tuple[bool, int]:
        return result.cache_hit, result.generation

    def detail(self, op: int, result) -> dict:
        return {
            "op": op,
            "generation": result.generation,
            "rows": verify.hit_rows(spec.KINDS[self._kinds[op]], result.hits),
            "comparisons": result.comparisons,
            "approx": result.approx_comparisons,
            "reranked": result.reranked,
            "cache_hit": result.cache_hit,
        }

    def reset(self) -> None:
        pass


class HttpClient:
    """One keep-alive connection posting pre-serialised bodies to ``/query``."""

    def __init__(self, host: str, port: int, bodies: list[bytes], kinds) -> None:
        self._address, self._bodies, self._kinds = (host, port), bodies, kinds
        self._conn = http.client.HTTPConnection(host, port, timeout=10)

    def issue(self, op: int):
        self._conn.request("POST", "/query", self._bodies[op], _HEADERS)
        response = self._conn.getresponse()
        data = response.read()
        if response.status != 200:
            return False, None
        payload = json.loads(data)
        ok = not payload["degraded"] and bool(self._kinds[op] == _EVENT or len(payload["hits"]) > 0)
        return ok, payload

    def facts(self, payload) -> tuple[bool, int]:
        return payload["cache_hit"], payload["generation"]

    def detail(self, op: int, payload) -> dict:
        return {
            "op": op,
            "generation": payload["generation"],
            "rows": verify.hit_rows_json(spec.KINDS[self._kinds[op]], payload["hits"]),
            "comparisons": payload["comparisons"],
            "approx": payload["approx_comparisons"],
            "reranked": payload["reranked"],
            "cache_hit": payload["cache_hit"],
        }

    def reset(self) -> None:
        self._conn.close()
        self._conn = http.client.HTTPConnection(*self._address, timeout=10)

    def close(self) -> None:
        self._conn.close()


class SnapshotClient:
    """The boundary below the server: ``Snapshot`` search calls, no cache, no pool."""

    def __init__(self, snapshot, requests: list, ann: bool) -> None:
        self._snapshot, self._requests = snapshot, requests
        self._knobs = _ANN if ann else {}
        self.comparisons: dict[int, int] = {}

    def issue(self, op: int):
        request = self._requests[op]
        if request.kind == "shot":
            result = self._snapshot.search(request.features, k=request.k, **self._knobs)
            self.comparisons[op] = result.stats.comparisons
        elif request.kind == "shot_flat":
            result = self._snapshot.search_flat(request.features, k=request.k)
            self.comparisons[op] = result.stats.comparisons
        elif request.kind == "scene":
            result = self._snapshot.search_scenes(request.features, k=request.k)
            self.comparisons[op] = len(self._snapshot.scenes)
        else:
            result = self._snapshot.query_events(request.event, video_title=request.video_title)
            self.comparisons[op] = 0
        return True, result


class KernelClient:
    """The innermost boundary, modelled: score as many rows as the search compared."""

    def __init__(self, requests: list, comparisons: dict[int, int], rng) -> None:
        self._requests, self._comparisons = requests, comparisons
        self._block = rng.random((max(comparisons.values(), default=0) + 1, 266))

    def issue(self, op: int):
        from repro.database.index import feature_similarity_batch

        rows = self._comparisons[op]
        if rows:
            feature_similarity_batch(self._requests[op].features, self._block[:rows])
        return True, None


class DescentClient:
    """Index descent alone (``descend_to_leaves``): what is left of a search without its leaf scans."""

    def __init__(self, snapshot, requests: list) -> None:
        self._root, self._requests = snapshot.index_root, requests

    def issue(self, op: int):
        from repro.database.query import QueryStats, descend_to_leaves

        if self._requests[op].kind == "shot":
            descend_to_leaves(self._root, self._requests[op].features, QueryStats())
        return True, None


# ---------------------------------------------------------------------------
# Servers under test.
# ---------------------------------------------------------------------------


class InprocTarget:
    """``QueryServer`` inside this process, over the backend the workload names."""

    def __init__(self, workload: spec.Workload, plan: dict, ops: dict) -> None:
        self._workload, self._plan = workload, plan
        self._database = None
        self.server = None
        #: The catalog directory being served; ``sql_refresh``'s writer moves it on with each publish.
        self.db_dir = plan.get("db_dir")
        self.requests = build_requests(ops, _titles(plan))
        self._kinds = ops["kinds"]

    def load_inputs(self) -> None:
        """Untimed: an in-RAM backend is handed its corpus as an object, index not yet built.

        What this process holds before that moment — interpreter, the
        generator's requests, ``sql_refresh``'s writer — is the benchmark's,
        not the server's: ``peak_rss_mb`` counts the growth from here.
        """
        self._baseline_mb = procs.reset_peak_rss_mb()
        if self._workload.backend in ("ram", "ann"):
            self._database = inputs.build_corpus(self._workload.videos, self._plan["corpus_seed"])

    def start(self) -> None:
        from repro.serving import QueryServer, ServerConfig, SnapshotManager
        from repro.storage import SQLVideoDatabase

        backend = self._workload.backend
        if backend == "ram":
            self.server = QueryServer(database=self._database)
        elif backend == "ann":
            config = ServerConfig(ann_nprobe=_ANN["nprobe"], ann_rerank_k=_ANN["rerank_k"])
            self.server = QueryServer(database=self._database, config=config)
        elif backend == "sql":
            self.server = QueryServer(database=SQLVideoDatabase.open(self.db_dir))
        else:  # sql_refresh: every refresh opens the catalog the writer has just published
            manager = SnapshotManager(
                SQLVideoDatabase.open(self.db_dir), reopen=lambda: SQLVideoDatabase.open(self.db_dir)
            )
            self.server = QueryServer(manager=manager)
        self.server.start()

    def client(self):
        return CallClient(self.server.query, self.requests, self._kinds)

    def peak_rss_mb(self) -> float:
        return procs.peak_rss_mb([os.getpid()]) - self._baseline_mb

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()
            database = self.server.manager.database
            self.server = None
            if hasattr(database, "close"):
                database.close()


class HttpTarget:
    """``python -m repro.cli serve`` in a child process, shipped defaults, ephemeral port."""

    def __init__(self, workload: spec.Workload, plan: dict, ops: dict) -> None:
        self._workload, self._plan = workload, plan
        self._kinds = ops["kinds"]
        self._proc = None
        self._clients: list[HttpClient] = []
        with open(Path(plan["dir"]) / "bodies.jsonl", "rb") as handle:
            self.bodies = [line.rstrip(b"\n") for line in handle]
        self.host, self.port = "127.0.0.1", 0

    def load_inputs(self) -> None:
        pass  # everything it needs is on disk already

    def start(self) -> None:
        args = ["-m", "repro.cli", "serve", "--db-dir", self._plan["db_dir"], "--http", "0"]
        if self._workload.backend == "http_sharded":
            args += ["--shards", "2", "--shards-dir", self._plan["shards_dir"]]
        self._proc = procs.spawn(args, Path(self._plan["dir"]) / "server.log")
        url = procs.await_line(self._proc, "serving on ").split()[0]
        self.host, port = url.removeprefix("http://").split(":")
        self.port = int(port)

    def client(self):
        client = HttpClient(self.host, self.port, self.bodies, self._kinds)
        self._clients.append(client)
        return client

    def peak_rss_mb(self) -> float:
        """The server and its shard workers, summed."""
        return procs.peak_rss_mb(procs.descendants(self._proc.pid))

    def stop(self) -> None:
        for client in self._clients:
            client.close()
        self._clients = []
        if self._proc is not None:
            procs.stop(self._proc)
            self._proc = None


# ---------------------------------------------------------------------------
# The run.
# ---------------------------------------------------------------------------


def _segment(plan: dict, name: str) -> range:
    start, stop = plan["segments"][name]
    return range(start, stop)


def _streams(workload: spec.Workload, plan: dict, ops: dict) -> list[loadgen.Stream]:
    if workload.probes == "hot":
        base = plan["segments"]["hot"][0]
        return [loadgen.Stream(base + ops[f"zipf{c}"]) for c in range(workload.clients)]
    return [loadgen.Stream(_segment(plan, f"client{c}")) for c in range(workload.clients)]


def _check(client, ops_range, answers: list) -> int:
    """Issue the check ops one by one and keep what came back; returns how many failed outright."""
    failed = 0
    for op in ops_range:
        try:
            ok, raw = client.issue(op)
        except Exception as exc:
            print(f"check op {op}: {type(exc).__name__}: {exc}", flush=True)  # lands in child.log
            client.reset()
            ok, raw = False, None
        if ok:
            answers.append(client.detail(op, raw))
        else:
            failed += 1
    return failed


class Writer:
    """``sql_refresh``'s writer: grows the corpus and publishes a generation on a fixed period."""

    def __init__(self, plan: dict, workload: spec.Workload) -> None:
        from repro.types import EventKind

        self._plan = plan
        self._batches = np.load(Path(plan["dir"]) / "grow.npy")
        self._database = inputs.build_corpus(workload.videos, plan["corpus_seed"])
        self._videos = workload.videos
        self._kinds = EventKind.known_kinds() + (EventKind.UNKNOWN,)
        self.publishes: list[dict] = []

    def _grow(self, batch: np.ndarray) -> None:
        # Mirrors build_synthetic_database's registration (3 scenes x 4 shots,
        # event by (video + scene) % 4); the oracle check proves the mirror exact.
        for features in batch:
            v = self._videos
            scenes = [
                (s, self._kinds[(v + s) % len(self._kinds)], list(features[4 * s : 4 * s + 4]))
                for s in range(3)
            ]
            self._database.register_entries(f"synthetic_{v:05d}", scenes)
            self._videos += 1

    def run(self, target, start: float, period: float, count: int) -> None:
        """Publish ``count`` generations into ``target`` (an ``InprocTarget``), one per ``period``.

        Each generation is saved into a directory of its own.  Saving
        over the catalog a reader is lazily loading from mixes two
        generations under it (``ServingError: index 1320 is out of bounds
        for axis 0 with size 1320``, 2 runs in some 70) — a finding for a
        later issue, and the driver wants workloads on which nothing fails.
        """
        from repro.storage import save_database

        for g in range(count):
            self._grow(self._batches[g])
            wait = start + g * period - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            began = time.perf_counter()
            published = f"{self._plan['db_dir']}-g{g + 2}"
            save_database(self._database, published)
            saved = time.perf_counter()
            target.db_dir = published
            snapshot = target.server.refresh()
            self.publishes.append(
                {
                    "began": began,
                    "save_s": saved - began,
                    "refresh_s": time.perf_counter() - saved,
                    "generation": snapshot.generation,
                }
            )


def _publish_lags(publishes: list[dict], samples: list[loadgen.Samples], closed: float) -> tuple[list, int]:
    """Writer starts saving -> the reader's first answer from that generation, as ``[began, seen]``.

    A publish the reader never saw lags at least until the reader
    stopped (``closed``) and is counted, so a stalled refresh reads as
    the worst lag of the run and a failure, never as a missing value.
    """
    lags, unseen = [], 0
    for publish in publishes:
        seen = [
            done
            for s in samples
            for done, generation in zip(s.done, s.generation)
            if generation >= publish["generation"]
        ]
        unseen += not seen
        lags.append([publish["began"], min(seen) if seen else closed])
    return lags, unseen


def _window(clients, streams, rounds: int, round_len: float, alongside=None) -> tuple:
    """The measured closed loop: ``(samples, summary)``.

    ``alongside`` is a thread started with the clock (``sql_refresh``'s writer).
    """
    began = time.perf_counter()
    if alongside is not None:
        alongside.start()
    samples = loadgen.closed_loop(clients, streams, rounds * round_len)
    return samples, loadgen.summarise(samples, began, rounds, round_len)


def _cold_start(target, op: int, answers: list):
    """Start the server under test and get one check op answered: ``(client, [began, answered], failed)``."""
    target.load_inputs()
    began = time.perf_counter()
    target.start()
    client = target.client()
    failed = _check(client, [op], answers)
    return client, [began, time.perf_counter()], failed


def measure_queries(workload: spec.Workload, plan: dict) -> dict:
    plan_dir = Path(plan["dir"])
    ops = dict(np.load(plan_dir / "ops.npz"))
    target = (HttpTarget if workload.http else InprocTarget)(workload, plan, ops)
    check_segment = _segment(plan, "hot" if workload.probes == "hot" else "verify")
    answers: list[dict] = []
    result: dict = {"answers": answers}
    # Built before the server starts, so its copy of the corpus is not weighed as the server's.
    writer = Writer(plan, workload) if workload.backend == "sql_refresh" else None
    try:
        client, result["first_answer"], failed_checks = _cold_start(target, check_segment[0], answers)
        failed_checks += _check(client, check_segment[1:], answers)

        clients = [client] + [target.client() for _ in range(workload.clients - 1)]
        streams = _streams(workload, plan, ops)
        loadgen.closed_loop(clients, streams, plan["warm_s"], spec.WARM_REQUESTS)

        rounds, round_len = plan["rounds"], plan["round_len"]
        thread = None
        if writer is not None:
            count = 1 if plan["quick"] else spec.PUBLISHES
            period = rounds * round_len / count
            thread = threading.Thread(
                target=writer.run, args=(target, time.perf_counter(), period, count), daemon=True
            )
        samples, result["window"] = _window(clients, streams, rounds, round_len, thread)
        if writer is not None:
            # The last save may end after the window does: the reader reads on until the writer is done.
            while thread.is_alive():
                samples += loadgen.closed_loop(clients, streams, 0.05)
            samples += loadgen.closed_loop(clients, streams, 0.0, 1)
            result["publishes"] = writer.publishes
            result["publish_lags"], unseen = _publish_lags(writer.publishes, samples, time.perf_counter())
            # The last generation's answers are checked like the first's.
            failed_checks += unseen + _check(client, check_segment, answers)
        if workload.probes == "hot":
            began = time.perf_counter()
            samples = loadgen.open_loop(clients, streams, spec.OPEN_LOOP_RATE, plan["open_s"])
            ended = time.perf_counter()
            scheduled = loadgen.summarise(samples, began, 1, ended - began + 1.0)
            result["open"] = {
                "interval": [began, ended],
                "sched_p95_ms": scheduled["rounds"][0]["p95_ms"],
                "lag_p95_ms": 1e3 * stats.percentile([lag for s in samples for lag in s.lag], 95),
                "attempted": scheduled["attempted"],
                "failed": scheduled["failed"],
            }
        if workload.backend == "ann":
            failed_checks += _check(client, _segment(plan, "recall"), answers)
        result["peak_rss_mb"] = target.peak_rss_mb()
        result["failed_checks"] = failed_checks
        if plan["trace"]:
            result["layers"] = traced_pass(workload, plan, ops, target, client)
    finally:
        target.stop()
    return result


# ---------------------------------------------------------------------------
# The traced pass: the fixed op list peeled boundary by boundary.
# ---------------------------------------------------------------------------


def _median_ms(seconds: list[float]) -> float:
    return 1e3 * stats.median(seconds)


def traced_pass(workload: spec.Workload, plan: dict, ops: dict, target, client) -> dict:
    """Replay one fixed op list, single client, at each boundary from the outside in.

    Every boundary is a different object with its own (or no) result
    cache — the server under test, a twin backend, a bare snapshot — and
    none has seen the list before, so the same ops can be issued at each
    and the cache never answers a replay.  ``http_hot`` is the exception
    on purpose: its list is drawn from the hot set, because the cache
    *is* its path.
    """
    from repro.serving import QueryServer, ServerConfig, build_snapshot

    plan_dir = Path(plan["dir"])
    recorder = SpanRecorder()
    rng = np.random.default_rng(plan["seed"])
    out: dict = {}
    hot = workload.probes == "hot"
    fresh_ops = _segment(plan, "trace0")
    replay_ops = fresh_ops
    if hot:
        replay_ops = plan["segments"]["hot"][0] + ops["zipf0"][: workload.trace_ops]

    outer = "http" if workload.http else "backend.query"
    raws: list = []
    seconds = loadgen.replay(client, replay_ops, recorder, outer, None, raws)
    t_outer = _median_ms(seconds)
    # The traced pass differs from an untraced one by one recorder call per op.
    scratch = SpanRecorder()
    span_s = layers.median_time(lambda: scratch.span(outer, 0.0, 0.0, None, 0), 2000)
    out["obs.trace_overhead_pct"] = 100.0 * span_s / stats.median(seconds)
    details = [client.detail(int(op), raw) for op, raw in zip(replay_ops, raws)]
    hit_rate = sum(d["cache_hit"] for d in details) / len(details)
    out["database.comparisons_per_query"] = sum(d["comparisons"] for d in details) / len(details)
    out["ann.approx_evals_per_query"] = sum(d["approx"] for d in details) / len(details)
    out["ann.reranked_per_query"] = sum(d["reranked"] for d in details) / len(details)

    twin_server = None
    t_backend = t_outer
    if workload.http:
        out["trace.http_ms"] = t_outer
        out.update(layers.health(target.host, target.port))
        out["loadgen.floor_us"] = _http_floor(target, plan_dir, replay_ops)
        requests = build_requests(ops, _titles(plan))
        if workload.backend == "http_sharded":
            # The HTTP server and its two workers go first: five Python
            # processes on two CPUs would measure the scheduler.
            target.stop()
            out.update(layers.protocol(rng))
            out.update(layers.worker(Path(plan["shards_dir"]) / "shard-0000", plan_dir / "worker.log"))
            t_backend, sharded = _coordinator(plan, requests, ops["kinds"], replay_ops, recorder, outer)
            out.update(sharded)
            out.update(
                layers.shard_build(inputs.build_corpus(workload.videos, plan["corpus_seed"]), plan_dir / "shards-probe")
            )
        from repro.ingest import load_database

        twin_server = QueryServer(database=load_database(plan["db_dir"]), config=ServerConfig()).start()
        if workload.backend == "http":
            twin = CallClient(twin_server.query, requests, ops["kinds"])
            for op in _segment(plan, "hot"):  # the twin's cache must hold the hot set too
                twin.issue(op)
            t_backend = _median_ms(loadgen.replay(twin, replay_ops, recorder, "backend.query", outer))
            out["serving.cache_hit_us"] = 1e3 * t_backend
        snapshot = twin_server.manager.current()
    else:
        requests = target.requests
        snapshot = target.server.manager.current()
        noop = CallClient(lambda request: _NOOP, requests, ops["kinds"])
        out["loadgen.floor_us"] = 1e6 * stats.median(loadgen.replay(noop, replay_ops))
    out["trace.backend_query_ms"] = t_backend

    # Below the cache the list is always distinct probes, on the hot set too:
    # there it is what a miss would cost, weighted by the measured miss rate.
    inner = SnapshotClient(snapshot, requests, ann=workload.backend == "ann")
    loadgen.replay(inner, list(fresh_ops)[:20])  # touch the leaves a twin has not opened yet
    t_snapshot = _median_ms(loadgen.replay(inner, fresh_ops, recorder, "snapshot.search", "backend.query"))
    kernel = KernelClient(requests, inner.comparisons, rng)
    t_kernel = _median_ms(loadgen.replay(kernel, fresh_ops, recorder, "kernel", "snapshot.search"))
    out["trace.snapshot_search_ms"] = t_snapshot
    out["trace.kernel_ms"] = t_kernel
    peeled = [("backend.query", t_backend), ("snapshot.search", t_snapshot), ("kernel", t_kernel)]
    own = stats.self_times(([("http", t_outer)] if workload.http else []) + peeled)
    if workload.http:
        out["gateway.overhead_ms"] = own["http"]
    else:
        out["serving.dispatch_overhead_us"] = 1e3 * own["backend.query"]

    executed = (1.0 - hit_rate) * t_snapshot  # inner time actually paid per op
    t_storage = t_ann = 0.0
    probes = ops["probes"][list(_segment(plan, "trace1"))]
    if workload.backend in ("ram", "ann"):
        out.update(layers.kernels(rng))
    if workload.backend == "ram":
        out.update(layers.database(inputs.build_corpus(workload.videos, plan["corpus_seed"]), probes))
    if workload.backend == "ann":
        fresh = inputs.build_corpus(workload.videos, plan["corpus_seed"])
        fresh.build_index()
        out.update(layers.ann_build(fresh))
        out["ann.search_ms"] = t_snapshot
        descent = _median_ms(loadgen.replay(DescentClient(snapshot, requests), fresh_ops))
        t_ann = max(t_snapshot - descent, 0.0)
    if workload.backend in ("sql", "sql_refresh"):
        # Like for like: the twin holds what the served generation holds.
        grown = workload.videos + spec.GROW_VIDEOS * (snapshot.generation - 1)
        ram = inputs.build_corpus(grown, plan["corpus_seed"])
        if workload.backend == "sql":
            out.update(layers.storage(plan["db_dir"], ram, probes))
        twin = SnapshotClient(build_snapshot(ram, 1), requests, ann=False)
        t_ram = _median_ms(loadgen.replay(twin, fresh_ops))
        t_storage = (1.0 - hit_rate) * max(t_snapshot - t_ram, 0.0)

    # Shares of the outermost per-op median; see the README for the groups.
    net = t_outer - executed if workload.backend == "http_sharded" else t_outer - t_backend
    cache_path = t_outer - t_backend if workload.backend == "http_sharded" else t_outer - executed
    out["share.kernels_database"] = max(executed - t_storage - t_ann, 0.0) / t_outer
    out["share.storage"] = t_storage / t_outer
    out["share.net"] = max(net, 0.0) / t_outer if workload.http else 0.0
    out["share.cache_path"] = max(cache_path, 0.0) / t_outer
    out["share.ann"] = t_ann / t_outer
    if twin_server is not None:
        twin_server.stop()
        twin_server.manager.database.close()
    recorder.flush(Path(plan["results"]) / f"trace-{workload.name}.jsonl")
    return out


class _Noop:
    degraded, hits, cache_hit, generation = False, (0,), False, 0


_NOOP = _Noop()


def _titles(plan: dict) -> list[str]:
    return [f"synthetic_{v:05d}" for v in range(plan["videos"])]


def _http_floor(target: HttpTarget, plan_dir: Path, ops_range) -> float:
    """Median microseconds of one generator round trip against the canned-200 stub."""
    stub = procs.spawn(["-m", "benchmarks.e2e", "stub"], plan_dir / "stub.log")
    try:
        port = int(procs.await_line(stub, "READY "))
        client = HttpClient("127.0.0.1", port, target.bodies, np.full(len(target.bodies), _EVENT))
        try:
            loadgen.replay(client, ops_range)  # connect and warm
            return 1e6 * stats.median(loadgen.replay(client, ops_range))
        finally:
            client.close()
    finally:
        procs.stop(stub)


def _coordinator(plan: dict, requests: list, kinds, ops_range, recorder, parent: str):
    """``ShardedQueryService`` direct over our own two workers: the backend without HTTP."""
    from dataclasses import replace

    from repro.net import ShardCluster, ShardedQueryService, load_manifest

    spec_ = load_manifest(plan["shards_dir"])
    began = time.perf_counter()
    cluster = ShardCluster(plan["shards_dir"], spec=spec_).start()
    try:
        started = time.perf_counter()
        service = ShardedQueryService(spec_, cluster.endpoints)
        try:
            client = CallClient(service.query, requests, kinds)
            first_op = int(ops_range[0])
            client.issue(first_op)
            first = time.perf_counter() - started
            loadgen.replay(client, list(ops_range)[1:30])  # connections up, leaves touched
            seconds = loadgen.replay(client, ops_range, recorder, "backend.query", parent)
            rpcs = [
                len(service.query(replace(requests[int(op)], explain=True)).explain["shards"])
                for op in ops_range
            ]
        finally:
            service.close()
    finally:
        cluster.stop()
    return _median_ms(seconds), {
        "cluster.start_s": started - began,
        "coordinator.first_query_s": first,
        "coordinator.query_ms": _median_ms(seconds),
        "coordinator.rpcs_per_query": sum(rpcs) / len(rpcs),
    }


# ---------------------------------------------------------------------------
# mine_ingest.
# ---------------------------------------------------------------------------


def measure_ingest(workload: spec.Workload, plan: dict) -> dict:
    from repro.ingest import ingest_corpus, load_database
    from repro.serving import QueryServer

    db_dir = plan["db_dir"]
    result: dict = {}
    began = time.perf_counter()
    cold = ingest_corpus(["corpus"], db_dir, workers=2, seed=spec.RENDER_SEED)
    result["cold"] = [began, time.perf_counter()]
    database = load_database(db_dir)
    result["fingerprint"] = verify.mined_fingerprint(database)
    entries = database.flat_index.entries
    features = np.stack([np.asarray(entry.features) for entry in entries])
    ops = inputs.draw_ops(workload, plan["seed"], features, len(database.videos))
    np.savez(Path(plan["dir"]) / "ops.npz", **ops)
    plan = dict(plan, segments=inputs.segments(workload))
    result["stream_sha"] = inputs.stream_sha(ops)
    requests = build_requests(ops, sorted(database.videos))
    server = QueryServer(database=database).start()
    answers: list[dict] = []
    try:
        client = CallClient(server.query, requests, ops["kinds"])
        check = _segment(plan, "verify")
        failed_checks = _check(client, check[:1], answers)
        # Raw video -> first answer: the cold ingest is the start-up of this workload.
        result["first_answer"] = [began, time.perf_counter()]
    finally:
        server.stop()
        database.close()

    began = time.perf_counter()
    warm = ingest_corpus(["corpus"], db_dir, workers=2, seed=spec.RENDER_SEED)
    result["warm"] = [began, time.perf_counter()]
    result["cold_states"] = [outcome.state for outcome in cold.outcomes]
    result["warm_states"] = [outcome.state for outcome in warm.outcomes]
    job_seconds = sum(outcome.wall_time for outcome in cold.outcomes)

    # The query stack idles on this workload: the 64 check ops prove the catalog and that is all.
    database = load_database(db_dir)
    server = QueryServer(database=database).start()
    try:
        failed_checks += _check(CallClient(server.query, requests, ops["kinds"]), check[1:], answers)
        # The pool's workers are gone by now: this process plus the largest of them.
        result["peak_rss_mb"] = (
            procs.peak_rss_mb([os.getpid()])
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        )
        if plan["trace"]:
            out = layers.mining()
            out.update(layers.ingest(db_dir, plan["job_keys"], Path(plan["dir"]) / "ingest-probe"))
            cold_s = result["cold"][1] - result["cold"][0]
            out["ingest.pool_efficiency"] = job_seconds / (2.0 * max(cold_s - out["ingest.rebuild_s"], 1e-9))
            staged = sum(out[name] for name in ("video.render_s", "core.structure_s"))
            every = staged + sum(
                out[name] for name in ("vision.cues_s", "audio.shot_audio_s", "events.mine_s")
            )
            out["share.mining"] = staged / every
            result["layers"] = out
    finally:
        server.stop()
        database.close()
    result["answers"] = answers
    result["failed_checks"] = failed_checks
    return result


def main(plan_dir: str) -> int:
    plan = json.loads((Path(plan_dir) / "plan.json").read_text())
    workload = spec.WORKLOAD_BY_NAME[plan["workload"]]
    measure = measure_ingest if workload.backend == "ingest" else measure_queries
    result = measure(workload, plan)
    (Path(plan_dir) / "result.json").write_text(json.dumps(result))
    return 0

