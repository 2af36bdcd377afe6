"""Workloads, metric names, units and regression bounds: the fixed vocabulary.

Later issues cite these names, so they change only with the README and
``BENCHMARK.json`` (``selftest`` checks that the three agree).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: The measured window the driver asks for (``--seconds``): three rounds of
#: two seconds, the floor the issue allows under the driver's time cap.
RUN_SECONDS = 6
#: Hits asked of every query.
K = 10
#: Corpus seed offset: corpus seed = CORPUS_SEED_BASE + ``--seed``.
CORPUS_SEED_BASE = 13
#: Answers checked against the oracle before a workload's numbers count.
VERIFY_OPS = 64
#: Further probes behind ``recall_at_10`` on the approximate workload: a probe's
#: recall is 0.8, 0.9 or 1, so the mean of 512 repeats to about a third of a per cent.
RECALL_OPS = 448
#: Ops per client stream; streams cycle, and two clients x 1500 distinct
#: requests is well past the 512-entry result cache, so a cycle never hits it.
STREAM_OPS = 1500
#: ``http_hot``: fixed request set (fits the result cache) and its skew.
HOT_REQUESTS = 64
HOT_ZIPF = 1.1
#: ``http_hot`` phase B: fixed offered rate of the open loop.
OPEN_LOOP_RATE = 300.0
#: ``sql_refresh``: videos added per published generation, publishes per run.
GROW_VIDEOS = 20
PUBLISHES = 6
#: Discarded warm-up: this share of ``--seconds`` or WARM_REQUESTS, whichever is later.
WARM_SHARE = 0.2
WARM_REQUESTS = 100
#: The mined corpus is always rendered with this seed: its (shots, scenes,
#: events) fingerprint is frozen in ``verify.py``.
RENDER_SEED = 0
MINE_TITLES = ("face_repair", "nuclear_medicine")

KINDS = ("shot", "shot_flat", "scene", "event")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    backend: str  # ram | ann | sql | sql_refresh | http | http_sharded | ingest
    videos: int  # synthetic corpus size (x 12 shots); 0 = the mined five titles
    probes: str  # novel | stored | hot
    mix: dict[str, float] = field(default_factory=dict)
    clients: int = 2
    trace_ops: int = 200

    @property
    def http(self) -> bool:
        return self.backend.startswith("http")


WORKLOADS = (
    Workload(
        "inram_scan",
        "in-RAM index, novel probes: kernels and database do the work, storage and net none",
        backend="ram", videos=1000, probes="novel",
        mix={"shot": 0.5, "shot_flat": 0.2, "scene": 0.2, "event": 0.1},
        trace_ops=80,
    ),
    Workload(
        "sql_lookup",
        "out-of-core catalog, stored probes: small scans, so storage fetches show if they cost",
        backend="sql", videos=1000, probes="stored",
        mix={"shot": 0.7, "scene": 0.3},
    ),
    Workload(
        "sql_refresh",
        "one reader beside a writer publishing generations: read gains bought with residency show as lag",
        backend="sql_refresh", videos=400, probes="stored",
        mix={"shot": 0.7, "scene": 0.3}, clients=1,
    ),
    Workload(
        "http_sharded2",
        "HTTP over two shard workers, stored probes: wire codec, RPC, merge and gateway dominate",
        backend="http_sharded", videos=1000, probes="stored",
        mix={"shot": 0.6, "shot_flat": 0.2, "scene": 0.2},
    ),
    Workload(
        "http_hot",
        "HTTP, 64 hot requests that fit the result cache: gateway and cache path only; open-loop phase",
        backend="http", videos=1000, probes="hot",
        mix={"shot": 0.6, "shot_flat": 0.2, "scene": 0.2},
    ),
    Workload(
        "ann_probe",
        "approximate leaf tier on the in-RAM index, novel shot probes: like-for-like with inram_scan",
        backend="ann", videos=1000, probes="novel",
        mix={"shot": 1.0},
    ),
    Workload(
        "mine_ingest",
        "render, mine and ingest five videos cold, then again warm: the write path; the query stack idles",
        backend="ingest", videos=0, probes="novel",
        mix={"shot": 0.6, "scene": 0.3, "event": 0.1},
    ),
)
WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # lower | higher
    bound: float | None = None  # share of the parent's median it may worsen by
    home: tuple[str, ...] = ()  # workloads that measure it; () = every workload


_HTTP = ("http_sharded2", "http_hot")
_QUERY = tuple(w.name for w in WORKLOADS if w.backend != "ingest")

#: Reported by every workload with ``--trace 0`` and gated by the driver on
#: their spread across seeds: the issue's end-to-end metrics that repeat on
#: this host (see "Observed spread" in the README; no timing but set-up
#: does, and set-up only through the host clock).
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.15),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
    Metric("recall_at_10", "ratio", "higher", 0.01),
    Metric("ok_share", "ratio", "higher", 0.001),
)

#: The issue's other end-to-end metrics.  The driver cannot gate them: the
#: timings spread wider across seeds than any bound it accepts, and the
#: rest exist on one workload only (its ``end_to_end`` list must come,
#: non-zero, from every workload).  They ride in the ``--trace 1`` list;
#: ``compare`` applies the issue's bound given here and answers
#: ``unresolved`` when the spread hides it.
UNGATED_END_TO_END = (
    Metric("first_answer_s", "s", "lower", 0.15),
    Metric("query_qps", "1/s", "higher", 0.10, home=_QUERY),
    Metric("query_p50_ms", "ms", "lower", 0.10, home=_QUERY),
    Metric("query_p95_ms", "ms", "lower", 0.15, home=_QUERY),
    Metric("sched_p95_ms", "ms", "lower", 0.15, home=("http_hot",)),
    Metric("publish_lag_s", "s", "lower", 0.15, home=("sql_refresh",)),
    Metric("ingest_videos_per_s", "1/s", "higher", 0.10, home=("mine_ingest",)),
    Metric("reingest_s", "s", "lower", 0.15, home=("mine_ingest",)),
    Metric("failed_share", "ratio", "lower", 0.0),
)

#: Layer = module name.  ``home`` says where the number is taken; elsewhere
#: the layer is not on the workload's path and the metric reads 0.
PER_LAYER = (
    Metric("kernels.stsim_rows_per_s", "1/s", "higher", home=("inram_scan", "ann_probe")),
    Metric("kernels.intersection_rows_per_s", "1/s", "higher", home=("inram_scan", "ann_probe")),
    Metric("kernels.quantized_rows_per_s", "1/s", "higher", home=("inram_scan", "ann_probe")),
    Metric("database.search_ms", "ms", "lower", home=("inram_scan",)),
    Metric("database.search_flat_ms", "ms", "lower", home=("inram_scan",)),
    Metric("database.scene_ms", "ms", "lower", home=("inram_scan",)),
    Metric("database.comparisons_per_query", "count", "lower", home=_QUERY),
    Metric("database.index_build_s", "s", "lower", home=("inram_scan",)),
    Metric("storage.open_s", "s", "lower", home=("sql_lookup",)),
    Metric("storage.search_ms", "ms", "lower", home=("sql_lookup",)),
    Metric("storage.inram_ratio", "ratio", "lower", home=("sql_lookup",)),
    Metric("storage.first_touch_ms", "ms", "lower", home=("sql_lookup",)),
    Metric("storage.leaf_rows_ms", "ms", "lower", home=("sql_lookup",)),
    Metric("storage.block_open_us", "us", "lower", home=("sql_lookup",)),
    Metric("storage.save_s", "s", "lower", home=("sql_refresh",)),
    Metric("storage.bytes_per_user_byte", "ratio", "lower", home=("sql_lookup",)),
    Metric("ann.build_s", "s", "lower", home=("ann_probe",)),
    Metric("ann.search_ms", "ms", "lower", home=("ann_probe",)),
    Metric("ann.approx_evals_per_query", "count", "lower", home=_QUERY),
    Metric("ann.reranked_per_query", "count", "lower", home=_QUERY),
    Metric("serving.snapshot_build_s", "s", "lower", home=("inram_scan",)),
    Metric("serving.refresh_s", "s", "lower", home=("sql_refresh",)),
    Metric("serving.dispatch_overhead_us", "us", "lower",
           home=("inram_scan", "sql_lookup", "sql_refresh", "ann_probe")),
    Metric("serving.cache_hit_us", "us", "lower", home=("http_hot",)),
    Metric("serving.cache_hit_rate", "ratio", "higher", home=_QUERY),
    Metric("protocol.pack_us", "us", "lower", home=("http_sharded2",)),
    Metric("protocol.unpack_us", "us", "lower", home=("http_sharded2",)),
    Metric("protocol.frame_roundtrip_us", "us", "lower", home=("http_sharded2",)),
    Metric("protocol.wire_bytes_per_raw_byte", "ratio", "lower", home=("http_sharded2",)),
    Metric("worker.ready_s", "s", "lower", home=("http_sharded2",)),
    Metric("worker.ping_us", "us", "lower", home=("http_sharded2",)),
    Metric("cluster.start_s", "s", "lower", home=("http_sharded2",)),
    Metric("shard.build_s", "s", "lower", home=("http_sharded2",)),
    Metric("coordinator.query_ms", "ms", "lower", home=("http_sharded2",)),
    Metric("coordinator.rpcs_per_query", "count", "lower", home=("http_sharded2",)),
    Metric("coordinator.first_query_s", "s", "lower", home=("http_sharded2",)),
    Metric("gateway.overhead_ms", "ms", "lower", home=_HTTP),
    Metric("gateway.health_ms", "ms", "lower", home=_HTTP),
    Metric("video.render_s", "s", "lower", home=("mine_ingest",)),
    Metric("core.structure_s", "s", "lower", home=("mine_ingest",)),
    Metric("core.shots_s", "s", "lower", home=("mine_ingest",)),
    Metric("vision.cues_s", "s", "lower", home=("mine_ingest",)),
    Metric("audio.shot_audio_s", "s", "lower", home=("mine_ingest",)),
    Metric("events.mine_s", "s", "lower", home=("mine_ingest",)),
    Metric("ingest.artifact_save_s", "s", "lower", home=("mine_ingest",)),
    Metric("ingest.artifact_load_s", "s", "lower", home=("mine_ingest",)),
    Metric("ingest.artifact_bytes", "B", "lower", home=("mine_ingest",)),
    Metric("ingest.rebuild_s", "s", "lower", home=("mine_ingest",)),
    Metric("ingest.pool_efficiency", "ratio", "higher", home=("mine_ingest",)),
    # The peeled replay: median per op at each boundary, outside in.
    Metric("trace.http_ms", "ms", "lower", home=_HTTP),
    Metric("trace.backend_query_ms", "ms", "lower", home=_QUERY),
    Metric("trace.snapshot_search_ms", "ms", "lower", home=_QUERY),
    Metric("trace.kernel_ms", "ms", "lower", home=_QUERY),
    # Share of the per-op time held by each group of layers (see README).
    Metric("share.kernels_database", "ratio", "lower", home=_QUERY),
    Metric("share.storage", "ratio", "lower", home=_QUERY),
    Metric("share.net", "ratio", "lower", home=_QUERY),
    Metric("share.cache_path", "ratio", "lower", home=_QUERY),
    Metric("share.ann", "ratio", "lower", home=_QUERY),
    Metric("share.mining", "ratio", "lower", home=("mine_ingest",)),
    # The benchmark's own noise floor and generator cost.
    Metric("loadgen.p99_ms", "ms", "lower", home=_QUERY),
    Metric("loadgen.lag_p95_ms", "ms", "lower", home=("http_hot",)),
    Metric("loadgen.round_mad_pct", "%", "lower", home=_QUERY),
    Metric("loadgen.samples", "count", "higher", home=_QUERY),
    Metric("loadgen.floor_us", "us", "lower", home=_QUERY),
    Metric("obs.trace_overhead_pct", "%", "lower", home=_QUERY),
    # What the host clock read over the whole run (1 = the reference host, 2 = half as fast).
    Metric("host.speed_factor", "ratio", "lower"),
)

TRACED = UNGATED_END_TO_END + PER_LAYER
ALL_METRICS = END_TO_END + TRACED
METRIC_BY_NAME = {m.name: m for m in ALL_METRICS}


def measured_on(metric: Metric, workload: str) -> bool:
    return not metric.home or workload in metric.home


def window(seconds: float) -> tuple[int, float]:
    """Rounds and round length of a measured window of ``seconds``."""
    rounds = max(1, min(5, int(seconds // 2)))
    return rounds, seconds / rounds


def benchmark_json(run_seconds: int = RUN_SECONDS) -> dict:
    """The driver-facing description, generated from the tables above."""

    def row(m: Metric, bounded: bool) -> dict:
        out = {"name": m.name, "unit": m.unit, "better": m.better}
        if bounded:
            out["bound"] = m.bound
        return out

    return {
        "command": ["python3", "-m", "benchmarks.e2e", "run"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [row(m, True) for m in END_TO_END],
        "per_layer": [row(m, False) for m in TRACED],
    }
