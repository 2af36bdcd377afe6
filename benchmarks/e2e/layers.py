"""Per-layer probes: each layer timed from outside, through its public functions.

One function per layer (layer = module name under ``src/repro``); each
returns ``{metric name: value}``.  A workload's traced run calls the
probes of the layers on its path — see ``spec.PER_LAYER`` for which
workload is each metric's home.  Nothing here patches or reaches into
the program; when a layer offers no outside handle the README says so.
"""

from __future__ import annotations

import json
import shutil
import socket
import time
from pathlib import Path

import numpy as np

from benchmarks.e2e import procs, spec, stats

_ROWS, _DIMS = 3000, 266


def median_time(fn, repeats: int) -> float:
    """Median wall seconds of ``fn()`` over ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return stats.median(times)


def kernels(rng: np.random.Generator) -> dict:
    """The three scan kernels on one 3000 x 266 block (the leaf shape)."""
    from repro.core.kernels import (
        combined_stsim_to_many,
        intersection_to_many,
        quantized_intersection_to_many,
    )

    block, query = rng.random((_ROWS, _DIMS)), rng.random(_DIMS)
    codes = rng.integers(0, 256, (_ROWS, _DIMS), dtype=np.uint8)
    query_codes = rng.integers(0, 256, _DIMS, dtype=np.uint8)
    scale = rng.random(_DIMS)
    return {
        "kernels.stsim_rows_per_s": _ROWS / median_time(lambda: combined_stsim_to_many(query, block), 40),
        "kernels.intersection_rows_per_s": _ROWS / median_time(lambda: intersection_to_many(query, block), 40),
        "kernels.quantized_rows_per_s": _ROWS
        / median_time(lambda: quantized_intersection_to_many(query_codes, codes, scale, 0.5), 40),
    }


def database(fresh, probes: np.ndarray) -> dict:
    """``VideoDatabase`` direct: index build, then search / flat / scene on the workload's probes."""
    from repro.serving import build_snapshot

    start = time.perf_counter()
    fresh.build_index()
    index_build = time.perf_counter() - start
    start = time.perf_counter()
    snapshot = build_snapshot(fresh, 1)
    snapshot_build = time.perf_counter() - start
    cursor = iter(probes)
    return {
        "database.index_build_s": index_build,
        "serving.snapshot_build_s": snapshot_build,
        "database.search_ms": 1e3 * median_time(lambda: fresh.search(next(cursor), k=spec.K), 30),
        "database.search_flat_ms": 1e3 * median_time(lambda: fresh.search_flat(next(cursor), k=spec.K), 10),
        "database.scene_ms": 1e3 * median_time(lambda: snapshot.search_scenes(next(cursor), k=spec.K), 20),
    }


def _tree_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


def storage(db_dir: str, twin, probes: np.ndarray) -> dict:
    """``SQLVideoDatabase`` and its parts against the in-RAM twin on identical stored probes."""
    from repro.storage import SQLVideoDatabase

    opened = []

    def reopen():
        opened.append(SQLVideoDatabase.open(db_dir))

    open_s = median_time(reopen, 5)
    # First touch: a fresh handle's first search materialises the leaves it routes into.
    first_touch = []
    for i, database_ in enumerate(opened[:3]):
        start = time.perf_counter()
        database_.search(probes[i], k=spec.K)
        first_touch.append(time.perf_counter() - start)
    sql = opened[0]
    for probe in probes[:20]:  # touch every leaf on both sides before comparing warm searches
        sql.search(probe, k=spec.K)
        twin.search(probe, k=spec.K)
    cursor_sql, cursor_ram = iter(probes[20:]), iter(probes[20:])
    sql_ms = 1e3 * median_time(lambda: sql.search(next(cursor_sql), k=spec.K), 60)
    ram_ms = 1e3 * median_time(lambda: twin.search(next(cursor_ram), k=spec.K), 60)
    catalog = sql.catalog
    largest = max(catalog.leaf_infos(), key=lambda info: info.entry_count)
    out = {
        "storage.open_s": open_s,
        "storage.first_touch_ms": 1e3 * stats.median(first_touch),
        "storage.search_ms": sql_ms,
        "storage.inram_ratio": sql_ms / ram_ms,
        "storage.leaf_rows_ms": 1e3 * median_time(lambda: catalog.leaf_rows(largest.name), 3),
        "storage.block_open_us": 1e6 * median_time(lambda: catalog.features.open(largest.block.sha), 200),
        "storage.bytes_per_user_byte": _tree_bytes(Path(db_dir)) / (sql.shot_count * _DIMS * 8),
    }
    for database_ in opened:
        database_.close()
    return out


def ann_build(fresh) -> dict:
    """Train every leaf's ANN index on a fresh in-RAM snapshot."""
    from repro.serving import build_snapshot
    from repro.serving.snapshot import warm_ann_indexes

    snapshot = build_snapshot(fresh, 1)
    start = time.perf_counter()
    warm_ann_indexes(snapshot)
    return {"ann.build_s": time.perf_counter() - start}


def protocol(rng: np.random.Generator) -> dict:
    """The wire codec on one 266-vector, and one framed 10-vector response over a socketpair."""
    from repro.net.protocol import pack_array, recv_frame, send_frame, unpack_array

    vector = rng.random(_DIMS)
    packed = pack_array(vector)
    response = {"ok": True, "hits": [pack_array(rng.random(_DIMS)) for _ in range(10)]}
    left, right = socket.socketpair()
    try:

        def roundtrip():
            send_frame(left, response)
            recv_frame(right)

        frame_s = median_time(roundtrip, 300)
    finally:
        left.close()
        right.close()
    return {
        "protocol.pack_us": 1e6 * median_time(lambda: pack_array(vector), 2000),
        "protocol.unpack_us": 1e6 * median_time(lambda: unpack_array(packed), 2000),
        "protocol.frame_roundtrip_us": 1e6 * frame_s,
        "protocol.wire_bytes_per_raw_byte": len(json.dumps(packed, separators=(",", ":"))) / vector.nbytes,
    }


def worker(shard_dir: Path, log: Path) -> dict:
    """One shard worker: spawn to READY, then the cheapest RPC there is."""
    from repro.net.protocol import ShardEndpoint

    start = time.perf_counter()
    proc = procs.spawn(["-m", "repro.net.worker", str(shard_dir), "--port", "0"], log)
    try:
        port = int(procs.await_line(proc, "READY "))
        ready = time.perf_counter() - start
        endpoint = ShardEndpoint(0, "127.0.0.1", port)
        try:
            ping = median_time(lambda: endpoint.call({"op": "ping"}), 300)
        finally:
            endpoint.close()
    finally:
        procs.stop(proc)
    return {"worker.ready_s": ready, "worker.ping_us": 1e6 * ping}


def shard_build(twin, scratch: Path) -> dict:
    from repro.net import build_shards

    start = time.perf_counter()
    build_shards(twin, scratch, 2)
    elapsed = time.perf_counter() - start
    shutil.rmtree(scratch, ignore_errors=True)
    return {"shard.build_s": elapsed}


def health(host: str, port: int) -> dict:
    import http.client

    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:

        def get():
            conn.request("GET", "/health")
            conn.getresponse().read()

        return {"gateway.health_ms": 1e3 * median_time(get, 50)}
    finally:
        conn.close()


def mining() -> dict:
    """The miner stage by stage on two titles (sums over both), render seed fixed."""
    from repro.core.shots import detect_shots
    from repro.core.structure import mine_content_structure
    from repro.events.miner import EventMiner
    from repro.ingest.jobs import screenplay_for_title
    from repro.video.synthesis.generator import generate_video

    totals = dict.fromkeys(
        ("video.render_s", "core.structure_s", "core.shots_s", "vision.cues_s",
         "audio.shot_audio_s", "events.mine_s"), 0.0)

    def timed(name, fn):
        start = time.perf_counter()
        value = fn()
        totals[name] += time.perf_counter() - start
        return value

    for title in spec.MINE_TITLES:
        screenplay = screenplay_for_title(title)
        video = timed("video.render_s", lambda: generate_video(screenplay, seed=spec.RENDER_SEED))
        structure = timed("core.structure_s", lambda: mine_content_structure(video.stream))
        timed("core.shots_s", lambda: detect_shots(video.stream))
        miner = EventMiner()
        timed("vision.cues_s", lambda: miner.visual_cues(structure.shots))
        timed("audio.shot_audio_s", lambda: miner.shot_audio(structure.shots, video.stream.audio))
        timed("events.mine_s", lambda: miner.mine(structure.scenes, video.stream.audio))
    return totals


def ingest(db_dir: str, keys: list[str], scratch: Path) -> dict:
    """Artifact store and catalog rebuild on the artifacts the cold ingest wrote."""
    from repro.database.catalog import VideoDatabase
    from repro.ingest import ArtifactStore, store_for
    from repro.storage import save_database

    store = store_for(db_dir)
    load_s = median_time(lambda: store.load(keys[0]), 3)
    results = [store.load(key) for key in keys]
    other = ArtifactStore(scratch / "artifacts")
    other.root.mkdir(parents=True)
    start = time.perf_counter()
    saved = other.save(keys[0], results[0])
    save_s = time.perf_counter() - start
    start = time.perf_counter()
    rebuilt = VideoDatabase()
    rebuilt.register_bulk(results)
    save_database(rebuilt, scratch / "db")
    rebuild_s = time.perf_counter() - start
    out = {
        "ingest.artifact_load_s": load_s,
        "ingest.artifact_save_s": save_s,
        "ingest.artifact_bytes": float(_tree_bytes(saved)),
        "ingest.rebuild_s": rebuild_s,
    }
    shutil.rmtree(scratch, ignore_errors=True)
    return out
