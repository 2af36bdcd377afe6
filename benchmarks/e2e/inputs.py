"""Set-up: build the seeded corpus, persist it, and serialise every request.

Everything the program under test will be given is made here from
``--seed`` and written into one plan directory; the measuring process
(:mod:`measure`) only reads it.  ``prepare`` is what ``setup_s`` times.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from benchmarks.e2e import spec

#: Two traced draws: ``trace0`` is the fixed op list replayed at every
#: boundary, ``trace1`` feeds the per-layer probes.
TRACE_DRAWS = 2
_NOISE_SIGMA = 0.01


def load_program() -> None:
    """Import the program under test: the first thing set-up does, and part of ``setup_s``."""
    import repro.ingest  # noqa: F401
    import repro.net  # noqa: F401
    import repro.storage  # noqa: F401


def event_values() -> list[str]:
    from repro.types import EventKind

    return [kind.value for kind in EventKind]


def event_pair(event_arg: int, titles: list[str]) -> tuple[str, str]:
    """An event op's argument decoded: (event value, video title)."""
    events = event_values()
    return events[event_arg % len(events)], titles[event_arg // len(events) % len(titles)]


def corpus_seed(workload: spec.Workload, seed: int) -> int:
    """13 + ``--seed``; on ``ann_probe`` 13 whatever the seed (there ``--seed`` draws the probes only).

    Recall depends on the corpus the leaf indexes were trained on: across
    corpora it spreads by 0.7-0.9 %, all of the metric's 1 % bound, and
    that is the input, not noise.  On one corpus what is left is which
    probes were drawn.
    """
    return spec.CORPUS_SEED_BASE + (0 if workload.backend == "ann" else seed)


def build_corpus(videos: int, corpus_seed: int):
    from repro.storage import build_synthetic_database

    return build_synthetic_database(videos=videos, shots_per_video=12, seed=corpus_seed)


def feature_matrix(database) -> np.ndarray:
    return np.stack([entry.features for entry in database.flat_index.entries])


def segments(workload: spec.Workload) -> dict[str, tuple[int, int]]:
    """Op-index ranges of one workload's draws: streams, checks, traced replay."""
    sizes = [(f"client{c}", spec.STREAM_OPS) for c in range(workload.clients)]
    if workload.probes == "hot":
        sizes = [("hot", spec.HOT_REQUESTS)]
    else:
        sizes.append(("verify", spec.VERIFY_OPS))
    if workload.backend == "ann":
        sizes.append(("recall", spec.RECALL_OPS))
    sizes += [(f"trace{j}", workload.trace_ops) for j in range(TRACE_DRAWS)]
    out, cursor = {}, 0
    for name, size in sizes:
        out[name] = (cursor, cursor + size)
        cursor += size
    return out


def draw_ops(workload: spec.Workload, seed: int, features: np.ndarray, videos: int) -> dict:
    """Seeded op list over stored ``features``: probe per op, kind, event argument.

    Op ``i`` probes with row ``i`` of ``probes``.  *stored* probes are
    stored vectors, each drawn at most once per cycle; *novel* ones add
    N(0, 0.01) noise so the hash bucket misses and the leaf is scanned.
    """
    rng = np.random.default_rng(1000 + seed)
    segs = segments(workload)
    total = max(stop for _start, stop in segs.values())
    picks = np.resize(rng.permutation(features.shape[0]), total)
    probes = features[picks].copy()
    noise = rng.normal(0.0, _NOISE_SIGMA, probes.shape)
    if workload.probes == "novel":
        probes += noise
    # Every share of every mix is a tenth, so the kinds are laid out in
    # shuffled blocks of ten: any stretch of a stream holds the workload's
    # mix exactly, and two rounds differ by the host, not by what they drew.
    block = np.repeat(
        [spec.KINDS.index(kind) for kind in workload.mix],
        [round(10 * share) for share in workload.mix.values()],
    ).astype(np.uint8)
    kinds = np.concatenate([rng.permutation(block) for _ in range(-(-total // 10))])[:total]
    # Event ops name one (event, title) pair each, so no two share a cache key.
    n_events = len(event_values())
    event_args = np.resize(rng.permutation(n_events * max(videos, 1)), total).astype(np.int64)
    out = {"probes": probes, "kinds": kinds, "event_args": event_args}
    if workload.probes == "hot":
        ranks = np.arange(1, spec.HOT_REQUESTS + 1, dtype=np.float64)
        weights = ranks**-spec.HOT_ZIPF
        weights /= weights.sum()
        for c in range(workload.clients):
            out[f"zipf{c}"] = rng.choice(
                spec.HOT_REQUESTS, size=8 * spec.STREAM_OPS, p=weights
            ).astype(np.int32)
    return out


def stream_sha(ops: dict) -> str:
    digest = hashlib.sha256()
    for name in sorted(ops):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(ops[name]).tobytes())
    return digest.hexdigest()


def op_body(kind: str, probe: np.ndarray, event_arg: int, titles: list[str]) -> dict:
    """One op as the JSON body ``POST /query`` takes."""
    if kind == "event":
        event, title = event_pair(event_arg, titles)
        return {"kind": "event", "event": event, "video_title": title}
    return {"kind": kind, "features": probe.tolist(), "k": spec.K}


def prepare(workload: spec.Workload, seed: int, plan: dict, out_dir: Path):
    """Write one complete plan directory; returns ``(plan, database)``.

    ``plan`` carries the run's timing parameters; this adds the inputs.
    """
    out_dir.mkdir(parents=True)
    plan = dict(plan, workload=workload.name, seed=seed, dir=str(out_dir))
    if workload.backend == "ingest":
        # The input is the five corpus titles; the render seed is fixed
        # (see spec.RENDER_SEED), so set-up only plans the jobs.
        from repro.ingest import jobs_for_titles

        jobs = jobs_for_titles(["corpus"], seed=spec.RENDER_SEED)
        plan.update(
            titles=[job.title for job in jobs],
            job_keys=[job.key for job in jobs],
            db_dir=str(out_dir / "db"),
            stream_sha=hashlib.sha256(
                json.dumps([seed] + [job.key for job in jobs]).encode()
            ).hexdigest(),
        )
        (out_dir / "plan.json").write_text(json.dumps(plan))
        return plan, None

    plan["corpus_seed"] = corpus_seed(workload, seed)
    database = build_corpus(workload.videos, plan["corpus_seed"])
    titles = sorted(database.videos)
    ops = draw_ops(workload, seed, feature_matrix(database), workload.videos)
    np.savez(out_dir / "ops.npz", **ops)
    plan.update(
        videos=workload.videos,
        segments=segments(workload),
        stream_sha=stream_sha(ops),
    )
    if workload.backend in ("sql", "sql_refresh", "http", "http_sharded"):
        from repro.storage import save_database

        plan["db_dir"] = str(out_dir / "db")
        save_database(database, plan["db_dir"])
    if workload.backend == "http_sharded":
        from repro.net import build_shards

        plan["shards_dir"] = str(out_dir / "shards")
        build_shards(database, plan["shards_dir"], 2)
    if workload.backend == "sql_refresh":
        # Generation g serves the corpus grown by GROW_VIDEOS x (g - 1); the
        # synthetic builder is prefix-stable, so the grown corpus is the
        # same builder asked for more videos and only the tail is shipped.
        grown = build_corpus(workload.videos + spec.GROW_VIDEOS * (spec.PUBLISHES + 2), plan["corpus_seed"])
        tail = feature_matrix(grown)[12 * workload.videos :]
        np.save(out_dir / "grow.npy", tail.reshape(-1, spec.GROW_VIDEOS, 12, tail.shape[1]))
    if workload.http:
        with open(out_dir / "bodies.jsonl", "w") as handle:
            for i, kind in enumerate(ops["kinds"]):
                body = op_body(spec.KINDS[kind], ops["probes"][i], int(ops["event_args"][i]), titles)
                handle.write(json.dumps(body, separators=(",", ":")) + "\n")
    (out_dir / "plan.json").write_text(json.dumps(plan))
    return plan, database
