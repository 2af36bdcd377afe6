"""Storage smoke: build, persist, migrate and query a synthetic catalog.

``make storage-smoke`` drives the whole durable-storage subsystem at a
realistic scale (a ~1000-video synthetic corpus by default) and checks
its contracts:

1. a corpus saved to the SQL catalog + feature store round-trips its
   registration records and catalog statistics;
2. a lazily opened catalog answers flat, hierarchical and scene
   queries *bit-identically* to the eager JSON-loaded database;
3. ``migrate_db_dir`` converts a JSON-era directory and the migrated
   catalog answers identically too;
4. full-text search over the stored metadata returns ranked hits;
5. cold-start: opening the SQL catalog must be far cheaper than
   parsing the JSON catalog (the measured ratio is printed; the hard
   >= 10x acceptance gate lives in ``benchmarks/bench_storage.py``).

Setting ``CLASSMINER_SMOKE_SCALE=<videos>`` (e.g. ``100000``) switches
to the *scale* smoke instead: the corpus is built and persisted by a
subprocess, then a fresh reader child answers exact and ANN queries
out-of-core and reports its ``VmHWM`` peak — which must stay far below
the on-disk feature bytes (flat RSS).  The CI default stays small.

Everything is seeded and deterministic; any check failure exits 1.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.database.catalog import VideoDatabase
from repro.errors import ReproError
from repro.storage.lazy import SQLVideoDatabase
from repro.storage.migrate import legacy_json_payload, load_legacy_json, migrate_db_dir
from repro.storage.sqlcatalog import save_database
from repro.storage.synthetic import build_synthetic_database


def _report(name: str, ok: bool, detail: str) -> bool:
    print(f"storage-smoke: [{'ok ' if ok else 'FAIL'}] {name} — {detail}")
    return ok


def _shot_hits(result) -> list[tuple[str, int, float]]:
    return [(h.entry.video_title, h.entry.shot_id, h.score) for h in result.hits]


def _scene_hits(hits) -> list[tuple[str, int, float]]:
    return [(h.entry.video_title, h.entry.scene_id, h.score) for h in hits]


def _queries_equal(
    eager: VideoDatabase, lazy: SQLVideoDatabase, probes: list[np.ndarray]
) -> tuple[bool, str]:
    """Flat + hierarchical + scene results must match bit for bit."""
    eager_scenes = eager.scene_index
    lazy_scenes = lazy.scene_index
    for probe in probes:
        flat_a = eager.search_flat(probe, k=10)
        flat_b = lazy.search_flat(probe, k=10)
        if _shot_hits(flat_a) != _shot_hits(flat_b):
            return False, "flat results diverged"
        if flat_a.stats.comparisons != flat_b.stats.comparisons:
            return False, "flat comparison counts diverged"
        hier_a = eager.search(probe, k=10)
        hier_b = lazy.search(probe, k=10)
        if _shot_hits(hier_a) != _shot_hits(hier_b):
            return False, "hierarchical results diverged"
        if hier_a.stats.visited_path != hier_b.stats.visited_path:
            return False, "descent paths diverged"
        if _scene_hits(eager_scenes.search(probe, k=5)) != _scene_hits(
            lazy_scenes.search(probe, k=5)
        ):
            return False, "scene results diverged"
    return True, f"{len(probes)} probes, flat+hierarchical+scene identical"


def run_smoke(videos: int = 1000, shots: int = 12, seed: int = 0) -> int:
    """Run the storage smoke; returns a process exit code."""
    root = Path(tempfile.mkdtemp(prefix="storage-smoke-"))
    failures = 0
    try:
        database = build_synthetic_database(videos, shots, seed=seed)
        db_dir = root / "db"
        db_dir.mkdir()
        json_path = db_dir / "database.json"
        json_path.write_text(json.dumps(legacy_json_payload(database)))
        catalog_path = save_database(database, db_dir)

        # 1. round-trip bookkeeping.
        lazy = SQLVideoDatabase.open(db_dir)
        ok = (
            sorted(lazy.videos) == sorted(database.videos)
            and lazy.shot_count == database.shot_count
            and lazy.describe() == database.describe()
        )
        failures += not _report(
            "catalog-roundtrip",
            ok,
            f"{len(lazy.videos)} videos, {lazy.shot_count} entries, "
            f"{len(lazy.describe())} leaves",
        )

        # 2. cold-start: parse-everything JSON vs open-lazily SQL.
        start = time.perf_counter()
        eager = load_legacy_json(json_path)
        json_seconds = time.perf_counter() - start
        start = time.perf_counter()
        cold = SQLVideoDatabase.open(db_dir)
        sql_seconds = time.perf_counter() - start
        speedup = json_seconds / max(sql_seconds, 1e-9)
        failures += not _report(
            "cold-start",
            sql_seconds < json_seconds,
            f"JSON {json_seconds * 1e3:.0f}ms vs SQL {sql_seconds * 1e3:.1f}ms "
            f"({speedup:.0f}x)",
        )
        cold.close()

        # 3. query equivalence on real and unseen probes, against the
        # in-RAM database that was saved (the legacy JSON loader regroups
        # the flat index by leaf, which permutes tie-broken orderings —
        # so the eager JSON pair is compared in the migration check).
        rng = np.random.default_rng(seed)
        entries = database.flat_index.entries
        probes = [
            entries[0].features,
            entries[len(entries) // 2].features,
            entries[-1].features,
            rng.random(entries[0].features.shape[0]),
        ]
        ok, detail = _queries_equal(database, lazy, probes)
        failures += not _report("query-equivalence", ok, detail)

        # 4. full-text search over the stored metadata.
        hits = lazy.catalog.search_text("synthetic presentation", k=5)
        ok = bool(hits) and all(
            hit.kind in ("video", "scene", "concept") for hit in hits
        )
        failures += not _report(
            "text-search",
            ok,
            f"{len(hits)} hits "
            f"(fts={'on' if lazy.catalog.fts_enabled else 'LIKE fallback'})",
        )
        lazy.close()

        # 5. migration from a JSON-only directory.
        legacy = root / "legacy"
        legacy.mkdir()
        shutil.copy(json_path, legacy / "database.json")
        migration = migrate_db_dir(legacy, remove_json=True)
        migrated = SQLVideoDatabase.open(legacy)
        ok, detail = _queries_equal(eager, migrated, probes[:2])
        ok = (
            ok
            and migration.videos == len(database.videos)
            and migration.entries == database.shot_count
            and not (legacy / "database.json").exists()
        )
        failures += not _report(
            "migrate-json",
            ok,
            f"{migration.videos} videos via {migration.source}, "
            f"{migration.blocks} blocks, json removed; {detail}",
        )
        migrated.close()
        print(f"catalog: {catalog_path}")
    except ReproError as exc:
        print(
            f"storage-smoke: [FAIL] typed {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        failures += 1
    except Exception as exc:  # noqa: BLE001 — must never escape a public API
        print(
            f"storage-smoke: [FAIL] UNTYPED {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        failures += 1
    finally:
        shutil.rmtree(root, ignore_errors=True)
    if failures:
        print(f"storage-smoke: FAIL ({failures} checks)", file=sys.stderr)
        return 1
    print(f"storage-smoke: OK (videos={videos}, seed={seed})")
    return 0


#: Environment knob selecting the out-of-core scale smoke.
SCALE_ENV = "CLASSMINER_SMOKE_SCALE"

_SCALE_BUILDER = """\
import sys
from repro.storage.sqlcatalog import save_database
from repro.storage.synthetic import build_synthetic_database

videos, shots, seed, db_dir = sys.argv[1:5]
database = build_synthetic_database(
    int(videos), int(shots), seed=int(seed)
)
save_database(database, db_dir)
print(database.shot_count)
"""

_SCALE_READER = """\
import json, resource, sys

from repro.database.query import search_hierarchical
from repro.storage.lazy import SQLVideoDatabase


def peak_rss_kb():
    # VmHWM is reset on exec, so it measures only this reader's peak;
    # ru_maxrss is the non-Linux fallback.
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


db_dir, out_path = sys.argv[1:3]
database = SQLVideoDatabase.open(db_dir)
info = database.catalog.leaf_infos()[0]
probe = database.catalog.features.open(info.block.sha)[0].copy()


def keys(result):
    return [
        [h.entry.video_title, h.entry.shot_id, h.score] for h in result.hits
    ]


exact = search_hierarchical(database.index_root, probe, k=10)
full = search_hierarchical(
    database.index_root, probe, k=10, nprobe=1_000_000
)
pruned = search_hierarchical(
    database.index_root, probe, k=10, nprobe=4, rerank_k=32
)
payload = {
    "rss_kb": peak_rss_kb(),
    "hits": len(exact.hits),
    "ann_identical": keys(exact) == keys(full),
    "ann_degraded": bool(full.stats.ann_degraded or pruned.stats.ann_degraded),
    "approx_comparisons": pruned.stats.approx_comparisons,
}
database.close()
with open(out_path, "w") as handle:
    json.dump(payload, handle)
"""


def _subprocess_env() -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


def run_scale_smoke(videos: int, shots: int = 12, seed: int = 0) -> int:
    """The ``CLASSMINER_SMOKE_SCALE`` path: flat-RSS out-of-core reads.

    The corpus is built and saved by one child process (so its build
    memory never pollutes the measurement) and queried by another; the
    reader's ``VmHWM`` must stay far below the on-disk feature bytes,
    proving the ANN and exact paths both stream from the store instead
    of materialising the corpus.
    """
    root = Path(tempfile.mkdtemp(prefix="storage-smoke-scale-"))
    failures = 0
    env = _subprocess_env()
    try:
        db_dir = root / "db"
        db_dir.mkdir()
        start = time.perf_counter()
        build = subprocess.run(
            [
                sys.executable, "-c", _SCALE_BUILDER,
                str(videos), str(shots), str(seed), str(db_dir),
            ],
            env=env, check=True, capture_output=True, text=True,
            timeout=3600,
        )
        entries = int(build.stdout.strip().splitlines()[-1])
        build_seconds = time.perf_counter() - start
        feature_bytes = sum(
            path.stat().st_size for path in db_dir.rglob("*.npy")
        )
        failures += not _report(
            "scale-build",
            entries == videos * shots,
            f"{videos} videos / {entries} entries in {build_seconds:.0f}s, "
            f"{feature_bytes / 2**20:.0f} MiB of feature blocks",
        )

        out_path = root / "reader.json"
        reader = subprocess.run(
            [sys.executable, "-c", _SCALE_READER, str(db_dir), str(out_path)],
            env=env, check=True, timeout=3600,
        )
        assert reader.returncode == 0
        payload = json.loads(out_path.read_text())
        failures += not _report(
            "scale-queries",
            payload["hits"] > 0
            and payload["ann_identical"]
            and not payload["ann_degraded"]
            and payload["approx_comparisons"] > 0,
            f"{payload['hits']} hits, nprobe=all identical to exact, "
            f"{payload['approx_comparisons']} quantized evals when pruning",
        )

        # Flat RSS: the reader may keep the interpreter + catalog rows
        # resident, but never a corpus-sized fraction of the blocks.
        rss_bytes = payload["rss_kb"] * 1024
        budget = 400 * 2**20 + feature_bytes // 8
        failures += not _report(
            "scale-flat-rss",
            rss_bytes < budget,
            f"reader VmHWM {rss_bytes / 2**20:.0f} MiB vs "
            f"{feature_bytes / 2**20:.0f} MiB of blocks "
            f"(budget {budget / 2**20:.0f} MiB)",
        )
    except subprocess.CalledProcessError as exc:
        print(
            f"storage-smoke: [FAIL] child exited {exc.returncode}: "
            f"{(exc.stderr or '')[-500:]}",
            file=sys.stderr,
        )
        failures += 1
    except Exception as exc:  # noqa: BLE001 — must never escape a public API
        print(
            f"storage-smoke: [FAIL] UNTYPED {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        failures += 1
    finally:
        shutil.rmtree(root, ignore_errors=True)
    if failures:
        print(f"storage-smoke: FAIL ({failures} scale checks)", file=sys.stderr)
        return 1
    print(f"storage-smoke: OK (scale videos={videos}, seed={seed})")
    return 0


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.storage.smoke [--videos N]`` entry point."""
    import argparse

    parser = argparse.ArgumentParser(description="storage subsystem smoke test")
    parser.add_argument("--videos", type=int, default=1000)
    parser.add_argument("--shots", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    scale = os.environ.get(SCALE_ENV)
    if scale:
        return run_scale_smoke(
            videos=int(scale), shots=args.shots, seed=args.seed
        )
    return run_smoke(videos=args.videos, shots=args.shots, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
