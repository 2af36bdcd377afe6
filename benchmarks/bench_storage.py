"""Storage backend benchmark: SQL catalog + mmap blocks vs JSON.

Persists one synthetic corpus through both backends and measures, in
*fresh subprocesses* (so page cache warm-up, lazy imports and peak RSS
are attributed honestly), the three acceptance criteria of the durable
storage subsystem:

1. cold start — opening the persisted corpus through to the first
   answered query, in a process that has never touched the files —
   must be at least :data:`MIN_COLD_SPEEDUP` times faster on the SQL
   catalog than on the parse-everything JSON path;
2. peak RSS of the out-of-core reader must stay roughly flat as the
   corpus grows, while the in-RAM reader's grows with corpus size;
3. the hierarchical query results must be exactly equal across
   backends (same hits, same scores).

Sustained hierarchical QPS is reported for both backends.  The machine
readable summary lands in ``benchmarks/results/BENCH_storage.json`` and
the rendered table in ``benchmarks/results/storage.txt``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from benchmarks.conftest import RESULTS_DIR, save_result
from repro.evaluation.report import render_table
from repro.storage import build_synthetic_database, save_database
from repro.storage.migrate import legacy_json_payload

#: Required cold-start advantage of the SQL catalog (ISSUE criterion).
MIN_COLD_SPEEDUP = 10.0

#: Corpus sizes (videos) used for the RSS-vs-size comparison.
SMALL, LARGE = 200, 600

_RUNNER = """\
import json, resource, sys, time
from pathlib import Path

import numpy as np


def peak_rss_kb():
    # ru_maxrss inherits the parent's fork-time watermark on Linux,
    # which would charge the benchmark harness's corpus build to this
    # process; VmHWM is reset on exec and measures only our own peak.
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

from repro.storage import SQLVideoDatabase
from repro.storage.migrate import load_legacy_json

backend, db_dir, probes_path, out_path = sys.argv[1:5]
probes = np.load(probes_path)

# Cold start: persisted corpus -> first answered query, in a process
# that has never touched the files (imports are backend-independent
# and excluded, so the ratio measures storage, not the interpreter).
start = time.perf_counter()
if backend == "sqlite":
    database = SQLVideoDatabase.open(db_dir)
else:
    database = load_legacy_json(Path(db_dir) / "database.json")
database.search(probes[0], k=5)  # first answer: builds the index tree
cold_seconds = time.perf_counter() - start

start = time.perf_counter()
queries = 0
for _ in range(3):
    for probe in probes:
        database.search(probe, k=5)
        queries += 1
qps = queries / (time.perf_counter() - start)

hits = [
    [
        [h.entry.video_title, h.entry.shot_id, h.score]
        for h in database.search(probe, k=5).hits
    ]
    for probe in probes
]
payload = {
    "cold_seconds": cold_seconds,
    "qps": qps,
    "rss_kb": peak_rss_kb(),
    "hits": hits,
}
with open(out_path, "w") as handle:
    json.dump(payload, handle)
"""


def _measure(runner: Path, backend: str, db_dir: Path, probes: Path) -> dict:
    """One cold-started backend run in its own interpreter."""
    out = db_dir / f"measure-{backend}.json"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    subprocess.run(
        [sys.executable, str(runner), backend, str(db_dir), str(probes), str(out)],
        env=env,
        check=True,
        timeout=600,
    )
    return json.loads(out.read_text())


def _prepare(tmp: Path, videos: int) -> tuple[Path, Path]:
    """Persist one synthetic corpus via both backends; returns (dir, probes)."""
    db_dir = tmp / f"corpus-{videos}"
    db_dir.mkdir()
    database = build_synthetic_database(videos=videos, shots_per_video=12, seed=0)
    (db_dir / "database.json").write_text(json.dumps(legacy_json_payload(database)))
    save_database(database, db_dir)
    entries = database.flat_index.entries
    picks = np.linspace(0, len(entries) - 1, 8).astype(int)
    probes = np.stack([entries[i].features for i in picks])
    probes_path = db_dir / "probes.npy"
    np.save(probes_path, probes)
    return db_dir, probes_path


def test_storage_backends(tmp_path, results_dir):
    runner = tmp_path / "runner.py"
    runner.write_text(_RUNNER)

    measures: dict[int, dict[str, dict]] = {}
    for videos in (SMALL, LARGE):
        db_dir, probes = _prepare(tmp_path, videos)
        measures[videos] = {
            backend: _measure(runner, backend, db_dir, probes)
            for backend in ("json", "sqlite")
        }

    # 1. Cold start: SQL catalog must be >= MIN_COLD_SPEEDUP faster.
    large = measures[LARGE]
    speedup = large["json"]["cold_seconds"] / max(
        large["sqlite"]["cold_seconds"], 1e-9
    )
    assert speedup >= MIN_COLD_SPEEDUP

    # 2. Query results exactly equal across backends, both sizes.
    for videos, pair in measures.items():
        assert pair["json"]["hits"] == pair["sqlite"]["hits"], videos

    # 3. RSS: the out-of-core reader grows far less with corpus size.
    sql_growth = measures[LARGE]["sqlite"]["rss_kb"] - measures[SMALL]["sqlite"]["rss_kb"]
    json_growth = measures[LARGE]["json"]["rss_kb"] - measures[SMALL]["json"]["rss_kb"]
    assert measures[LARGE]["sqlite"]["rss_kb"] < measures[LARGE]["json"]["rss_kb"]
    assert sql_growth * 2 < json_growth

    rows = [
        [
            videos,
            backend,
            f"{m['cold_seconds'] * 1e3:.1f}",
            f"{m['rss_kb'] / 1024:.0f}",
            f"{m['qps']:.0f}",
        ]
        for videos, pair in sorted(measures.items())
        for backend, m in pair.items()
    ]
    text = render_table(
        ["videos", "backend", "cold start ms", "peak RSS MiB", "hier QPS"],
        rows,
        title=f"Storage backends (SQL cold start {speedup:.0f}x faster)",
    )
    save_result(results_dir, "storage", text)
    (RESULTS_DIR / "BENCH_storage.json").write_text(
        json.dumps(
            {
                "min_cold_speedup": MIN_COLD_SPEEDUP,
                "cold_speedup": speedup,
                "results_equal": True,
                "sizes": {
                    str(videos): {
                        backend: {
                            key: m[key] for key in ("cold_seconds", "qps", "rss_kb")
                        }
                        for backend, m in pair.items()
                    }
                    for videos, pair in measures.items()
                },
            },
            indent=2,
        )
        + "\n"
    )
