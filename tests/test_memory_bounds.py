"""Resident memory of a built snapshot, as a multiple of the raw feature bytes.

An in-RAM server used to hold every 266-d vector four times (the entry,
one stacked block per hash bucket, one all-entries block per leaf, the
flat matrix) and every flat scan left an un-chunked ``(N, 256)``
temporary in its worker thread's malloc arena.  Now a snapshot adds the
leaves' 64-d reduced blocks and their hash state (the flat index is a
view of the leaves), and no scan allocates more than one chunk.  Both are measured in a fresh interpreter — the
ndarray bytes a snapshot pins beyond the database it was built from
(tracemalloc, NumPy's domain), and the peak-RSS growth of building it and
serving shot / shot_flat / scene queries from two threads — with bounds
the commit before the array-native leaves fails (measured there: 3.5 x
and 5.7 x the raw feature bytes; 0.51 x and 0.89-1.0 x while a snapshot
built its scene table eagerly and the routing derive made leaf-sized
temporaries; now 0.28 x and 0.66-0.76 x).

A cold start keeps what it builds and nothing more: building a snapshot,
training every leaf's ANN tier and answering a first shot query peak
(tracemalloc, every domain) within one MiB of what they leave behind —
every derive-time temporary is at most a scratch chunk, whatever the leaf
size (the gap was 6.9 MB at 3,000-row leaves while the routing derive
allocated ``(n, 266)`` differences).  A registered corpus builds its
scene table on the first scene search, from the leaves and records its
snapshot was taken over.

An opened store has a third: open a saved catalog and serve shot and
scene probes from two threads.  ``VmHWM`` may grow by the reduced blocks,
the scene centroids and the row columns, not by the corpus, and
``/proc/self/smaps`` must show the 266-d leaf blocks mapped but not
resident — and still not resident after a flat scan has read every one
of them, because the scan gives the pages back as it moves on
(they were all resident while it did not).  The same script over an
embedded two-worker fleet — the probes go through ``ShardedQueryService``
as ``probe`` / ``scene`` / ``flat`` ops — must read the same: a
shard answer carries identities and scores, so a worker reads no 266-d
row but for its flat scan, which gives them back too.

A save keeps what it writes and nothing more: ``save_database`` on a
never-served corpus peaks (tracemalloc) within one MiB of what it leaves
behind, because each leaf's reduced rows and the scene centroids stream a
scratch chunk at a time into their block files (the gap was 6.8 MB at
12k shots, 2.7 MB at 4,800, while the save derived both whole in RAM,
then hashed, wrote and swapped them for maps; it reads ~0.5 MB now).

A refreshing reader holds one generation, not two: a superseded
generation's blocks leave ``/proc/self/smaps`` as the last query on it
returns, with the cycle collector off (they stayed mapped and resident
until the next swap while the manager retired a generation one publish
late).

The write path has its own bound: one ingest worker's job — render a
corpus title, mine it, save the artifact — in a fresh interpreter, by
``VmHWM``.  It was 157 MiB while ``scipy.signal`` rode along for two
filter calls, ~91 MiB on numpy alone with the video held as a frame
list, ~67 MiB once mining read the frames as a stream, and is ~53 MiB
now that the soundtrack is rendered a shot's window at a time and a
mined shot keeps its clip's window, not its samples.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Snapshot-held ndarray bytes / raw feature bytes: the reduced leaf blocks
#: (64/266 = 0.24), row signatures, hash buckets and routing centres —
#: measured 0.28 — plus 0.05 (1.3 MB) of margin.  No scene table: the
#: snapshot builds none until a scene search (0.25 at four shots a scene).
HELD_BOUND = 0.33
#: Peak-RSS growth / raw feature bytes over build + two serving threads: the
#: above, the scene table, Python objects, allocator slack and one scan chunk
#: a thread — measured 0.66-0.76 — plus 0.15 (3.8 MB) for allocator and
#: thread-stack noise between runs.
GROWN_BOUND = 0.9

_SCRIPT = r"""
import json, re, sys, threading, tracemalloc
import numpy as np
from repro.serving import build_snapshot
from repro.storage import build_synthetic_database

TRACE = sys.argv[1] == "held"


def hwm_bytes():
    status = open("/proc/self/status").read()
    return 1024 * int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1))


def array_bytes():
    # NumPy reports its data buffers to tracemalloc under its own domain.
    numpy_only = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
    traced = tracemalloc.take_snapshot().filter_traces([numpy_only])
    return sum(trace.size for trace in traced.traces)


database = build_synthetic_database(videos=1000, shots_per_video=12, seed=5)
raw = len(database.flat_index) * 266 * 8
probes = np.stack([e.features for e in database.flat_index.entries[::97]])
probes = np.roll(probes, 3, axis=1)  # novel: not a stored row
if TRACE:
    tracemalloc.start()
    before = array_bytes()
else:
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")  # reset VmHWM to the current RSS
    before = hwm_bytes()

snapshot = build_snapshot(database, 1)
if TRACE:
    print(json.dumps({"raw": raw, "held": array_bytes() - before}))
    sys.exit(0)


def serve():
    for probe in probes:
        assert snapshot.search(probe, k=10).hits
        assert snapshot.search_flat(probe, k=10).hits
        assert snapshot.search_scenes(probe, k=10)


threads = [threading.Thread(target=serve) for _ in range(2)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(120)
assert not any(thread.is_alive() for thread in threads)
print(json.dumps({"raw": raw, "grown": hwm_bytes() - before}))
"""


def _measure(*args: str, script: str = _SCRIPT) -> dict:
    """Run ``script`` in a fresh interpreter; its last output line is the figures."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_snapshot_holds_little_more_than_one_matrix():
    """ndarray bytes alive after ``build_snapshot`` that were not before."""
    figures = _measure("held")
    assert figures["held"] <= HELD_BOUND * figures["raw"], figures


def test_building_and_serving_grow_rss_by_a_bounded_multiple():
    """``VmHWM`` growth over build + shot / shot_flat / scene queries, 2 threads."""
    figures = _measure("grown")
    assert figures["grown"] <= GROWN_BOUND * figures["raw"], figures


#: Peak over retained bytes of a cold start: measured 0.58 MB (6.9 MB while
#: the routing derive made ``(n, 266)`` temporaries at 3,000-row leaves).
TRANSIENT_BOUND = 1 << 20

_COLD_START_SCRIPT = r"""
import json, tracemalloc
import numpy as np
from repro.serving import build_snapshot
from repro.serving.snapshot import warm_ann_indexes
from repro.storage import build_synthetic_database

database = build_synthetic_database(videos=1000, shots_per_video=12, seed=5)
probe = np.roll(database.flat_index.entries_at([97])[0].features, 3)  # novel
tracemalloc.start()
snapshot = build_snapshot(database, 1)
warm_ann_indexes(snapshot)
assert snapshot.search(probe, k=10).hits
retained, peak = tracemalloc.get_traced_memory()
print(json.dumps({"retained": retained, "peak": peak}))
"""


def test_a_cold_start_peaks_within_a_chunk_of_what_it_keeps():
    """Snapshot + every leaf's ANN tier + a first shot query on the 12k corpus:
    no derive-time temporary the size of a leaf."""
    figures = _measure(script=_COLD_START_SCRIPT)
    assert figures["peak"] - figures["retained"] <= TRANSIENT_BOUND, figures


def _scene_hits(hits) -> list:
    return [(h.entry.video_title, h.entry.scene_id, h.entry.event, h.score.hex()) for h in hits]


def test_a_registered_snapshot_builds_its_scene_table_on_the_first_scene_search():
    """No centroid matrix until a scene search reads it; then the same answers
    as an eagerly built table — also for a snapshot taken before 20 more
    videos were registered."""
    from repro.database.scene_search import SceneIndex, corpus_scenes
    from repro.serving import build_snapshot
    from repro.storage import build_synthetic_database
    from repro.types import EventKind

    def eager(database) -> SceneIndex:
        table = corpus_scenes(database.leaves.values(), database.videos)
        index = SceneIndex(lambda: table, len(table.titles))
        assert index.table is table
        return index

    database = build_synthetic_database(videos=40, shots_per_video=12, seed=7)
    before = build_snapshot(database, 1)
    assert "table" not in vars(before.scenes)  # nothing built...
    assert len(before.scenes) == len(eager(database))  # ...and yet counted
    rng = np.random.default_rng(11)
    for v in range(20):
        database.register_entries(
            f"later_{v:02d}", [(0, EventKind.DIALOG, list(rng.random((4, 266))))]
        )
    after = build_snapshot(database, 2)
    assert "table" not in vars(before.scenes) and "table" not in vars(after.scenes)
    probes = rng.random((6, 266))
    for snapshot, reference in (
        (before, eager(build_synthetic_database(videos=40, shots_per_video=12, seed=7))),
        (after, eager(database)),
    ):
        assert len(snapshot.scenes) == len(reference)
        for probe in probes:
            for event in (None, EventKind.DIALOG):
                assert _scene_hits(snapshot.search_scenes(probe, k=10, event=event)) == (
                    _scene_hits(reference.search(probe, k=10, event=event))
                )
        table = vars(snapshot.scenes)["table"]
        assert np.array_equal(table.centroids, reference.table.centroids)
        assert table.titles.tolist() == reference.table.titles.tolist()


#: An opened store serving non-flat traffic: ``VmHWM`` growth / raw feature
#: bytes.  What the queries score is resident — the reduced blocks
#: (64/266 = 0.24), the scene centroids (0.25 at four shots a scene), the
#: row columns and signatures, the records — and the 266-d rows are not:
#: measured 0.87 (1.86 while a leaf's first touch read every row to derive
#: what is now stored).
STORED_GROWN_BOUND = 1.0

_STORED_SCRIPT = r"""
import json, re, sys, threading
import numpy as np
from repro.storage import SQLVideoDatabase

db_dir, mode = sys.argv[1:3]
probes = np.load(db_dir + "/probes.npy")


def hwm_bytes():
    status = open("/proc/self/status").read()
    return 1024 * int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1))


def resident(shas):
    # (mapped, resident) bytes of the feature-store files named by ``shas``.
    size = rss = 0
    ours = False
    for line in open("/proc/self/smaps"):
        head = line.split()
        if "-" in head[0] and not head[0].endswith(":"):
            ours = len(head) > 5 and head[5].rsplit("/", 1)[-1].removesuffix(".npy") in shas
        elif ours and head[0] == "Size:":
            size += 1024 * int(head[1])
        elif ours and head[0] == "Rss:":
            rss += 1024 * int(head[1])
    return size, rss


with open("/proc/self/clear_refs", "w") as handle:
    handle.write("5")  # reset VmHWM to the current RSS
before = hwm_bytes()
if mode == "store":
    database = SQLVideoDatabase.open(db_dir)
    stores = [database]
    shot = lambda probe: database.search(probe, k=10).hits
    scene = lambda probe: database.scene_index.search(probe, k=10)
    flat = lambda probe: database.search_flat(probe, k=10).hits
else:  # the same store behind two embedded shard workers, each serving its leaves
    from repro.net.coordinator import ShardedQueryService
    from repro.net.protocol import ShardEndpoint
    from repro.net.shard import load_manifest
    from repro.net.worker import ShardWorker
    from repro.obs.registry import MetricsRegistry
    from repro.serving.engine import QueryRequest

    spec = load_manifest(db_dir)
    workers = [
        ShardWorker(spec.shard_dir(db_dir, shard_id), registry=MetricsRegistry()).start()
        for shard_id in range(spec.num_shards)
    ]
    service = ShardedQueryService(
        spec,
        [ShardEndpoint(w.shard_id, "127.0.0.1", w.port) for w in workers],
    )
    stores = [worker._state.database for worker in workers]

    def ask(kind):
        return lambda probe: service.query(QueryRequest(kind, probe, k=10)).hits

    shot, flat, scene = ask("shot"), ask("shot_flat"), ask("scene")
infos = [info for store in stores for info in store.catalog.leaf_infos()]
blocks = {info.block.sha for info in infos}
reduced = {info.reduced_sha for info in infos}


def serve():
    for probe in probes:
        assert shot(probe)
        assert scene(probe)


threads = [threading.Thread(target=serve) for _ in range(2)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(120)
assert not any(thread.is_alive() for thread in threads)
figures = {  # the workers open one catalog: each leaf counts once
    "raw": sum({info.name: info.entry_count for info in infos}.values()) * 266 * 8,
    "grown": hwm_bytes() - before,
    "blocks": resident(blocks),
    "reduced": resident(reduced),
}
assert flat(probes[0])
figures["blocks_after_flat"] = resident(blocks)
if mode == "fleet":
    figures["ops"] = {
        op: sum(worker._op_requests.labels(op=op).value for worker in workers)
        for op in ("probe", "scene", "flat")
    }
print(json.dumps(figures))
"""


def _stored_probes(database) -> np.ndarray:
    """Every 97th stored row, then the same rows rolled into novel probes."""
    stored = np.stack([e.features for e in database.flat_index.entries_at(range(0, 12_000, 97))])
    return np.concatenate([stored, np.roll(stored, 3, axis=1)])


def _assert_266d_rows_stayed_on_disk(figures: dict) -> None:
    mapped, in_ram = figures["blocks"]
    assert mapped >= figures["raw"], figures  # every 266-d leaf block is mapped...
    assert in_ram < 0.10 * mapped, figures  # ...and stayed on disk,
    mapped, in_ram = figures["reduced"]
    assert in_ram > 0.90 * mapped > 0, figures  # while what a scan reads is resident.
    mapped, in_ram = figures["blocks_after_flat"]
    # A flat scan read every row and gave the pages back (> 90 %
    # stayed resident while it kept what it read).
    assert in_ram <= 1 << 20, figures


def test_an_opened_store_keeps_the_rows_it_never_scores_on_disk(tmp_path):
    """Stored + novel shot and scene probes, 2 threads, then one flat scan:
    ``VmHWM`` growth, and which feature-store mappings ``/proc/self/smaps``
    shows resident."""
    from repro.storage import build_synthetic_database, save_database

    database = build_synthetic_database(videos=1000, shots_per_video=12, seed=5)
    np.save(tmp_path / "probes.npy", _stored_probes(database))
    save_database(database, tmp_path)
    del database
    figures = _measure(str(tmp_path), "store", script=_STORED_SCRIPT)
    assert figures["grown"] <= STORED_GROWN_BOUND * figures["raw"], figures
    _assert_266d_rows_stayed_on_disk(figures)


def test_a_shard_worker_keeps_the_rows_it_never_scores_on_disk(tmp_path):
    """The same probes through two embedded workers over one catalog:
    ``probe`` / ``scene`` answers ship no row, so none is read (100 %
    resident while the local top-k's 266-d rows were packed into every
    answer), and the ``flat`` op's scan gives back what it read."""
    from repro.net.shard import build_shards
    from repro.storage import build_synthetic_database

    database = build_synthetic_database(videos=1000, shots_per_video=12, seed=5)
    np.save(tmp_path / "probes.npy", _stored_probes(database))
    build_shards(database, tmp_path, 2)
    del database
    figures = _measure(str(tmp_path), "fleet", script=_STORED_SCRIPT)
    ops = figures["ops"]
    assert ops["probe"] and ops["scene"] and ops["flat"], figures
    _assert_266d_rows_stayed_on_disk(figures)


_REFRESH_SCRIPT = r"""
import gc, json, sys, threading, time
from pathlib import Path
import numpy as np
from repro.serving import QueryServer, SnapshotManager
from repro.serving.engine import QueryRequest
from repro.storage import SQLVideoDatabase, build_synthetic_database, save_database

gc.disable()  # a superseded generation must go by reference count alone
root = Path(sys.argv[1])
dirs = [root / f"generation-{n}" for n in range(4)]


def publish(n):
    database = build_synthetic_database(videos=40 + 10 * n, shots_per_video=8, seed=n)
    save_database(database, dirs[n])
    return database


probes = [e.features for e in publish(0).flat_index.entries[::7]]
published = [0]
manager = SnapshotManager(
    SQLVideoDatabase.open(dirs[0]), reopen=lambda: SQLVideoDatabase.open(dirs[published[-1]])
)
server = QueryServer(manager=manager).start()
manager.current()  # generation 1, over dirs[0]
answered = [0]  # generation of the reader's last answer
stop = threading.Event()


def read():
    turn = 0
    while not stop.is_set():
        kind = ("shot", "scene", "shot_flat")[turn % 3]
        probe = np.roll(probes[turn % len(probes)], turn // len(probes))  # mostly novel
        answered[0] = server.query(QueryRequest(kind, probe, k=5)).generation
        turn += 1


def resident(directory):
    # (mapped, resident) bytes of the feature-block files under ``directory``.
    size = rss = 0
    ours = False
    prefix = str(directory / "features") + "/"
    for line in open("/proc/self/smaps"):
        head = line.split()
        if "-" in head[0] and not head[0].endswith(":"):
            ours = len(head) > 5 and head[5].startswith(prefix)
        elif ours and head[0] == "Size:":
            size += 1024 * int(head[1])
        elif ours and head[0] == "Rss:":
            rss += 1024 * int(head[1])
    return size, rss


reader = threading.Thread(target=read)
reader.start()
for n in range(1, 4):
    while answered[0] < manager.generation and reader.is_alive():  # it reads the live one
        time.sleep(0.01)
    publish(n)
    published.append(n)
    server.refresh()
deadline = time.monotonic() + 60
while answered[0] < manager.generation and time.monotonic() < deadline:
    time.sleep(0.01)  # ...and has moved on from the last superseded one
figures = {"generation": answered[0], "dirs": [resident(d) for d in dirs]}
stop.set()
reader.join(60)
server.stop()
print(json.dumps(figures))
"""


def test_a_superseded_generation_leaves_nothing_resident_once_readers_move_on(tmp_path):
    """A reader thread beside three publishes, each into a fresh directory
    followed by ``refresh()``: once the reader answers from the newest
    generation, ``/proc/self/smaps`` shows no resident byte of any older
    generation's block files (the previous one stayed open, mapped and
    resident, while a swap retired it only at the next swap)."""
    figures = _measure(str(tmp_path), script=_REFRESH_SCRIPT)
    assert figures["generation"] == 4, figures
    *superseded, (_, live) = figures["dirs"]
    assert live > 0, figures  # the measurement sees what the live one reads
    assert [rss for _, rss in superseded] == [0, 0, 0], figures


_SAVE_SCRIPT = r"""
import json, sys, tracemalloc
from pathlib import Path
import numpy as np
from repro.storage import SQLCatalog, build_synthetic_database, save_database

db_dir = Path(sys.argv[1])


def array_bytes():
    numpy_only = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
    traced = tracemalloc.take_snapshot().filter_traces([numpy_only])
    return sum(trace.size for trace in traced.traces)


def resident(shas):
    # (mapped, resident) bytes of the block files under ``db_dir`` named by ``shas``.
    size = rss = 0
    ours = False
    prefix = str(db_dir / "features") + "/"
    for line in open("/proc/self/smaps"):
        head = line.split()
        if "-" in head[0] and not head[0].endswith(":"):
            ours = (
                len(head) > 5 and head[5].startswith(prefix)
                and head[5].rsplit("/", 1)[-1].removesuffix(".npy") in shas
            )
        elif ours and head[0] == "Size:":
            size += 1024 * int(head[1])
        elif ours and head[0] == "Rss:":
            rss += 1024 * int(head[1])
    return size, rss


database = build_synthetic_database(videos=1000, shots_per_video=12, seed=5)
tracemalloc.start()
derived = sum(leaf.reduced.nbytes for leaf in database.leaves.values())
derived += database.scene_index.table.centroids.nbytes
before = array_bytes()
save_database(database, db_dir)
after = array_bytes()
with SQLCatalog(db_dir) as catalog:
    shas = {info.reduced_sha for info in catalog.leaf_infos()} | {catalog.scene_block()[0]}
print(json.dumps({"derived": derived, "freed": before - after, "blocks": resident(shas)}))
"""


def test_a_save_leaves_its_corpus_on_the_blocks_it_wrote(tmp_path):
    """Derive a 12k corpus's reduced blocks and scene table, then save it: the
    save frees their RAM (numpy's tracemalloc domain), and the writer maps the
    blocks it wrote with nothing resident (they stayed in RAM, unmapped, while
    a save left its derived arrays cached on the corpus)."""
    figures = _measure(str(tmp_path / "db"), script=_SAVE_SCRIPT)
    assert figures["freed"] >= figures["derived"] > 0, figures
    mapped, in_ram = figures["blocks"]
    assert mapped >= figures["derived"] and in_ram == 0, figures


_SAVE_TRANSIENT_SCRIPT = r"""
import json, sys, tracemalloc
from repro.storage import build_synthetic_database, save_database

database = build_synthetic_database(videos=1000, shots_per_video=12, seed=5)
tracemalloc.start()
save_database(database, sys.argv[1])
retained, peak = tracemalloc.get_traced_memory()
print(json.dumps({"retained": retained, "peak": peak}))
"""


def test_a_save_keeps_what_it_writes_and_nothing_more(tmp_path):
    """Save a never-served 12k corpus, whose 1.5 MB reduced blocks and 6.4 MB
    centroid table are each several scratch chunks: the save's peak
    (tracemalloc, every domain) stays within one MiB of what it leaves
    behind — the derived blocks stream into their files and the corpus
    keeps maps of them."""
    figures = _measure(str(tmp_path / "db"), script=_SAVE_TRANSIENT_SCRIPT)
    assert figures["peak"] - figures["retained"] <= TRANSIENT_BOUND, figures


#: ``VmHWM`` of one ingest job on ``face_repair`` (1 365 frames): the
#: interpreter with numpy and the mining stack (~42 MiB), the miner's
#: scratch and one shot's audio — measured 52.7.  The soundtrack is
#: rendered a window at a time and no clip's samples are kept: rendered
#: whole (8.7 MB) with every representative clip kept (7.7 MB) the job
#: peaked at ~67 MiB, and with the frames held too at ~91.
JOB_RSS_BOUND_MIB = 56

_JOB_SCRIPT = r"""
import json, re, sys, tempfile
from repro.ingest import store_for
from repro.ingest.executor import _execute_job
from repro.ingest.jobs import IngestJob

with tempfile.TemporaryDirectory() as root:
    job = IngestJob.for_title("face_repair")
    _execute_job(job, str(store_for(root).root))
    status = open("/proc/self/status").read()
    result = store_for(root).load(job.key)
    events = result.scene_events()
    print(json.dumps({
        "hwm_mib": int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024,
        "scipy": sorted(name for name in sys.modules if name.split(".")[0] == "scipy"),
        "fingerprint": [
            result.structure.shot_count,
            result.structure.scene_count,
            [events[scene].value for scene in sorted(events)],
        ],
    }))
"""


def test_one_ingest_job_stays_small_and_loads_no_scipy():
    """Render + mine + save one corpus title: peak RSS, imports, what was mined."""
    figures = _measure(script=_JOB_SCRIPT)
    assert figures["scipy"] == []
    assert figures["hwm_mib"] <= JOB_RSS_BOUND_MIB, figures
    # The tuple benchmarks/e2e/verify.py freezes for this title at render seed 0.
    assert figures["fingerprint"] == [
        52,
        6,
        ["presentation", "dialog", "presentation",
         "clinical_operation", "presentation", "clinical_operation"],
    ]
