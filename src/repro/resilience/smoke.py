"""Chaos smoke: the seeded fault matrix (``make chaos-smoke``).

Drives the whole runtime — ingest, artifact store, mining pipeline,
snapshot rebuilds, query serving — under an armed
:class:`~repro.resilience.faults.FaultPlan` and checks the resilience
contracts hold:

1. a transient mining fault is absorbed by the retry policy;
2. an injected artifact corruption is caught by checksum verification,
   quarantined, and transparently re-mined by the next ingest run;
3. an audio-stage failure degrades the mined result (flags survive the
   store and the catalog; query answers carry ``degraded=True``)
   instead of failing the ingest;
4. snapshot rebuild failures surface as typed errors, trip the circuit
   breaker, and never stop the server answering from the last good
   generation — and the breaker recovers through half-open;
5. injected query faults produce typed errors without killing worker
   threads;
6. a transiently locked SQL catalog is absorbed by the storage retry
   budget; a persistently locked one surfaces as a typed
   :class:`~repro.errors.StorageError` and a clean reopen recovers;
7. an injected mmap read fault surfaces typed and the next read
   recovers; a genuinely truncated feature block is caught by
   content-digest verification;
8. a missing ANN code block (``storage.ann_block_missing``) degrades
   the approximate tier to the exact leaf scan — same hits, with the
   ``degraded`` flag raised — and recovers once the fault clears.

Throughout, nothing but :class:`~repro.errors.ReproError` subclasses
may escape a public API — any other exception fails the smoke run.
Everything is seeded, so a failure reproduces exactly.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import time
import warnings
from pathlib import Path

from repro.errors import DegradedResultWarning, ReproError
from repro.ingest.runner import ingest_corpus, load_database, store_for
from repro.resilience.breaker import BreakerState, CircuitBreaker
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.resilience.retry import RetryPolicy
from repro.serving.server import QueryRequest, QueryServer, ServerConfig
from repro.serving.snapshot import SnapshotManager

#: Fast, deterministic retries for the smoke's serial ingest runs.
_FAST = RetryPolicy(retries=2, backoff=0.01, backoff_factor=1.0, jitter=False)


def _report(name: str, ok: bool, detail: str) -> bool:
    print(f"chaos-smoke: [{'ok ' if ok else 'FAIL'}] {name} — {detail}")
    return ok


def _transient_mine_fault(db_dir: Path, seed: int) -> bool:
    """A one-shot ingest.mine error must be absorbed by a retry."""
    plan = FaultPlan([FaultSpec(point="ingest.mine", kind="error", limit=1)], seed=seed)
    with inject(plan):
        report = ingest_corpus(["demo"], db_dir, policy=_FAST)
    mined = report.mined
    ok = (
        report.ok
        and plan.fired("ingest.mine", "error") == 1
        and len(mined) == 1
        and mined[0].attempts == 2
    )
    return _report(
        "transient-mine-fault",
        ok,
        f"1 fault fired, job succeeded on attempt "
        f"{mined[0].attempts if mined else '?'}",
    )


def _corruption_quarantine(db_dir: Path, seed: int) -> bool:
    """A corrupted artifact is quarantined and re-mined next ingest."""
    plan = FaultPlan(
        [FaultSpec(point="ingest.artifact.write", kind="corruption", limit=1)],
        seed=seed,
    )
    with inject(plan):
        # The corrupt artifact fails verification during this run's own
        # rebuild: it is quarantined and simply not registered.
        first = ingest_corpus(["demo"], db_dir, policy=_FAST)
    store = store_for(db_dir)
    quarantined = store.quarantined()
    second = ingest_corpus(["demo"], db_dir, policy=_FAST)
    remined = [o for o in second.outcomes if o.state == "done"]
    ok = (
        plan.fired("ingest.artifact.write", "corruption") == 1
        and first.ok  # the mine itself succeeded; corruption hit the disk
        and not first.registered  # ...but the corrupt artifact cannot register
        and len(quarantined) == 1
        and len(remined) == 1  # not a cache hit: the store re-mined it
        and second.registered
        and store.has(remined[0].key)
    )
    return _report(
        "corruption-quarantine-remine",
        ok,
        f"{len(quarantined)} quarantined, re-mined and registered "
        f"{second.registered}",
    )


def _degraded_mining(db_dir: Path, seed: int) -> bool:
    """An audio-stage failure degrades the result instead of raising."""
    plan = FaultPlan([FaultSpec(point="mine.audio", kind="error")], seed=seed)
    with inject(plan), warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedResultWarning)
        report = ingest_corpus(["demo"], db_dir, policy=_FAST)
    database = load_database(db_dir)
    record = next(iter(database.videos.values()))
    with QueryServer(database, ServerConfig(workers=2)) as server:
        snapshot = server.manager.current()
        features = snapshot.flat.entries[0].features
        answer = server.query(QueryRequest(kind="shot", features=features, k=3))
    ok = (
        report.ok
        and "audio" in record.degraded_stages
        and snapshot.degraded_videos == (record.title,)
        and answer.degraded
        and bool(answer.hits)
    )
    return _report(
        "degraded-mining-roundtrip",
        ok,
        f"stages {record.degraded_stages} survived store+catalog, "
        f"query answered degraded={answer.degraded}",
    )


def _rebuild_breaker(db_dir: Path, seed: int) -> bool:
    """Rebuild faults: typed errors, stale-but-serving, breaker recovery."""
    database = load_database(db_dir)
    breaker = CircuitBreaker(
        name="snapshot-rebuild", failure_threshold=2, reset_timeout=0.2
    )
    manager = SnapshotManager(database, breaker=breaker)
    with QueryServer(manager=manager, config=ServerConfig(workers=2)) as server:
        features = server.manager.current().flat.entries[0].features
        request = QueryRequest(kind="shot", features=features, k=3)
        baseline = server.query(request)

        plan = FaultPlan([FaultSpec(point="serve.rebuild", kind="error")], seed=seed)
        errors: list[str] = []
        with inject(plan):
            for _ in range(3):
                try:
                    server.refresh()
                except ReproError as exc:
                    errors.append(type(exc).__name__)
            during = server.query(request)

        stale_served = (
            during.generation == baseline.generation
            and during.degraded
            and bool(during.hits)
        )
        tripped = breaker.trips >= 1 and errors == [
            "FaultInjectedError",
            "FaultInjectedError",
            "CircuitOpenError",
        ]

        time.sleep(0.25)  # let the breaker reach half-open
        recovered = server.refresh()  # the probe; no plan armed, so it heals
        after = server.query(request)
        healed = (
            breaker.state is BreakerState.CLOSED
            and recovered.generation > baseline.generation
            and after.generation == recovered.generation
            and not after.degraded
        )
    ok = stale_served and tripped and healed
    return _report(
        "rebuild-breaker",
        ok,
        f"errors {errors}, served generation {during.generation} while open, "
        f"healed to generation {after.generation}",
    )


def _query_fault_survival(db_dir: Path, seed: int) -> bool:
    """Injected query faults give typed errors; workers stay alive."""
    database = load_database(db_dir)
    config = ServerConfig(workers=2, watchdog_interval=0.05)
    with QueryServer(database, config) as server:
        features = server.manager.current().flat.entries[0].features
        request = QueryRequest(kind="shot", features=features, k=3)
        plan = FaultPlan(
            [
                FaultSpec(point="serve.query", kind="error", limit=4),
                FaultSpec(point="serve.query", kind="latency", delay=0.005, limit=2),
            ],
            seed=seed,
        )
        typed = 0
        with inject(plan):
            for _ in range(4):
                try:
                    server.query(request)
                except ReproError:
                    typed += 1
        clean = server.query(request)
        alive = server.alive_workers
    ok = (
        typed == 4
        and plan.fired("serve.query", "latency") == 2
        and bool(clean.hits)
        and alive == config.workers
    )
    return _report(
        "query-fault-survival",
        ok,
        f"{typed}/4 typed errors, {alive}/{config.workers} workers alive, "
        f"clean query answered",
    )


def _storage_db_locked(db_dir: Path, seed: int) -> bool:
    """Locked-catalog faults: retried while transient, typed when not."""
    from repro.errors import StorageError
    from repro.storage import SQLCatalog

    plan = FaultPlan(
        [FaultSpec(point="storage.db_locked", kind="error", limit=1)], seed=seed
    )
    with inject(plan), SQLCatalog(db_dir) as catalog:
        videos = catalog.videos()
    absorbed = bool(videos) and plan.fired("storage.db_locked", "error") == 1

    persistent = FaultPlan(
        [FaultSpec(point="storage.db_locked", kind="error")], seed=seed
    )
    typed = False
    with inject(persistent), SQLCatalog(db_dir) as catalog:
        try:
            catalog.videos()
        except StorageError:
            typed = True

    with SQLCatalog(db_dir) as catalog:
        recovered = catalog.videos().keys() == videos.keys()
    ok = absorbed and typed and recovered
    return _report(
        "storage-db-locked",
        ok,
        f"transient lock absorbed by retry, persistent lock -> "
        f"StorageError, clean reopen answered {len(videos)} videos",
    )


def _storage_mmap_truncated(db_dir: Path, seed: int) -> bool:
    """Feature-block read faults stay typed; truncation is caught."""
    from repro.errors import IntegrityError
    from repro.storage import SQLVideoDatabase

    database = SQLVideoDatabase.open(db_dir)
    probe = database.flat_index.entries_at([0])[0].features
    plan = FaultPlan(
        [FaultSpec(point="storage.mmap_truncated", kind="error")], seed=seed
    )
    typed = False
    with inject(plan):
        try:
            # The scan maps the blocks of leaves nothing has touched yet.
            database.search_flat(probe, k=3)
        except ReproError:
            typed = True
    after = database.search_flat(probe, k=3)  # disarmed: recovers
    database.close()

    # A genuinely truncated block must fail digest verification.
    store = database.catalog.features
    sha = store.list_blocks()[0]
    path = store.path_for(sha)
    payload = path.read_bytes()
    path.write_bytes(payload[: len(payload) // 2])
    caught = False
    try:
        store.verify(sha)
    except IntegrityError:
        caught = True
    finally:
        path.write_bytes(payload)
    ok = typed and bool(after.hits) and caught
    return _report(
        "storage-mmap-truncated",
        ok,
        f"injected read fault typed, clean retry answered "
        f"{len(after.hits)} hits, truncated block failed verification",
    )


def _storage_ann_block_missing(db_dir: Path, seed: int) -> bool:
    """A missing ANN block degrades to the exact scan, then recovers."""
    from repro.database.query import search_hierarchical
    from repro.storage import SQLVideoDatabase

    def shot_keys(result):
        return [
            (h.entry.video_title, h.entry.shot_id, h.score)
            for h in result.hits
        ]

    database = SQLVideoDatabase.open(db_dir)
    try:
        probe = database.flat_index.entries[0].features
        exact = search_hierarchical(database.index_root, probe, k=3)
        plan = FaultPlan(
            [FaultSpec(point="storage.ann_block_missing", kind="error")],
            seed=seed,
        )
        with inject(plan):
            degraded = search_hierarchical(
                database.index_root, probe, k=3, nprobe=1_000_000
            )
        recovered = search_hierarchical(
            database.index_root, probe, k=3, nprobe=1_000_000
        )
    finally:
        database.close()
    ok = (
        degraded.stats.ann_degraded
        and shot_keys(degraded) == shot_keys(exact)
        and not recovered.stats.ann_degraded
        and shot_keys(recovered) == shot_keys(exact)
    )
    return _report(
        "storage-ann-block-missing",
        ok,
        f"degraded scan matched exact ({len(degraded.hits)} hits), "
        f"recovered clean once the fault cleared",
    )


def run_smoke(seed: int = 0) -> int:
    """Run the seeded fault matrix; returns a process exit code."""
    root = Path(tempfile.mkdtemp(prefix="chaos-smoke-"))
    checks = (
        ("transient", _transient_mine_fault, root / "transient"),
        ("corruption", _corruption_quarantine, root / "corruption"),
        ("degraded", _degraded_mining, root / "degraded"),
        ("rebuild", _rebuild_breaker, root / "transient"),
        ("query", _query_fault_survival, root / "transient"),
        ("storage-locked", _storage_db_locked, root / "transient"),
        ("storage-truncated", _storage_mmap_truncated, root / "transient"),
        ("storage-ann", _storage_ann_block_missing, root / "transient"),
    )
    failures = 0
    try:
        for _name, check, db_dir in checks:
            try:
                if not check(db_dir, seed):
                    failures += 1
            except ReproError as exc:
                print(
                    f"chaos-smoke: [FAIL] {_name} — unhandled (but typed) "
                    f"{type(exc).__name__}: {exc}",
                    file=sys.stderr,
                )
                failures += 1
            except Exception as exc:  # the one thing that must never happen
                print(
                    f"chaos-smoke: [FAIL] {_name} — UNTYPED "
                    f"{type(exc).__name__} escaped a public API: {exc}",
                    file=sys.stderr,
                )
                failures += 1
    finally:
        shutil.rmtree(root, ignore_errors=True)
    if failures:
        print(f"chaos-smoke: FAIL ({failures} checks)", file=sys.stderr)
        return 1
    print(f"chaos-smoke: OK ({len(checks)} checks, seed={seed})")
    return 0


if __name__ == "__main__":
    sys.exit(run_smoke())
