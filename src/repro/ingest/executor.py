"""The ingest worker-pool executor.

Runs ingest jobs across processes via
:class:`concurrent.futures.ProcessPoolExecutor` with a serial fallback
(``workers <= 1``, or when the platform refuses to give us a pool).
Each job:

1. checks the artifact store — a cache hit skips mining entirely;
2. renders and mines the video (inside the worker process);
3. serialises the result into the content-addressed store;
4. reports back, and the parent records the manifest transition.

Failures are retried with exponential backoff up to a bounded attempt
count; exhaustion (and per-job timeouts in pool mode) surface as a
typed :class:`~repro.errors.IngestError`.  Tests inject faults by
monkeypatching :func:`_mine_job`, the single choke point both the
serial and pool paths go through.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from pathlib import Path

from repro.core import ClassMiner
from repro.core.pipeline import ClassMinerResult
from repro.errors import IngestError
from repro.ingest.artifacts import ArtifactStore
from repro.ingest.jobs import IngestJob
from repro.ingest.manifest import JobManifest
from repro.ingest.progress import JobEvent, ProgressCallback
from repro.obs.registry import get_registry
from repro.resilience.faults import fault_point
from repro.resilience.retry import RetryPolicy
from repro.video.synthesis import stream_video


@dataclass
class JobOutcome:
    """Terminal result of one job within a run.

    Attributes
    ----------
    key / title:
        Job identity.
    state:
        ``cached`` (artifact reused), ``done`` (mined this run) or
        ``failed``.
    attempts:
        Attempts consumed (0 for cache hits).
    wall_time:
        Seconds of the successful (or final failed) attempt.
    shots / scenes:
        Mined counts (None for failures).
    artifact_path:
        Where the artifact lives (None for failures).
    error:
        Failure description (empty otherwise).
    """

    key: str
    title: str
    state: str
    attempts: int = 0
    wall_time: float = 0.0
    shots: int | None = None
    scenes: int | None = None
    artifact_path: Path | None = None
    error: str = ""

    @property
    def ok(self) -> bool:
        """True unless the job failed."""
        return self.state in ("cached", "done")


def _mine_job(job: IngestJob) -> ClassMinerResult:
    """Render and mine one job's video (the fault-injection choke point).

    The frames are rendered as the miner reads them, never held whole.
    """
    fault_point("ingest.mine")
    stream = stream_video(job.screenplay, seed=job.seed, with_audio=job.mine_events)
    return ClassMiner(config=job.config).mine(stream, mine_events=job.mine_events)


def _execute_job(job: IngestJob, store_root: str) -> dict:
    """Worker entry: mine ``job`` and persist its artifact.

    Runs inside the pool worker (or inline in serial mode) and returns a
    small picklable summary — the heavy result stays on disk.
    """
    start = time.perf_counter()
    result = _mine_job(job)
    wall = time.perf_counter() - start
    store = ArtifactStore(store_root)
    path = store.save(
        job.key,
        result,
        extra_meta={
            "seed": job.seed,
            "config": job.config.to_dict(),
            "mine_events": job.mine_events,
            "mine_seconds": wall,
            "created": time.time(),
        },
    )
    return {
        "key": job.key,
        "title": job.title,
        "path": str(path),
        "shots": result.structure.shot_count,
        "scenes": result.structure.scene_count,
        "wall": wall,
    }


def _emit(progress: ProgressCallback | None, event: JobEvent) -> None:
    if progress is not None:
        progress(event)


def _cached_outcome(
    job: IngestJob,
    store: ArtifactStore,
    manifest: JobManifest,
    progress: ProgressCallback | None,
) -> JobOutcome:
    """Outcome for a job whose artifact already exists on disk."""
    if manifest.state_of(job.key) != "done":
        manifest.record(job.key, job.title, "done")
    meta = store.read_meta(job.key)
    outcome = JobOutcome(
        key=job.key,
        title=job.title,
        state="cached",
        artifact_path=store.path_for(job.key),
        shots=len(meta.get("shots", [])),
        scenes=len(meta.get("scenes", [])),
    )
    _emit(
        progress,
        JobEvent(
            "cached",
            job.title,
            job.key,
            shots=outcome.shots,
            scenes=outcome.scenes,
        ),
    )
    return outcome


def _finished(
    summary: dict, attempt: int, manifest: JobManifest, progress: ProgressCallback | None
) -> JobOutcome:
    """Journal and announce a mined job; returns its outcome."""
    outcome = JobOutcome(
        key=summary["key"],
        title=summary["title"],
        state="done",
        attempts=attempt,
        wall_time=summary["wall"],
        shots=summary["shots"],
        scenes=summary["scenes"],
        artifact_path=Path(summary["path"]),
    )
    manifest.record(outcome.key, outcome.title, "done", attempt=attempt)
    _emit(
        progress,
        JobEvent(
            "finished", outcome.title, outcome.key, attempt=attempt,
            wall_time=outcome.wall_time, shots=outcome.shots, scenes=outcome.scenes,
        ),
    )
    return outcome


def _failed(
    job: IngestJob,
    attempt: int,
    error: str,
    wall_time: float,
    manifest: JobManifest,
    progress: ProgressCallback | None,
) -> JobOutcome:
    """Journal and announce a job that is out of attempts (or time); returns its outcome."""
    manifest.record(job.key, job.title, "failed", attempt=attempt, error=error)
    _emit(
        progress,
        JobEvent(
            "failed", job.title, job.key, attempt=attempt, wall_time=wall_time, message=error
        ),
    )
    return JobOutcome(
        key=job.key, title=job.title, state="failed",
        attempts=attempt, wall_time=wall_time, error=error,
    )


def _run_serial(
    jobs: list[IngestJob],
    store: ArtifactStore,
    manifest: JobManifest,
    policy: RetryPolicy,
    progress: ProgressCallback | None,
) -> list[JobOutcome]:
    """Mine jobs one by one in this process (no preemptive timeout)."""
    outcomes: list[JobOutcome] = []
    for job in jobs:
        error = ""
        attempt = 0
        outcome: JobOutcome | None = None
        # Seeded per job key: deterministic for a given corpus, but
        # decorrelated across jobs so retries do not synchronise.
        rng = random.Random(job.key)
        last_delay = 0.0
        while attempt < policy.max_attempts:
            attempt += 1
            manifest.record(job.key, job.title, "running", attempt=attempt)
            _emit(progress, JobEvent("started", job.title, job.key, attempt=attempt))
            start = time.perf_counter()
            try:
                summary = _execute_job(job, str(store.root))
            except Exception as exc:  # typed below; bounded by max_attempts
                error = f"{type(exc).__name__}: {exc}"
                if attempt < policy.max_attempts:
                    _emit(
                        progress,
                        JobEvent(
                            "retried",
                            job.title,
                            job.key,
                            attempt=attempt,
                            message=error,
                        ),
                    )
                    last_delay = policy.next_delay(attempt, last_delay, rng)
                    time.sleep(last_delay)
                continue
            outcome = _finished(summary, attempt, manifest, progress)
            break
        if outcome is None:
            outcome = _failed(
                job, attempt, error, time.perf_counter() - start, manifest, progress
            )
        outcomes.append(outcome)
    return outcomes


@dataclass
class _Slot:
    """Bookkeeping for one in-flight pooled job."""

    job: IngestJob
    attempt: int
    deadline: float | None
    # Retry-jitter state: one seeded stream per job, plus the delay the
    # scheduler slept before this attempt (decorrelated jitter input).
    rng: random.Random | None = None
    last_delay: float = 0.0


def _run_pool(
    jobs: list[IngestJob],
    store: ArtifactStore,
    manifest: JobManifest,
    workers: int,
    timeout: float | None,
    policy: RetryPolicy,
    progress: ProgressCallback | None,
) -> list[JobOutcome]:
    """Mine jobs across a process pool with per-job deadlines."""
    outcomes: dict[str, JobOutcome] = {}
    timed_out = False
    inflight = get_registry().gauge(
        "ingest_inflight_jobs",
        "Jobs currently submitted to the ingest process pool.",
    )
    pool = ProcessPoolExecutor(max_workers=workers)
    try:

        def submit(
            job: IngestJob,
            attempt: int,
            rng: random.Random | None = None,
            last_delay: float = 0.0,
        ) -> tuple[Future, _Slot]:
            manifest.record(job.key, job.title, "running", attempt=attempt)
            _emit(progress, JobEvent("started", job.title, job.key, attempt=attempt))
            future = pool.submit(_execute_job, job, str(store.root))
            deadline = None if timeout is None else time.monotonic() + timeout
            return future, _Slot(
                job=job,
                attempt=attempt,
                deadline=deadline,
                rng=rng if rng is not None else random.Random(job.key),
                last_delay=last_delay,
            )

        pending: dict[Future, _Slot] = {}
        for job in jobs:
            future, slot = submit(job, attempt=1)
            pending[future] = slot

        while pending:
            inflight.set(len(pending))
            # Sleep until a job completes or the nearest deadline passes.
            deadlines = [
                slot.deadline for slot in pending.values() if slot.deadline is not None
            ]
            completed, _ = wait(
                list(pending),
                timeout=max(0.0, min(deadlines) - time.monotonic()) if deadlines else None,
                return_when=FIRST_COMPLETED,
            )
            for future in completed:
                slot = pending.pop(future)
                job, attempt = slot.job, slot.attempt
                exc = future.exception()
                if exc is None:
                    outcomes[job.key] = _finished(future.result(), attempt, manifest, progress)
                    continue
                error = f"{type(exc).__name__}: {exc}"
                if attempt < policy.max_attempts:
                    _emit(
                        progress,
                        JobEvent(
                            "retried", job.title, job.key, attempt=attempt,
                            message=error,
                        ),
                    )
                    retry_delay = policy.next_delay(
                        attempt, slot.last_delay, slot.rng
                    )
                    time.sleep(retry_delay)
                    future, slot = submit(
                        job,
                        attempt=attempt + 1,
                        rng=slot.rng,
                        last_delay=retry_delay,
                    )
                    pending[future] = slot
                else:
                    outcomes[job.key] = _failed(job, attempt, error, 0.0, manifest, progress)
            # Enforce per-job deadlines on whatever is still running.
            now = time.monotonic()
            for future, slot in list(pending.items()):
                if slot.deadline is None or now <= slot.deadline:
                    continue
                future.cancel()
                timed_out = True
                del pending[future]
                outcomes[slot.job.key] = _failed(
                    slot.job, slot.attempt, f"timed out after {timeout:.1f}s",
                    timeout or 0.0, manifest, progress,
                )
    finally:
        inflight.set(0)
        # After a timeout the stuck worker may never return; abandon it
        # instead of blocking the whole ingest on its shutdown join.
        pool.shutdown(wait=not timed_out, cancel_futures=timed_out)
    return [outcomes[job.key] for job in jobs if job.key in outcomes]


def run_jobs(
    jobs: list[IngestJob],
    store: ArtifactStore,
    manifest: JobManifest,
    workers: int = 1,
    force: bool = False,
    timeout: float | None = None,
    policy: RetryPolicy | None = None,
    progress: ProgressCallback | None = None,
    raise_on_failure: bool = True,
) -> list[JobOutcome]:
    """Run a batch of ingest jobs and return one outcome per job.

    Parameters
    ----------
    jobs:
        The work list (see :func:`repro.ingest.jobs.jobs_for_titles`).
    store / manifest:
        The artifact store and job journal of the target database dir.
    workers:
        Process count; ``<= 1`` runs serially in this process.
    force:
        Re-mine even when a cached artifact exists.
    timeout:
        Per-job wall-clock limit in seconds (pool mode only — serial
        execution cannot preempt a running job).
    policy:
        Retry/backoff policy (defaults to :class:`RetryPolicy`).
    progress:
        Callback receiving a :class:`JobEvent` per state change.
    raise_on_failure:
        Raise :class:`IngestError` when any job exhausts its retries.
    """
    policy = policy if policy is not None else RetryPolicy()
    outcomes: list[JobOutcome] = []
    to_run: list[IngestJob] = []
    for job in jobs:
        _emit(progress, JobEvent("queued", job.title, job.key))
        if force:
            store.remove(job.key)
        if not force and store.has_valid(job.key):
            # Cache hit: mining is skipped entirely.  Covers both a
            # resumed ingest (manifest already says done) and a manifest
            # lost or cleared since the artifact was written.  A corrupt
            # artifact fails verification here, gets quarantined, and
            # the job falls through to a fresh mine.
            outcomes.append(_cached_outcome(job, store, manifest, progress))
            continue
        manifest.record(job.key, job.title, "pending")
        to_run.append(job)

    if to_run:
        if workers > 1:
            try:
                outcomes.extend(
                    _run_pool(
                        to_run, store, manifest, workers, timeout, policy, progress
                    )
                )
            except (OSError, PermissionError, ImportError, BrokenExecutor):
                # No process pool on this platform (or it broke mid
                # run): degrade to serial, reusing whatever artifacts
                # the pool managed to land before giving up.
                remaining: list[IngestJob] = []
                for job in to_run:
                    if store.has(job.key):
                        outcomes.append(
                            _cached_outcome(job, store, manifest, progress)
                        )
                    else:
                        remaining.append(job)
                outcomes.extend(
                    _run_serial(remaining, store, manifest, policy, progress)
                )
        else:
            outcomes.extend(_run_serial(to_run, store, manifest, policy, progress))

    failures = [o for o in outcomes if not o.ok]
    if failures and raise_on_failure:
        detail = "; ".join(f"{o.title}: {o.error}" for o in failures)
        raise IngestError(
            f"{len(failures)}/{len(jobs)} ingest jobs failed — {detail}"
        )
    return outcomes
