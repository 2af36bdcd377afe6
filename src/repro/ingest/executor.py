"""The ingest executor: one job loop, whatever ``workers`` is.

Each job:

1. checks the artifact store — a valid artifact under the job's key is
   a cache hit and mining is skipped entirely (the store is the only
   record of what is done, which is also what makes an interrupted
   ingest resume);
2. renders and mines the video;
3. serialises the result into the content-addressed store;
4. reports back as a :class:`JobOutcome` and a
   :class:`~repro.ingest.progress.JobEvent`.

Steps 2–3 run in a :class:`~concurrent.futures.ProcessPoolExecutor`
worker, or — ``workers <= 1``, or the platform refuses to give us a
pool — on the calling thread, behind the same ``submit``; one loop
(:func:`_run`) keeps ``workers`` jobs in flight, retries failures with
exponential backoff up to a bounded attempt count and fails a job that
outruns its timeout.  Tests inject faults by monkeypatching
:func:`_mine_job`, the single choke point every job goes through.
"""

from __future__ import annotations

import random
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.ingest.artifacts import ArtifactStore
from repro.ingest.jobs import IngestJob
from repro.ingest.progress import JobEvent, ProgressCallback
from repro.obs.registry import get_registry
from repro.resilience.faults import fault_point
from repro.resilience.retry import RetryPolicy

if TYPE_CHECKING:
    from repro.core.pipeline import ClassMinerResult


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
    The renderer and the miners load here, on a process's first mined job.
    """
    from repro.core.pipeline import ClassMiner
    from repro.video.synthesis.generator import stream_video

    fault_point("ingest.mine")
    stream = stream_video(job.screenplay, seed=job.seed, with_audio=job.mine_events)
    return ClassMiner(config=job.config).mine(stream, mine_events=job.mine_events)


def _execute_job(job: IngestJob, store_root: str) -> dict:
    """Worker entry: mine ``job`` and persist its artifact.

    Runs inside the pool worker (or on the calling thread) and returns a
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
    job: IngestJob, store: ArtifactStore, progress: ProgressCallback | None
) -> JobOutcome:
    """Outcome for a job whose artifact already exists on disk."""
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


def _finished(summary: dict, attempt: int, progress: ProgressCallback | None) -> JobOutcome:
    """Announce a mined job; returns its outcome."""
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
    progress: ProgressCallback | None,
) -> JobOutcome:
    """Announce a job that is out of attempts (or time); returns its outcome."""
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


class _CallingThread:
    """The executor of ``workers <= 1``: ``submit`` runs the job before it returns.

    The future it hands back is already finished, so the loop sees the
    job end on its next turn and a running job cannot be timed out.
    Only :class:`Exception` is captured: a ``KeyboardInterrupt`` in the
    job interrupts the run, as it would without an executor.
    """

    def submit(self, fn, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # read back by the loop, like a pool worker's
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        pass


@dataclass
class _Slot:
    """One job's place in the loop: waiting for a worker, or in flight."""

    job: IngestJob
    attempt: int
    # Retry-jitter state: one stream per job, seeded by its key
    # (deterministic for a given corpus, decorrelated across jobs so
    # retries do not synchronise), plus the delay slept before this
    # attempt (decorrelated jitter input).
    rng: random.Random
    last_delay: float = 0.0
    started: float = 0.0
    deadline: float | None = None


def _run(
    jobs: list[IngestJob],
    store: ArtifactStore,
    executor: ProcessPoolExecutor | _CallingThread,
    workers: int,
    timeout: float | None,
    policy: RetryPolicy,
    progress: ProgressCallback | None,
    outcomes: dict[str, JobOutcome],
) -> None:
    """The job loop: submit, retry, time out and collect into ``outcomes``.

    At most ``workers`` jobs are in flight, so a job is submitted only
    when a worker is free to run it and ``timeout`` measures its own
    running time, not its wait.  A worker still busy with a job that
    timed out counts as in flight until it returns.  The executor is
    shut down on the way out, whichever way that is.
    """
    waiting = deque(_Slot(job, 1, random.Random(job.key)) for job in jobs)
    pending: dict[Future, _Slot] = {}
    abandoned: list[Future] = []
    inflight = get_registry().gauge(
        "ingest_inflight_jobs",
        "Jobs currently submitted to the ingest executor.",
    )
    try:
        while waiting or pending:
            abandoned = [future for future in abandoned if not future.done()]
            while waiting and len(pending) + len(abandoned) < workers:
                slot = waiting.popleft()
                job = slot.job
                _emit(progress, JobEvent("started", job.title, job.key, attempt=slot.attempt))
                slot.started = time.monotonic()
                slot.deadline = None if timeout is None else slot.started + timeout
                pending[executor.submit(_execute_job, job, str(store.root))] = slot
            if not pending:
                # Every worker is held by a job that ran past its
                # deadline: nothing can start, and waiting on them is
                # what the timeout was set to prevent.
                for slot in waiting:
                    outcomes[slot.job.key] = _failed(
                        slot.job, slot.attempt - 1,
                        f"not started: all {workers} workers are held by timed-out jobs",
                        0.0, progress,
                    )
                break
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
                    outcomes[job.key] = _finished(future.result(), attempt, progress)
                    continue
                error = f"{type(exc).__name__}: {exc}"
                if attempt >= policy.max_attempts:
                    outcomes[job.key] = _failed(
                        job, attempt, error, time.monotonic() - slot.started, progress
                    )
                    continue
                _emit(
                    progress,
                    JobEvent("retried", job.title, job.key, attempt=attempt, message=error),
                )
                slot.last_delay = policy.next_delay(attempt, slot.last_delay, slot.rng)
                time.sleep(slot.last_delay)
                slot.attempt += 1
                waiting.appendleft(slot)
            # Enforce per-job deadlines on whatever is still running.
            now = time.monotonic()
            for future, slot in list(pending.items()):
                if slot.deadline is None or now <= slot.deadline:
                    continue
                del pending[future]
                if not future.cancel():
                    abandoned.append(future)
                outcomes[slot.job.key] = _failed(
                    slot.job, slot.attempt, f"timed out after {timeout:.1f}s", timeout, progress
                )
    finally:
        inflight.set(0)
        # A worker stuck past its deadline may never return; abandon it
        # instead of blocking the whole ingest on its shutdown join.
        stuck = any(not future.done() for future in abandoned)
        executor.shutdown(wait=not stuck, cancel_futures=stuck)


def run_jobs(
    jobs: list[IngestJob],
    store: ArtifactStore,
    workers: int = 1,
    force: bool = False,
    timeout: float | None = None,
    policy: RetryPolicy | None = None,
    progress: ProgressCallback | None = None,
) -> list[JobOutcome]:
    """Run a batch of ingest jobs and return one outcome per job.

    The artifact store is the only record of what is done: a job whose
    key holds a valid artifact is ``cached``, every other job runs.  A
    failed job is reported on its outcome and its ``failed`` event,
    never raised here (:func:`repro.ingest.runner.ingest_jobs` is where
    failures become an :class:`~repro.errors.IngestError`).

    Parameters
    ----------
    jobs:
        The work list (see :func:`repro.ingest.jobs.jobs_for_titles`).
    store:
        The artifact store of the target database dir.
    workers:
        Jobs in flight at once: ``> 1`` mines in that many worker
        processes, ``<= 1`` on the calling thread.
    force:
        Skip the cache check: every job is mined again, and its old
        artifact stays until the new one replaces it.
    timeout:
        Limit in seconds on each job's own running time (worker
        processes only — a job on the calling thread cannot be
        preempted).
    policy:
        Retry/backoff policy (defaults to :class:`RetryPolicy`).
    progress:
        Callback receiving a :class:`JobEvent` per state change.
    """
    policy = policy if policy is not None else RetryPolicy()
    outcomes: dict[str, JobOutcome] = {}
    to_run: list[IngestJob] = []
    for job in jobs:
        _emit(progress, JobEvent("queued", job.title, job.key))
        # A corrupt artifact fails verification here, gets quarantined,
        # and the job falls through to a fresh mine.
        if not force and store.has_valid(job.key):
            outcomes[job.key] = _cached_outcome(job, store, progress)
        else:
            to_run.append(job)

    if to_run and workers > 1:
        try:
            pool = ProcessPoolExecutor(max_workers=workers)
            _run(to_run, store, pool, workers, timeout, policy, progress, outcomes)
        except (OSError, ImportError, BrokenExecutor):
            pass  # no process pool on this platform, or it broke mid run
    # One worker — or whatever a pool that gave up did not finish.
    to_run = [job for job in to_run if job.key not in outcomes]
    if to_run:
        _run(to_run, store, _CallingThread(), 1, timeout, policy, progress, outcomes)
    return [outcomes[job.key] for job in jobs]
