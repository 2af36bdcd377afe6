"""Executor behaviour: retries, caching, resume, timeouts — one loop.

Faults are injected by monkeypatching ``repro.ingest.executor._mine_job``
— the single choke point every job goes through.  Pool workers are
forked from the patched parent, so the injected behaviour applies there
too; a counter in a closure, however, only increments in the process
that ran the job, so the cases that run at both worker counts tally
their calls on disk (:class:`Mining`).
"""

from __future__ import annotations

import time

import pytest

import repro.ingest.executor as executor
from repro.errors import IngestError
from repro.ingest.artifacts import ArtifactStore
from repro.ingest.executor import RetryPolicy, run_jobs
from repro.ingest.jobs import IngestJob
from repro.ingest.progress import ProgressTracker
from repro.ingest.runner import ingest_jobs, load_database, store_for
from repro.resilience.faults import FaultPlan, FaultSpec, inject

#: Fast-failing policy so retry tests do not sleep for real.
FAST = RetryPolicy(retries=2, backoff=0.01, backoff_factor=1.0)


@pytest.fixture()
def store(tmp_path):
    """An artifact store rooted in a temp directory."""
    return ArtifactStore(tmp_path / "artifacts")


@pytest.fixture()
def job():
    """The demo ingest job."""
    return IngestJob.for_title("demo")


class Mining:
    """A ``_mine_job`` stand-in whose call tally survives a fork.

    Each call appends one byte to ``<root>/<job key>``; the first
    ``fail_first`` calls for a job raise, the rest take ``seconds`` and
    return ``result``.
    """

    def __init__(self, root, result, fail_first=0, seconds=0.0):
        self.root, self.result = root, result
        self.fail_first, self.seconds = fail_first, seconds
        root.mkdir(exist_ok=True)

    def __call__(self, job):
        with (self.root / job.key).open("a") as tally:
            tally.write("x")
        if self.calls(job) <= self.fail_first:
            raise RuntimeError("injected mining fault")
        time.sleep(self.seconds)
        return self.result

    def calls(self, job):
        path = self.root / job.key
        return path.stat().st_size if path.exists() else 0


class TestRetryPolicy:
    def test_max_attempts(self):
        assert RetryPolicy(retries=0).max_attempts == 1
        assert RetryPolicy(retries=2).max_attempts == 3
        assert RetryPolicy(retries=-5).max_attempts == 1

    def test_backoff_grows(self):
        policy = RetryPolicy(retries=3, backoff=0.1, backoff_factor=2.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)


@pytest.mark.parametrize("workers", [1, 2])
class TestOneLoop:
    """Every row holds on the calling thread and on a pool alike."""

    @pytest.fixture()
    def mining(self, tmp_path, demo_result, monkeypatch):
        def patch(**kwargs):
            stub = Mining(tmp_path / "calls", demo_result, **kwargs)
            monkeypatch.setattr(executor, "_mine_job", stub)
            return stub

        return patch

    def test_first_try_success(self, store, job, mining, workers):
        mined = mining()
        tracker = ProgressTracker()
        (outcome,) = run_jobs([job], store, workers=workers, policy=FAST, progress=tracker)
        assert (outcome.state, outcome.attempts, outcome.error) == ("done", 1, "")
        assert (outcome.shots, outcome.scenes) == (16, 3)
        assert outcome.artifact_path == store.path_for(job.key)
        assert store.verify(job.key)
        assert mined.calls(job) == 1
        assert [e.kind for e in tracker.events] == ["queued", "started", "finished"]

    def test_retry_then_success(self, store, job, mining, workers):
        mined = mining(fail_first=2)
        tracker = ProgressTracker()
        (outcome,) = run_jobs([job], store, workers=workers, policy=FAST, progress=tracker)
        assert (outcome.state, outcome.attempts) == ("done", 3)
        assert mined.calls(job) == 3
        assert tracker.count("started") == 3
        assert tracker.count("retried") == 2
        assert tracker.count("finished") == 1
        assert store.has_valid(job.key)

    def test_retries_exhausted(self, store, job, mining, workers):
        mined = mining(fail_first=99)
        tracker = ProgressTracker()
        (outcome,) = run_jobs([job], store, workers=workers, policy=FAST, progress=tracker)
        assert (outcome.state, outcome.ok) == ("failed", False)
        assert outcome.attempts == mined.calls(job) == FAST.max_attempts
        assert outcome.error == "RuntimeError: injected mining fault"
        assert tracker.count("failed") == 1
        assert tracker.events[-1].message == outcome.error
        assert not store.has(job.key)

    def test_cache_hit(self, store, job, mining, workers):
        mined = mining()
        run_jobs([job], store, workers=workers, policy=FAST)
        tracker = ProgressTracker()
        (outcome,) = run_jobs([job], store, workers=workers, policy=FAST, progress=tracker)
        assert (outcome.state, outcome.attempts) == ("cached", 0)
        assert (outcome.shots, outcome.scenes) == (16, 3)
        assert mined.calls(job) == 1  # mining skipped entirely
        assert [e.kind for e in tracker.events] == ["queued", "cached"]

    def test_forced_remine(self, store, job, mining, workers):
        mined = mining()
        run_jobs([job], store, workers=workers, policy=FAST)
        created = store.read_meta(job.key)["created"]
        (outcome,) = run_jobs([job], store, workers=workers, policy=FAST, force=True)
        assert (outcome.state, outcome.attempts) == ("done", 1)
        assert mined.calls(job) == 2
        assert store.verify(job.key)
        assert store.read_meta(job.key)["created"] > created  # replaced, not kept

    def test_failed_forced_remine_keeps_the_old_artifact(
        self, tmp_path, job, demo_result, mining, workers
    ):
        # --force replaces an artifact; it does not delete it first.
        store = store_for(tmp_path)
        store.save(job.key, demo_result)
        mining(fail_first=99)
        report = ingest_jobs(
            [job], tmp_path, workers=workers, force=True, policy=FAST, strict=False
        )
        assert [o.state for o in report.outcomes] == ["failed"]
        assert store.verify(job.key)
        assert report.registered == ["demo"]
        assert list(load_database(tmp_path).videos) == ["demo"]

    def test_corrupt_artifact_is_quarantined_and_remined(self, store, job, mining, workers):
        mined = mining()
        run_jobs([job], store, workers=workers, policy=FAST)
        arrays = store.path_for(job.key) / "arrays.npz"
        arrays.write_bytes(arrays.read_bytes()[:-64])
        (outcome,) = run_jobs([job], store, workers=workers, policy=FAST)
        assert (outcome.state, outcome.attempts) == ("done", 1)
        assert mined.calls(job) == 2
        assert store.quarantined() == [job.key]
        assert store.verify(job.key)

    def test_manifestless_artifact_is_quarantined_and_remined(self, store, job, mining, workers):
        mined = mining()
        run_jobs([job], store, workers=workers, policy=FAST)
        (store.path_for(job.key) / "checksums.json").unlink()  # both payload files intact
        (outcome,) = run_jobs([job], store, workers=workers, policy=FAST)
        assert (outcome.state, mined.calls(job)) == ("done", 2)
        assert store.quarantined() == [job.key] and store.verify(job.key)


class TestEventOrder:
    def test_one_worker_reports_job_by_job(self, store, demo_result, monkeypatch):
        # The CLI's live lines: with one worker a job's `started` is
        # printed when it starts, not when the batch is submitted.
        monkeypatch.setattr(executor, "_mine_job", lambda _job: demo_result)
        jobs = [IngestJob.for_title("demo", seed=seed) for seed in (0, 1)]
        tracker = ProgressTracker()
        run_jobs(jobs, store, workers=1, policy=FAST, progress=tracker)
        assert [(e.kind, e.key) for e in tracker.events] == [
            ("queued", jobs[0].key),
            ("queued", jobs[1].key),
            ("started", jobs[0].key),
            ("finished", jobs[0].key),
            ("started", jobs[1].key),
            ("finished", jobs[1].key),
        ]


class TestRetries:
    def test_transient_failure_retried_to_success(
        self, store, job, demo_result, monkeypatch
    ):
        calls = {"n": 0}

        def flaky(_job):
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient fault")
            return demo_result

        monkeypatch.setattr(executor, "_mine_job", flaky)
        tracker = ProgressTracker()
        outcomes = run_jobs([job], store, policy=FAST, progress=tracker)
        assert outcomes[0].state == "done"
        assert outcomes[0].attempts == 3
        assert calls["n"] == 3
        assert tracker.count("retried") == 2
        assert tracker.count("finished") == 1
        assert store.has(job.key)

    def test_injected_mine_fault_is_absorbed_by_one_retry(self, store, job):
        # The real ``_mine_job`` this time: the fault point sits inside it.
        with inject(FaultPlan([FaultSpec("ingest.mine", limit=1)])) as plan:
            outcomes = run_jobs([job], store, policy=FAST)
        assert plan.fired("ingest.mine") == 1
        assert (outcomes[0].state, outcomes[0].attempts) == ("done", 2)
        assert store.has_valid(job.key)

    def test_exhaustion_raises_typed_error(self, tmp_path, job, monkeypatch):
        # ``ingest_jobs(strict=True)`` is the one place failed jobs
        # become an IngestError; ``run_jobs`` only reports them.
        def broken(_job):
            raise RuntimeError("permanent fault")

        monkeypatch.setattr(executor, "_mine_job", broken)
        with pytest.raises(IngestError) as excinfo:
            ingest_jobs([job], tmp_path, policy=FAST)
        assert "1/1 ingest jobs failed" in str(excinfo.value)
        assert "demo: RuntimeError: permanent fault" in str(excinfo.value)
        assert not store_for(tmp_path).has(job.key)

    def test_exhaustion_without_raise_returns_failed_outcome(
        self, store, job, monkeypatch
    ):
        monkeypatch.setattr(
            executor, "_mine_job", lambda _job: (_ for _ in ()).throw(ValueError("x"))
        )
        tracker = ProgressTracker()
        outcomes = run_jobs([job], store, policy=FAST, progress=tracker)
        assert outcomes[0].state == "failed"
        assert not outcomes[0].ok
        assert outcomes[0].attempts == FAST.max_attempts
        assert "ValueError" in outcomes[0].error
        assert tracker.count("failed") == 1


class TestCaching:
    def test_second_run_hits_cache_without_mining(
        self, store, job, demo_result, monkeypatch
    ):
        calls = {"n": 0}

        def mine(_job):
            calls["n"] += 1
            return demo_result

        monkeypatch.setattr(executor, "_mine_job", mine)
        first = run_jobs([job], store, policy=FAST)
        assert first[0].state == "done"
        assert calls["n"] == 1

        tracker = ProgressTracker()
        second = run_jobs([job], store, policy=FAST, progress=tracker)
        assert second[0].state == "cached"
        assert second[0].attempts == 0
        assert calls["n"] == 1  # mining skipped entirely
        assert tracker.count("cached") == 1
        assert tracker.count("started") == 0

    def test_force_remines_despite_cache(self, store, job, demo_result, monkeypatch):
        calls = {"n": 0}

        def mine(_job):
            calls["n"] += 1
            return demo_result

        monkeypatch.setattr(executor, "_mine_job", mine)
        run_jobs([job], store, policy=FAST)
        forced = run_jobs([job], store, policy=FAST, force=True)
        assert forced[0].state == "done"
        assert calls["n"] == 2

    def test_cache_hit_restores_manifest_state(
        self, tmp_path, job, demo_result, monkeypatch
    ):
        """The store is the journal: a job's state comes back from its
        artifact alone.  A ``manifest.jsonl`` left by an older version —
        here one that calls the job failed — is neither read nor written."""
        monkeypatch.setattr(executor, "_mine_job", lambda _job: demo_result)
        ingest_jobs([job], tmp_path, policy=FAST)
        leftover = tmp_path / "manifest.jsonl"
        assert not leftover.exists()
        line = f'{{"key": "{job.key}", "title": "demo", "state": "failed"}}\n'
        leftover.write_text(line)
        report = ingest_jobs([job], tmp_path, policy=FAST)
        assert [o.state for o in report.outcomes] == ["cached"]
        assert leftover.read_text() == line


class TestResume:
    def test_resume_after_mid_ingest_crash(self, store, demo_result, monkeypatch):
        job_a = IngestJob.for_title("demo", seed=0)
        job_b = IngestJob.for_title("demo", seed=1)
        mined = {"n": 0}

        def crashy(job):
            if job.seed == 1:
                raise KeyboardInterrupt  # simulate ctrl-C mid-ingest
            mined["n"] += 1
            return demo_result

        monkeypatch.setattr(executor, "_mine_job", crashy)
        with pytest.raises(KeyboardInterrupt):
            run_jobs([job_a, job_b], store, policy=FAST)
        # Job A landed before the crash; job B never finished.
        assert store.has(job_a.key)
        assert not store.has(job_b.key)

        # A new run finds job A's artifact and only re-mines job B.
        monkeypatch.setattr(
            executor,
            "_mine_job",
            lambda job: (mined.__setitem__("n", mined["n"] + 1), demo_result)[1],
        )
        outcomes = run_jobs([job_a, job_b], ArtifactStore(store.root), policy=FAST)
        assert [o.state for o in outcomes] == ["cached", "done"]
        assert mined["n"] == 2  # job A mined exactly once across both runs


class TestPool:
    def test_pool_mines_and_caches(self, store, demo_result, monkeypatch):
        monkeypatch.setattr(executor, "_mine_job", lambda _job: demo_result)
        jobs = [
            IngestJob.for_title("demo", seed=0),
            IngestJob.for_title("demo", seed=1),
        ]
        outcomes = run_jobs(jobs, store, workers=2, policy=FAST)
        assert [o.state for o in outcomes] == ["done", "done"]
        assert all(store.has(job.key) for job in jobs)

        again = run_jobs(jobs, store, workers=2, policy=FAST)
        assert [o.state for o in again] == ["cached", "cached"]

    def test_refused_pool_falls_back_to_the_calling_thread(
        self, store, job, demo_result, monkeypatch
    ):
        def refuse(max_workers):
            raise PermissionError("no semaphores on this platform")

        monkeypatch.setattr(executor, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(executor, "_mine_job", lambda _job: demo_result)
        tracker = ProgressTracker()
        (outcome,) = run_jobs([job], store, workers=2, policy=FAST, progress=tracker)
        assert (outcome.state, outcome.attempts) == ("done", 1)
        assert [e.kind for e in tracker.events] == ["queued", "started", "finished"]

    def test_pool_timeout_fails_job(self, store, job, demo_result, monkeypatch):
        def sleepy(_job):
            time.sleep(2.0)
            return demo_result

        monkeypatch.setattr(executor, "_mine_job", sleepy)
        start = time.perf_counter()
        outcomes = run_jobs(
            [job],
            store,
            workers=2,
            timeout=0.4,
            policy=RetryPolicy(retries=0),
        )
        elapsed = time.perf_counter() - start
        assert outcomes[0].state == "failed"
        assert "timed out" in outcomes[0].error
        # The stuck worker is abandoned, not joined to completion.
        assert elapsed < 1.8

    def test_timeout_is_running_time_not_time_in_the_queue(
        self, tmp_path, store, demo_result, monkeypatch
    ):
        # Four 0.6 s jobs on two workers under a 1.0 s limit: the second
        # pair waits 0.6 s for a worker and must still get its full second.
        monkeypatch.setattr(
            executor, "_mine_job", Mining(tmp_path / "calls", demo_result, seconds=0.6)
        )
        jobs = [IngestJob.for_title("demo", seed=seed) for seed in range(4)]
        outcomes = run_jobs(
            jobs, store, workers=2, timeout=1.0, policy=RetryPolicy(retries=0)
        )
        assert [(o.state, o.error) for o in outcomes] == [("done", "")] * 4

    def test_no_job_starts_while_every_worker_is_stuck(
        self, tmp_path, store, demo_result, monkeypatch
    ):
        # Two workers held by jobs past their deadline: the third job has
        # no worker to run on and fails at once instead of waiting on them.
        monkeypatch.setattr(
            executor, "_mine_job", Mining(tmp_path / "calls", demo_result, seconds=2.0)
        )
        jobs = [IngestJob.for_title("demo", seed=seed) for seed in range(3)]
        start = time.perf_counter()
        outcomes = run_jobs(
            jobs, store, workers=2, timeout=0.3, policy=RetryPolicy(retries=0)
        )
        assert time.perf_counter() - start < 1.5
        assert [o.state for o in outcomes] == ["failed"] * 3
        assert ["timed out" in o.error for o in outcomes] == [True, True, False]
        assert (outcomes[2].attempts, outcomes[2].error[:12]) == (0, "not started:")
