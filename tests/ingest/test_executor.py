"""Executor behaviour: retries, caching, resume, pool mode, timeouts.

Faults are injected by monkeypatching ``repro.ingest.executor._mine_job``
— the single choke point both the serial and pool paths go through.
Pool workers are forked from the patched parent, so the injected
behaviour applies there too (counters, however, only increment in the
parent, so pool assertions use on-disk artifacts instead).
"""

from __future__ import annotations

import time

import pytest

import repro.ingest.executor as executor
from repro.errors import IngestError
from repro.ingest.artifacts import ArtifactStore
from repro.ingest.executor import RetryPolicy, run_jobs
from repro.ingest.jobs import IngestJob
from repro.ingest.manifest import JobManifest
from repro.ingest.progress import ProgressTracker
from repro.resilience.faults import FaultPlan, FaultSpec, inject

#: Fast-failing policy so retry tests do not sleep for real.
FAST = RetryPolicy(retries=2, backoff=0.01, backoff_factor=1.0)


@pytest.fixture()
def env(tmp_path):
    """(store, manifest) pair rooted in a temp directory."""
    store = ArtifactStore(tmp_path / "artifacts")
    manifest = JobManifest(tmp_path / "manifest.jsonl")
    return store, manifest


@pytest.fixture()
def job():
    """The demo ingest job."""
    return IngestJob.for_title("demo")


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


class TestRetries:
    def test_transient_failure_retried_to_success(
        self, env, job, demo_result, monkeypatch
    ):
        store, manifest = env
        calls = {"n": 0}

        def flaky(_job):
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient fault")
            return demo_result

        monkeypatch.setattr(executor, "_mine_job", flaky)
        tracker = ProgressTracker()
        outcomes = run_jobs([job], store, manifest, policy=FAST, progress=tracker)
        assert outcomes[0].state == "done"
        assert outcomes[0].attempts == 3
        assert calls["n"] == 3
        assert tracker.count("retried") == 2
        assert tracker.count("finished") == 1
        assert manifest.state_of(job.key) == "done"
        assert store.has(job.key)

    def test_injected_mine_fault_is_absorbed_by_one_retry(self, env, job):
        # The real ``_mine_job`` this time: the fault point sits inside it.
        store, manifest = env
        with inject(FaultPlan([FaultSpec("ingest.mine", limit=1)])) as plan:
            outcomes = run_jobs([job], store, manifest, policy=FAST)
        assert plan.fired("ingest.mine") == 1
        assert (outcomes[0].state, outcomes[0].attempts) == ("done", 2)
        assert store.has_valid(job.key)

    def test_exhaustion_raises_typed_error(self, env, job, monkeypatch):
        store, manifest = env

        def broken(_job):
            raise RuntimeError("permanent fault")

        monkeypatch.setattr(executor, "_mine_job", broken)
        with pytest.raises(IngestError) as excinfo:
            run_jobs([job], store, manifest, policy=FAST)
        assert "demo" in str(excinfo.value)
        record = manifest.get(job.key)
        assert record.state == "failed"
        assert record.attempt == FAST.max_attempts
        assert "permanent fault" in record.error
        assert not store.has(job.key)

    def test_exhaustion_without_raise_returns_failed_outcome(
        self, env, job, monkeypatch
    ):
        store, manifest = env
        monkeypatch.setattr(
            executor, "_mine_job", lambda _job: (_ for _ in ()).throw(ValueError("x"))
        )
        tracker = ProgressTracker()
        outcomes = run_jobs(
            [job],
            store,
            manifest,
            policy=FAST,
            progress=tracker,
            raise_on_failure=False,
        )
        assert outcomes[0].state == "failed"
        assert not outcomes[0].ok
        assert outcomes[0].attempts == FAST.max_attempts
        assert "ValueError" in outcomes[0].error
        assert tracker.count("failed") == 1


class TestCaching:
    def test_second_run_hits_cache_without_mining(
        self, env, job, demo_result, monkeypatch
    ):
        store, manifest = env
        calls = {"n": 0}

        def mine(_job):
            calls["n"] += 1
            return demo_result

        monkeypatch.setattr(executor, "_mine_job", mine)
        first = run_jobs([job], store, manifest, policy=FAST)
        assert first[0].state == "done"
        assert calls["n"] == 1

        tracker = ProgressTracker()
        second = run_jobs([job], store, manifest, policy=FAST, progress=tracker)
        assert second[0].state == "cached"
        assert second[0].attempts == 0
        assert calls["n"] == 1  # mining skipped entirely
        assert tracker.count("cached") == 1
        assert tracker.count("started") == 0

    def test_force_remines_despite_cache(self, env, job, demo_result, monkeypatch):
        store, manifest = env
        calls = {"n": 0}

        def mine(_job):
            calls["n"] += 1
            return demo_result

        monkeypatch.setattr(executor, "_mine_job", mine)
        run_jobs([job], store, manifest, policy=FAST)
        forced = run_jobs([job], store, manifest, policy=FAST, force=True)
        assert forced[0].state == "done"
        assert calls["n"] == 2

    def test_cache_hit_restores_manifest_state(self, env, job, demo_result, monkeypatch):
        store, manifest = env
        monkeypatch.setattr(executor, "_mine_job", lambda _job: demo_result)
        run_jobs([job], store, manifest, policy=FAST)
        # Lose the manifest (e.g. deleted by hand); the artifact remains.
        manifest.clear()
        outcomes = run_jobs([job], store, manifest, policy=FAST)
        assert outcomes[0].state == "cached"
        assert manifest.state_of(job.key) == "done"


class TestResume:
    def test_resume_after_mid_ingest_crash(self, env, demo_result, monkeypatch):
        store, manifest = env
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
            run_jobs([job_a, job_b], store, manifest, policy=FAST)
        # Job A landed before the crash; job B never finished.
        assert manifest.state_of(job_a.key) == "done"
        assert store.has(job_a.key)
        assert not store.has(job_b.key)

        # A new process replays the journal and only re-mines job B.
        monkeypatch.setattr(
            executor,
            "_mine_job",
            lambda job: (mined.__setitem__("n", mined["n"] + 1), demo_result)[1],
        )
        reopened = JobManifest(manifest.path)
        outcomes = run_jobs([job_a, job_b], store, reopened, policy=FAST)
        assert [o.state for o in outcomes] == ["cached", "done"]
        assert mined["n"] == 2  # job A mined exactly once across both runs


class TestPool:
    def test_pool_mines_and_caches(self, env, demo_result, monkeypatch):
        store, manifest = env
        monkeypatch.setattr(executor, "_mine_job", lambda _job: demo_result)
        jobs = [
            IngestJob.for_title("demo", seed=0),
            IngestJob.for_title("demo", seed=1),
        ]
        outcomes = run_jobs(jobs, store, manifest, workers=2, policy=FAST)
        assert [o.state for o in outcomes] == ["done", "done"]
        assert all(store.has(job.key) for job in jobs)
        assert manifest.counts()["done"] == 2

        again = run_jobs(jobs, store, manifest, workers=2, policy=FAST)
        assert [o.state for o in again] == ["cached", "cached"]

    def test_pool_timeout_fails_job(self, env, job, demo_result, monkeypatch):
        store, manifest = env

        def sleepy(_job):
            time.sleep(2.0)
            return demo_result

        monkeypatch.setattr(executor, "_mine_job", sleepy)
        start = time.perf_counter()
        outcomes = run_jobs(
            [job],
            store,
            manifest,
            workers=2,
            timeout=0.4,
            policy=RetryPolicy(retries=0),
            raise_on_failure=False,
        )
        elapsed = time.perf_counter() - start
        assert outcomes[0].state == "failed"
        assert "timed out" in outcomes[0].error
        assert manifest.state_of(job.key) == "failed"
        # The stuck worker is abandoned, not joined to completion.
        assert elapsed < 1.8
