"""End-to-end ingest: titles in, cached artifacts and a queryable DB out."""

from __future__ import annotations

import time

import pytest

import repro.ingest.executor as executor
from repro.database.index import combine_features
from repro.errors import FaultInjectedError
from repro.ingest.jobs import IngestJob
from repro.ingest.runner import (
    ingest_corpus,
    ingest_jobs,
    load_database,
    store_for,
)
from repro.resilience.faults import FaultPlan, FaultSpec, inject


@pytest.fixture(scope="module")
def ingested(tmp_path_factory):
    """One real cold ingest of the demo title (shared by the module)."""
    db_dir = tmp_path_factory.mktemp("ingest-e2e")
    report = ingest_corpus(["demo"], db_dir, workers=1)
    return db_dir, report


class TestIngestToQuery:
    def test_cold_ingest_mines_and_registers(self, ingested):
        db_dir, report = ingested
        assert report.ok
        assert [o.state for o in report.outcomes] == ["done"]
        assert report.registered == ["demo"]
        assert report.database_path is not None
        assert report.database_path.exists()
        assert report.skipped == []
        # The artifact is the only record of the finished job.
        assert sorted(path.name for path in db_dir.iterdir()) == [
            "artifacts",
            "catalog.sqlite",
            "features",
        ]

    def test_ingested_database_answers_queries(self, ingested):
        db_dir, _report = ingested
        database = load_database(db_dir)
        assert "demo" in database.videos
        assert database.shot_count > 0
        # Query with the features of an ingested shot: it must come back.
        key = IngestJob.for_title("demo").key
        result = store_for(db_dir).load(key)
        shot = result.structure.shots[0]
        hits = database.search(combine_features(shot.histogram, shot.texture), k=5)
        assert hits.hits
        assert hits.top.entry.video_title == "demo"

    def test_warm_rerun_is_fully_cached(self, ingested):
        db_dir, _report = ingested
        report = ingest_corpus(["demo"], db_dir, workers=1)
        assert [o.state for o in report.outcomes] == ["cached"]
        assert report.ok
        database = load_database(db_dir)
        assert "demo" in database.videos

    def test_rebuild_fault_fails_the_run_and_spares_the_artifacts(self, ingested):
        db_dir, _report = ingested
        with inject(FaultPlan([FaultSpec("ingest.rebuild")])):
            with pytest.raises(FaultInjectedError, match="ingest.rebuild"):
                ingest_corpus(["demo"], db_dir, workers=1)
        assert store_for(db_dir).verify(IngestJob.for_title("demo").key)
        report = ingest_corpus(["demo"], db_dir, workers=1)
        assert [o.state for o in report.outcomes] == ["cached"]
        assert report.registered == ["demo"]

    def test_disjoint_ingest_keeps_earlier_titles(
        self, tmp_path, demo_result, monkeypatch
    ):
        # Ingesting a new title later must not drop previously ingested
        # videos from database.json: artifacts are the source of truth.
        monkeypatch.setattr(executor, "_mine_job", lambda _job: demo_result)
        first = ingest_jobs([IngestJob.for_title("demo", seed=0)], tmp_path)
        assert first.registered == ["demo"]

        import dataclasses

        other = dataclasses.replace(
            demo_result,
            structure=dataclasses.replace(
                demo_result.structure, title="laparoscopy"
            ),
        )
        monkeypatch.setattr(executor, "_mine_job", lambda _job: other)
        second = ingest_jobs([IngestJob.for_title("laparoscopy")], tmp_path)
        assert sorted(second.registered) == ["demo", "laparoscopy"]
        assert sorted(load_database(tmp_path).videos) == ["demo", "laparoscopy"]

    def test_partial_failure_keeps_database_consistent(
        self, tmp_path, demo_result, monkeypatch
    ):
        def picky(job):
            if job.seed == 1:
                raise RuntimeError("bad batch")
            return demo_result

        monkeypatch.setattr(executor, "_mine_job", picky)
        jobs = [
            IngestJob.for_title("demo", seed=0),
            IngestJob.for_title("demo", seed=1),
        ]
        report = ingest_jobs(
            jobs,
            tmp_path,
            policy=executor.RetryPolicy(retries=0),
            strict=False,
        )
        assert len(report.failed) == 1
        assert not report.ok
        # The successful artifact still produced a loadable database.
        database = load_database(tmp_path)
        assert list(database.videos) == ["demo"]

    def test_strict_failure_raises_after_db_rebuild(
        self, tmp_path, demo_result, monkeypatch
    ):
        monkeypatch.setattr(
            executor,
            "_mine_job",
            lambda _job: (_ for _ in ()).throw(RuntimeError("down")),
        )
        from repro.errors import IngestError

        with pytest.raises(IngestError):
            ingest_corpus(
                ["demo"], tmp_path, policy=executor.RetryPolicy(retries=0)
            )

    def test_unknown_title_rejected(self, tmp_path):
        from repro.errors import IngestError

        with pytest.raises(IngestError):
            ingest_corpus(["atlantis"], tmp_path)


class TestSmoke:
    def test_smoke_cold_vs_warm_speedup(self, tmp_path):
        # Two workers; the warm run is all cache hits, so >= 5x faster.
        start = time.perf_counter()
        cold = ingest_corpus(["demo"], tmp_path, workers=2)
        cold_seconds = time.perf_counter() - start
        start = time.perf_counter()
        warm = ingest_corpus(["demo"], tmp_path, workers=2)
        warm_seconds = time.perf_counter() - start
        assert len(cold.mined) == 1
        assert not warm.mined and len(warm.cached) == 1
        assert cold_seconds >= 5.0 * warm_seconds
        assert load_database(tmp_path).shot_count > 0
