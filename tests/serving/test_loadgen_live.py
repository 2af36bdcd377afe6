"""Load generation against a live server, including a mid-run ingest.

The acceptance scenario: concurrent loadgen clients keep querying while
an in-process ingest run lands and its corpus is installed (a generation bump).  No client may ever see a
stale result (a new-generation result missing the new video, or an
old-generation result containing it) or a cross-clearance hit.
"""

from __future__ import annotations

import threading

from repro.database.access import User
from repro.database.events_query import event_concept
from repro.serving.loadgen import LoadgenConfig, build_query_pool, run_load
from repro.serving.server import QueryServer, ServerConfig
from repro.types import EventKind


class TestPool:
    def test_pool_is_deterministic_and_mixed(self, serving_db):
        with QueryServer(serving_db) as server:
            stored = server.sample_features(64)
            config = LoadgenConfig(pool_size=64, seed=7)
            first = build_query_pool(stored, config)
            second = build_query_pool(stored, config)
            assert [r.kind for r in first] == [r.kind for r in second]
            kinds = {r.kind for r in first}
            assert {"shot", "scene"} <= kinds

    def test_flat_requests_are_always_anonymous(self, serving_db):
        surgeon = User("surgeon", clearance=3)
        with QueryServer(serving_db) as server:
            pool = build_query_pool(
                server.sample_features(64),
                LoadgenConfig(pool_size=64, seed=3),
                users=(surgeon,),
            )
            flats = [r for r in pool if r.kind == "shot_flat"]
            assert flats and all(r.user is None for r in flats)
            assert any(r.user is surgeon for r in pool if r.kind != "shot_flat")


class TestSteadyState:
    def test_short_run_completes_cleanly(self, serving_db):
        with QueryServer(serving_db, ServerConfig(queue_depth=32)) as server:
            report = run_load(
                server, LoadgenConfig(clients=2, duration=0.3, timeout=5.0)
            )
            assert report.failures == []
            assert report.errors == 0
            assert report.completed > 0
            assert report.generations == {1}
            assert 0.0 <= report.cache_hit_rate <= 1.0
            assert report.percentile(99) >= report.percentile(50) >= 0.0
            assert "qps sustained" in report.render()

    def test_requests_per_client_bounds_the_run(self, serving_db):
        with QueryServer(serving_db) as server:
            report = run_load(
                server,
                LoadgenConfig(
                    clients=2, duration=30.0, requests_per_client=5, timeout=5.0
                ),
            )
            assert report.issued == 10


class TestLiveGenerationBump:
    def test_no_stale_and_no_cross_clearance_during_ingest_bump(
        self, serving_db, demo_result, retitle, tmp_path
    ):
        """The ISSUE acceptance run: loadgen + concurrent ingest."""
        from repro.ingest import IngestJob, ingest_corpus, load_database, store_for

        # Pre-seed artifacts so the mid-run ingest is fast and rebuilds a
        # two-video corpus ("demo" + re-titled clone "face_repair").
        db_dir = tmp_path / "db"
        store = store_for(db_dir)
        store.save(IngestJob.for_title("demo").key, demo_result)
        store.save(IngestJob.for_title("face_repair").key, retitle("face_repair"))

        student = User("student", clearance=0)
        config = ServerConfig(queue_depth=64)
        installed = []
        with QueryServer(serving_db, config) as server:

            def validate(request, result):
                # Stale-read check: a result must be self-consistent with
                # the generation it claims.  Generation 1 predates the
                # ingest; generation >= 2 is the rebuilt two-video corpus.
                if request.kind in ("shot", "scene"):
                    titles = {hit.entry.video_title for hit in result.hits}
                    if result.generation == 1:
                        assert "face_repair" not in titles, "stale gen tag on new corpus"
                # Cross-clearance check: a clearance-0 principal may only
                # ever see presentation footage (the sole sensitivity-0
                # scene concept), cached or not, before or after the swap.
                if request.user is student:
                    if request.kind == "shot":
                        snap = server.manager.current()
                        for hit in result.hits:
                            entry = hit.entry
                            event = EventKind(
                                snap.records[entry.video_title].events[entry.scene_id]
                            )
                            concept = event_concept(entry.video_title, event)
                            assert event is EventKind.PRESENTATION, (
                                f"clearance leak: {concept} served to student"
                            )
                    elif request.kind == "scene":
                        for hit in result.hits:
                            assert hit.entry.event is EventKind.PRESENTATION

            def ingest_then_install():
                # The writer shares the process (and the GIL) with the
                # four clients: publish the catalog, then move the server.
                ingest_corpus(["demo", "face_repair"], db_dir, workers=1)
                installed.append(load_database(db_dir))
                server.manager.install(installed[0])

            bump = threading.Timer(0.25, ingest_then_install)
            bump.start()
            try:
                report = run_load(
                    server,
                    LoadgenConfig(
                        clients=4,
                        # The bump starts at 0.25 s and takes 0.6-1.0 s
                        # beside four busy clients; leave it room to land.
                        duration=2.5,
                        timeout=5.0,
                        unique_fraction=0.0,
                        k=12,
                        seed=11,
                    ),
                    users=(None, student),
                    on_result=validate,
                )
            finally:
                bump.join()

            try:
                assert report.failures == [], "\n".join(report.failures)
                assert report.errors == 0
                assert report.completed > 0
                # The run straddled the swap: both generations were observed,
                # and post-swap queries really served the rebuilt corpus.
                assert report.generations == {1, 2}, report.generations
                assert server.generation == 2
                assert "face_repair" in server.manager.current().videos
            finally:
                for database in installed:
                    database.close()

    def test_post_bump_queries_serve_the_new_corpus(
        self, serving_db, demo_result, retitle, tmp_path
    ):
        from repro.database.index import combine_features
        from repro.ingest import IngestJob, ingest_corpus, load_database, store_for
        from repro.serving.server import QueryRequest

        db_dir = tmp_path / "db"
        store = store_for(db_dir)
        store.save(IngestJob.for_title("demo").key, demo_result)
        store.save(IngestJob.for_title("face_repair").key, retitle("face_repair"))

        shot = demo_result.structure.shots[0]
        features = combine_features(shot.histogram, shot.texture)
        with QueryServer(serving_db) as server:
            before = server.query(QueryRequest(kind="shot", features=features, k=32))
            assert {h.entry.video_title for h in before.hits} == {"demo"}
            ingest_corpus(["demo", "face_repair"], db_dir, workers=1)
            ingested = load_database(db_dir)
            try:
                server.manager.install(ingested)
                after = server.query(QueryRequest(kind="shot", features=features, k=32))
                assert not after.cache_hit
                assert after.generation == before.generation + 1
                assert {h.entry.video_title for h in after.hits} == {"demo", "face_repair"}
            finally:
                ingested.close()
