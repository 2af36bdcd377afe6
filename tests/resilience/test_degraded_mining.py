"""Degraded-mode mining: stage failures become flags, not exceptions."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import ClassMiner
from repro.core.structure import mine_content_structure
from repro.database.catalog import VideoDatabase
from repro.errors import DegradedResultWarning, FaultInjectedError
from repro.ingest.artifacts import ArtifactStore
from repro.obs.registry import get_registry
from repro.resilience.faults import FaultPlan, FaultSpec, inject


def _mine(stream, point, mine_events=True):
    """Mine the demo stream with one fault point permanently failing."""
    plan = FaultPlan([FaultSpec(point=point, kind="error")])
    with inject(plan), pytest.warns(DegradedResultWarning):
        miner = ClassMiner()
        return miner.mine(stream, mine_events=mine_events)


class TestPipelineDegradation:
    def test_cues_failure_yields_structure_only(self, demo_stream):
        result = _mine(demo_stream, "mine.cues")
        assert result.degraded
        assert set(result.degraded_stages) == {"cues", "events"}
        assert result.cues == {}
        assert result.audio == {}
        assert result.events is None
        assert result.structure.shots  # the structure itself is intact
        assert not result.structure.degraded

    def test_audio_failure_falls_back_to_visual_rules(self, demo_stream):
        result = _mine(demo_stream, "mine.audio")
        assert result.degraded_stages == ("audio",)
        assert result.audio == {}
        assert result.cues  # cues survived
        assert result.events is not None  # visual-only rules still mined
        assert result.scene_events()

    def test_events_failure_keeps_cues_and_audio(self, demo_stream):
        result = _mine(demo_stream, "mine.events")
        assert result.degraded_stages == ("events",)
        assert result.cues
        assert result.audio
        assert result.events is None
        assert result.scene_events() == {}

    def test_shot_failure_stays_fatal(self, demo_stream):
        plan = FaultPlan([FaultSpec(point="mine.shots", kind="error")])
        with inject(plan), pytest.raises(FaultInjectedError):
            ClassMiner().mine(demo_stream, mine_events=False)


class TestStructureDegradation:
    def test_groups_failure_falls_back_to_one_group_per_shot(self, demo_stream):
        plan = FaultPlan([FaultSpec(point="mine.groups", kind="error")])
        with inject(plan), pytest.warns(DegradedResultWarning):
            structure = mine_content_structure(demo_stream)
        assert "groups" in structure.degraded_stages
        assert len(structure.groups) == len(structure.shots)
        assert all(len(g.shots) == 1 for g in structure.groups)

    def test_scenes_failure_yields_empty_scene_level(self, demo_stream):
        plan = FaultPlan([FaultSpec(point="mine.scenes", kind="error")])
        with inject(plan), pytest.warns(DegradedResultWarning):
            structure = mine_content_structure(demo_stream)
        assert structure.degraded_stages == ("scenes",)
        assert structure.scenes == []
        assert structure.clustered_scenes == []  # clustering skipped
        assert structure.groups  # lower levels untouched

    def test_clustering_failure_keeps_scenes(self, demo_stream):
        plan = FaultPlan([FaultSpec(point="mine.clustering", kind="error")])
        with inject(plan), pytest.warns(DegradedResultWarning):
            structure = mine_content_structure(demo_stream)
        assert structure.degraded_stages == ("clustering",)
        assert structure.scenes
        assert structure.clustering is None
        assert structure.clustered_scenes == []

    def test_degradation_bumps_the_metrics_counter(self, demo_stream):
        before = get_registry().snapshot().get(
            "mining_degraded_stages_total{stage=clustering}", 0.0
        )
        plan = FaultPlan([FaultSpec(point="mine.clustering", kind="error")])
        with inject(plan), pytest.warns(DegradedResultWarning):
            mine_content_structure(demo_stream)
        after = get_registry().snapshot()[
            "mining_degraded_stages_total{stage=clustering}"
        ]
        assert after == before + 1.0


class TestFlagPersistence:
    def test_artifact_roundtrip_preserves_flags(self, tmp_path, demo_result):
        flagged = replace(demo_result, degraded_stages=("audio", "events"))
        store = ArtifactStore(tmp_path / "artifacts")
        store.save("ab" * 32, flagged)
        loaded = store.load("ab" * 32)
        assert loaded.degraded_stages == ("audio", "events")
        assert loaded.degraded

    def test_catalog_roundtrip_preserves_flags(self, tmp_path, demo_result):
        flagged = replace(demo_result, degraded_stages=("audio",))
        db = VideoDatabase()
        record = db.register(flagged)
        assert record.degraded_stages == ("audio",)
        assert record.degraded
        from repro.storage import load_database, save_database

        from repro.serving.server import QueryRequest, QueryServer

        save_database(db, tmp_path)
        restored = load_database(tmp_path)
        reloaded = restored.videos[record.title]
        with QueryServer(restored) as server:  # ...and into every answer served from it
            features = server.manager.current().flat.entries[0].features
            answer = server.query(QueryRequest(kind="shot", features=features, k=3))
        restored.close()
        assert reloaded.degraded_stages == ("audio",)
        assert answer.degraded and answer.hits

    def test_clean_result_has_no_flags(self, demo_result):
        assert demo_result.degraded_stages == ()
        assert not demo_result.degraded
