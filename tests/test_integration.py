"""End-to-end integration: generator -> miner -> database -> skim.

Everything here runs on the session-scoped demo video, exercising the
full public API exactly the way the examples do.
"""

import pytest

from repro import ClassMiner, VideoDatabase, build_skim
from repro.database import User, combine_features
from repro.evaluation import evaluate_scene_partition
from repro.skimming import (
    build_color_bar,
    evaluate_all_levels,
    fcr_by_level,
    render_text_bar,
)
from repro.types import EventKind


class TestFullPipeline:
    def test_structure_and_events(self, demo_video, demo_result):
        structure = demo_result.structure
        sizes = structure.level_sizes()
        # The demo has 3 content scenes plus separators -> a sane tree.
        assert sizes["shots"] >= 14
        assert 2 <= sizes["scenes"] <= 6
        mined_kinds = set(demo_result.scene_events().values())
        assert mined_kinds & set(EventKind.known_kinds())

    def test_mined_fingerprint_is_pinned(self, demo_result):
        # (shots, scenes, event per scene) at render seed 0, the same tuple
        # benchmarks/e2e/verify.py freezes for the five corpus titles (one of
        # which tests/test_memory_bounds.py pins from a real ingest job): a
        # kernel or filter change that moves anything mined moves this.
        structure = demo_result.structure
        events = demo_result.scene_events()
        assert (
            structure.shot_count,
            structure.scene_count,
            [events[scene].value for scene in sorted(events)],
        ) == (16, 3, ["presentation", "dialog", "clinical_operation"])
        assert [shot.start for shot in structure.shots[1:]] == [
            30, 65, 95, 130, 160, 170, 200, 230, 260, 290, 320, 330, 360, 395, 430
        ]

    def test_scene_precision_against_truth(self, demo_video, demo_result):
        structure = demo_result.structure
        evaluation = evaluate_scene_partition(
            demo_video.truth,
            structure.shots,
            [scene.shot_ids for scene in structure.scenes],
            "A",
        )
        assert evaluation.precision >= 0.5
        assert 0.0 < evaluation.crf < 1.0

    def test_database_round_trip(self, demo_result, tmp_path):
        db = VideoDatabase()
        db.register(demo_result)
        shot = demo_result.structure.shots[4]
        features = combine_features(shot.histogram, shot.texture)
        hit = db.search(features, k=1).top
        assert hit.entry.shot_id == shot.shot_id

        from repro.storage import load_database, save_database

        save_database(db, tmp_path)
        restored = load_database(tmp_path)
        assert restored.search_flat(features, k=1).top.entry.shot_id == shot.shot_id
        restored.close()

    def test_access_controlled_query(self, demo_result):
        db = VideoDatabase()
        db.register(demo_result)
        shot = demo_result.structure.shots[0]
        features = combine_features(shot.histogram, shot.texture)
        public = User(name="student", clearance=0)
        chief = User(name="chief", clearance=9)
        public_hits = db.search(features, user=public, k=5).hits
        chief_hits = db.search(features, user=chief, k=5).hits
        assert chief_hits
        # The public user sees at most what the chief sees.
        assert len(public_hits) <= len(chief_hits) + 5

    def test_skimming_stack(self, demo_video, demo_result):
        skim = build_skim(demo_result.structure, demo_result.events.events)
        fcr = fcr_by_level(skim)
        assert fcr[1] == pytest.approx(1.0)
        assert fcr[4] < fcr[1]

        scores = evaluate_all_levels(skim, demo_video.truth)
        assert len(scores) == 4

        bar = build_color_bar(demo_result.structure, demo_result.events.events)
        text = render_text_bar(bar, width=60)
        assert len(text) == 60

    def test_deterministic_rerun(self, demo_video, demo_result):
        again = ClassMiner().mine(demo_video.stream)
        assert again.structure.level_sizes() == demo_result.structure.level_sizes()
        assert again.scene_events() == demo_result.scene_events()
