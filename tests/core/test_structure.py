"""Tests for the end-to-end content-structure miner."""

import pytest

from repro.core.structure import ContentStructure, MiningConfig, mine_content_structure
from repro.errors import MiningError


class TestMineContentStructure:
    def test_hierarchy_levels_are_coarsening(self, demo_structure):
        sizes = demo_structure.level_sizes()
        assert sizes["shots"] >= sizes["groups"] >= sizes["scenes"]
        assert sizes["scenes"] >= sizes["clustered_scenes"]
        assert sizes["clustered_scenes"] >= 1

    def test_groups_partition_shots(self, demo_structure):
        grouped = sorted(
            shot_id for group in demo_structure.groups for shot_id in group.shot_ids
        )
        assert grouped == [shot.shot_id for shot in demo_structure.shots]

    def test_scenes_cover_subset_of_shots(self, demo_structure):
        scene_shots = [
            shot_id for scene in demo_structure.scenes for shot_id in scene.shot_ids
        ]
        assert len(scene_shots) == len(set(scene_shots))
        all_ids = {shot.shot_id for shot in demo_structure.shots}
        assert set(scene_shots) <= all_ids

    def test_crf_matches_definition(self, demo_structure):
        assert demo_structure.compression_rate_factor == pytest.approx(
            demo_structure.scene_count / demo_structure.shot_count
        )

    def test_scene_of_shot(self, demo_structure):
        scene = demo_structure.scenes[0]
        shot_id = scene.shot_ids[0]
        assert demo_structure.scene_of_shot(shot_id) is scene
        # Shots of eliminated scenes map to None.
        scene_shots = {
            s for scene in demo_structure.scenes for s in scene.shot_ids
        }
        orphans = [s.shot_id for s in demo_structure.shots if s.shot_id not in scene_shots]
        for orphan in orphans:
            assert demo_structure.scene_of_shot(orphan) is None

    def test_cluster_of_scene(self, demo_structure):
        for scene in demo_structure.scenes:
            clusters = [
                cluster
                for cluster in demo_structure.clustered_scenes
                if scene.scene_id in cluster.scene_ids
            ]
            assert len(clusters) == 1

    def test_oracle_spans_bypass_detection(self, demo_video):
        spans = [(s.start, s.stop) for s in demo_video.truth.shots]
        structure = mine_content_structure(
            demo_video.stream, oracle_shot_spans=spans
        )
        assert structure.shot_count == demo_video.truth.shot_count
        assert structure.shot_detection is None

    def test_custom_config_window(self, demo_video):
        config = MiningConfig(shot_window=20)
        structure = mine_content_structure(demo_video.stream, config)
        assert structure.shot_count >= 1

    def test_empty_structure_crf_raises(self, demo_structure):
        bare = ContentStructure(
            title="x", shots=[], groups=[], scenes=[], clustered_scenes=[]
        )
        with pytest.raises(MiningError):
            bare.compression_rate_factor
