"""Tests for the reimplemented comparison methods (B, C)."""

import numpy as np
import pytest

from repro.baselines.lin_grouping import coherence_signal, lin_detect_scenes
from repro.baselines.rui_toc import rui_detect_scenes, rui_group_shots
from repro.core.features import Shot
from repro.errors import MiningError
from tests.helpers import blank_frame


def _shot(shot_id: int, bin_index: int, length: int = 30) -> Shot:
    histogram = np.zeros(256)
    histogram[bin_index] = 0.85
    histogram[(bin_index + 3) % 256] = 0.15
    return Shot(
        shot_id=shot_id,
        start=shot_id * length,
        stop=(shot_id + 1) * length,
        fps=10.0,
        representative_frame=blank_frame(4, 4),
        histogram=histogram,
        texture=np.full(10, 0.5),
    )


def _pattern(pattern: str) -> list[Shot]:
    return [
        _shot(i, (40 * (ord(c) - ord("A"))) % 250) for i, c in enumerate(pattern)
    ]


class TestRuiMethod:
    def test_groups_similar_shots(self):
        shots = _pattern("AAAA" + "BBBB")
        groups = rui_group_shots(shots)
        memberships = sorted(sorted(s.shot_id for s in g) for g in groups)
        assert memberships == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_time_attenuation_blocks_far_matches(self):
        # A shots separated by a long B block: attenuation keeps the
        # far A shots from re-joining the first A group.
        shots = _pattern("AA" + "B" * 20 + "AA")
        groups = rui_group_shots(shots, tau=6.0)
        first_group = next(g for g in groups if g[0].shot_id == 0)
        assert all(s.shot_id < 10 for s in first_group)

    def test_scene_construction(self):
        shots = _pattern("AAAA" + "BBBB")
        result = rui_detect_scenes(shots, scene_threshold=0.5)
        assert result.method == "B"
        assert result.scenes == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_rejects_empty(self):
        with pytest.raises(MiningError):
            rui_group_shots([])


class TestLinMethod:
    def test_coherence_dips_at_boundary(self):
        shots = _pattern("AAAA" + "BBBB")
        coherence = coherence_signal(shots)
        assert np.argmin(coherence) == 3  # boundary between shots 3 and 4

    def test_detects_two_scenes(self):
        shots = _pattern("AAAA" + "BBBB")
        result = lin_detect_scenes(shots, threshold=0.5)
        assert result.scenes == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_window_bridges_alternation(self):
        shots = _pattern("ABABAB")
        coherence = coherence_signal(shots, window=3)
        # With a window of 3 every boundary sees a same-content shot.
        assert coherence.min() > 0.9

    def test_single_shot(self):
        result = lin_detect_scenes(_pattern("A"))
        assert result.scenes == [[0]]

    def test_rejects_empty(self):
        with pytest.raises(MiningError):
            lin_detect_scenes([])


class TestPaperOrderingOnDemo:
    def test_method_c_merges_most(self, demo_structure, demo_video):
        """Method C should produce the fewest scenes (best compression)."""
        shots = demo_structure.shots
        from repro.evaluation import evaluate_scene_partition

        a = evaluate_scene_partition(
            demo_video.truth, shots,
            [s.shot_ids for s in demo_structure.scenes], "A",
        )
        c = evaluate_scene_partition(
            demo_video.truth, shots, lin_detect_scenes(shots).scenes, "C"
        )
        assert c.crf <= a.crf + 0.05
