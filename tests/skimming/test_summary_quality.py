"""Tests for FCR accounting, storyboards and the viewer panel."""

import pytest

from repro.errors import SkimmingError
from repro.skimming.quality import (
    evaluate_all_levels,
    objective_scores,
    panel_scores,
)
from repro.skimming.skim import build_skim
from repro.skimming.summary import (
    fcr_by_level,
    frame_compression_ratio,
    pictorial_summary,
    render_storyboard,
)


@pytest.fixture(scope="module")
def skim(demo_result):
    return build_skim(demo_result.structure, demo_result.events.events)


class TestFcr:
    def test_level1_is_full_video(self, skim):
        assert frame_compression_ratio(skim, 1) == pytest.approx(1.0)

    def test_monotone_decreasing_with_level(self, skim):
        fcr = fcr_by_level(skim)
        assert fcr[4] <= fcr[3] <= fcr[2] <= fcr[1]

    def test_top_level_strongly_compressed(self, skim):
        # Fig. 15: about 10% at the top layer; allow slack on a tiny demo.
        assert frame_compression_ratio(skim, 4) < 0.6


class TestStoryboard:
    def test_cells_match_segments(self, skim):
        cells = pictorial_summary(skim, level=3)
        assert len(cells) == len(skim.segments(3))
        for cell in cells:
            assert cell.caption().startswith("shot ")

    def test_render(self, skim):
        text = render_storyboard(skim, level=3, columns=2)
        assert "shot" in text
        assert "\n" in text or len(skim.segments(3)) <= 2


class TestQualityPanel:
    def test_objective_scores_in_range(self, skim, demo_truth):
        for level in (1, 2, 3, 4):
            scores = objective_scores(skim, demo_truth, level)
            assert all(0.0 <= q <= 5.0 for q in scores)

    def test_level1_covers_everything(self, skim, demo_truth):
        q1, q2, _ = objective_scores(skim, demo_truth, 1)
        assert q1 == pytest.approx(5.0)
        assert q2 == pytest.approx(5.0)

    def test_conciseness_improves_with_level(self, skim, demo_truth):
        _, _, q3_fine = objective_scores(skim, demo_truth, 1)
        _, _, q3_coarse = objective_scores(skim, demo_truth, 4)
        assert q3_coarse > q3_fine

    def test_panel_is_deterministic_per_seed(self, skim, demo_truth):
        a = panel_scores(skim, demo_truth, 3, seed=5)
        b = panel_scores(skim, demo_truth, 3, seed=5)
        assert a == b

    def test_panel_close_to_objective(self, skim, demo_truth):
        objective = objective_scores(skim, demo_truth, 3)
        panel = panel_scores(skim, demo_truth, 3, viewers=25, seed=1)
        for subjective, true_value in zip(panel.as_tuple(), objective):
            assert subjective == pytest.approx(true_value, abs=0.5)

    def test_evaluate_all_levels(self, skim, demo_truth):
        scores = evaluate_all_levels(skim, demo_truth)
        assert [s.level for s in scores] == [1, 2, 3, 4]
        winner = max(scores, key=lambda s: s.overall).level
        assert winner in (2, 3)  # paper finds the mid levels optimal

    def test_zero_viewers_rejected(self, skim, demo_truth):
        with pytest.raises(SkimmingError):
            panel_scores(skim, demo_truth, 3, viewers=0)
