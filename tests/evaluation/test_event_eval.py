"""Tests for the Table 1 event-evaluation machinery."""

import pytest

from repro.errors import EvaluationError
from repro.evaluation.event_eval import (
    EventBenchmarkCase,
    build_benchmark,
    dominant_event,
    tabulate_events,
)
from repro.types import EventKind
from repro.video.ground_truth import GroundTruth, SceneSpan, ShotSpan


@pytest.fixture()
def truth():
    shots = [
        ShotSpan(0, 0, 30, scene_id=0),
        ShotSpan(1, 30, 60, scene_id=0),
        ShotSpan(2, 60, 70, scene_id=1),  # separator
        ShotSpan(3, 70, 100, scene_id=2),
        ShotSpan(4, 100, 130, scene_id=2),
    ]
    scenes = [
        SceneSpan(0, 0, 1, event=EventKind.PRESENTATION),
        SceneSpan(1, 2, 2, event=EventKind.UNKNOWN),
        SceneSpan(2, 3, 4, event=EventKind.DIALOG),
    ]
    return GroundTruth(shots=shots, groups=[[0, 1], [2], [3, 4]], scenes=scenes)


class TestDominantEvent:
    def test_pure_span(self, truth):
        assert dominant_event(truth, 0, 60) is EventKind.PRESENTATION
        assert dominant_event(truth, 70, 130) is EventKind.DIALOG

    def test_mixed_span_is_not_distinct(self, truth):
        assert dominant_event(truth, 30, 100) is None

    def test_separator_heavy_span_is_not_distinct(self, truth):
        # 60-72: mostly separator frames -> no benchmark.
        assert dominant_event(truth, 59, 71) is None

    def test_rejects_empty_span(self, truth):
        with pytest.raises(EvaluationError):
            dominant_event(truth, 5, 5)


class TestTabulate:
    def _cases(self):
        return [
            EventBenchmarkCase(0, EventKind.PRESENTATION, EventKind.PRESENTATION),
            EventBenchmarkCase(1, EventKind.PRESENTATION, EventKind.CLINICAL_OPERATION),
            EventBenchmarkCase(2, EventKind.DIALOG, EventKind.DIALOG),
            EventBenchmarkCase(3, EventKind.DIALOG, EventKind.UNKNOWN),
            EventBenchmarkCase(4, EventKind.CLINICAL_OPERATION, EventKind.CLINICAL_OPERATION),
        ]

    def test_counts(self):
        table = tabulate_events(self._cases())
        presentation = table.rows[EventKind.PRESENTATION]
        assert (presentation.selected, presentation.detected, presentation.true) == (2, 1, 1)
        clinical = table.rows[EventKind.CLINICAL_OPERATION]
        assert (clinical.selected, clinical.detected, clinical.true) == (1, 2, 1)
        assert clinical.precision == pytest.approx(0.5)

    def test_average_row_pools(self):
        table = tabulate_events(self._cases())
        assert table.average.selected == 5
        assert table.average.true == 3

    def test_rejects_empty(self):
        with pytest.raises(EvaluationError):
            tabulate_events([])


class TestBuildBenchmarkOnDemo:
    def test_benchmark_covers_content_scenes(self, demo_video, demo_result):
        cases = build_benchmark(
            demo_video.truth,
            demo_result.structure.scenes,
            demo_result.scene_events(),
        )
        assert cases  # the demo has distinct content scenes
        truth_kinds = {case.truth_event for case in cases}
        assert truth_kinds <= set(EventKind.known_kinds())
