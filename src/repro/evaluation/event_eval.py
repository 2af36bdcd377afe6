"""Event-mining evaluation producing the Table 1 counts (Sec. 6.1).

The paper "manually select[s] scenes which distinctly belong to one of
the event categories" as benchmarks, then lets the miner label them.
Here the manual selection is replayed against ground truth: a detected
scene enters the benchmark for category X when at least 70% of its
frames come from annotated scenes of category X.  SN / DN / TN then
follow the paper's definitions:

* SN — benchmark scenes of the category;
* DN — scenes the miner assigned to the category;
* TN — benchmark scenes of the category the miner got right.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.scenes import Scene
from repro.errors import EvaluationError
from repro.evaluation.metrics import PrecisionRecall
from repro.types import EventKind
from repro.video.ground_truth import GroundTruth

#: Frame-majority needed for a scene to "distinctly belong" to a category.
DISTINCT_FRACTION = 0.7


def dominant_event(truth: GroundTruth, start: int, stop: int) -> EventKind | None:
    """Category owning >= 70% of the span's frames, else None."""
    if stop <= start:
        raise EvaluationError(f"empty span [{start}, {stop})")
    totals: dict[EventKind, int] = {}
    covered = 0
    for shot in truth.shots:
        frames = max(0, min(shot.stop, stop) - max(shot.start, start))
        if not frames:
            continue
        event = truth.scene_of_shot(shot.shot_id).event
        covered += frames
        # Separator/filler frames are not counted against distinctness.
        if event is EventKind.UNKNOWN:
            continue
        totals[event] = totals.get(event, 0) + frames
    if not totals or covered == 0:
        return None
    content_frames = sum(totals.values())
    if content_frames < 0.5 * (stop - start):
        return None  # mostly separators/filler: not a distinct benchmark
    best = max(totals, key=lambda kind: totals[kind])
    if totals[best] / content_frames >= DISTINCT_FRACTION:
        return best
    return None


@dataclass(frozen=True)
class EventBenchmarkCase:
    """One benchmark scene with its truth and mined labels."""

    scene_id: int
    truth_event: EventKind
    mined_event: EventKind


@dataclass
class EventTable:
    """Table 1: per-category counts plus the pooled average row."""

    rows: dict[EventKind, PrecisionRecall]

    @property
    def average(self) -> PrecisionRecall:
        """The paper's Average row (pooled counts)."""
        return PrecisionRecall.combine(list(self.rows.values()))


def build_benchmark(
    truth: GroundTruth,
    scenes: list[Scene],
    mined_events: dict[int, EventKind],
) -> list[EventBenchmarkCase]:
    """Select distinct benchmark scenes and pair truth with mined labels."""
    cases = []
    for scene in scenes:
        start, stop = scene.frame_span
        truth_event = dominant_event(truth, start, stop)
        if truth_event is None:
            continue
        mined = mined_events.get(scene.scene_id, EventKind.UNKNOWN)
        cases.append(
            EventBenchmarkCase(
                scene_id=scene.scene_id, truth_event=truth_event, mined_event=mined
            )
        )
    return cases


def tabulate_events(cases: list[EventBenchmarkCase]) -> EventTable:
    """Aggregate benchmark cases into the Table 1 counts."""
    if not cases:
        raise EvaluationError("no benchmark cases")
    rows: dict[EventKind, PrecisionRecall] = {}
    for kind in EventKind.known_kinds():
        selected = sum(1 for case in cases if case.truth_event is kind)
        detected = sum(1 for case in cases if case.mined_event is kind)
        true = sum(
            1
            for case in cases
            if case.truth_event is kind and case.mined_event is kind
        )
        rows[kind] = PrecisionRecall(selected=selected, detected=detected, true=true)
    return EventTable(rows=rows)
