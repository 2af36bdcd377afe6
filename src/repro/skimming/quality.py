"""Simulated viewer panel for skim quality (Fig. 14).

The paper's evaluation asked five students to score each skim level on
three questions (0-5, 5 best):

1. How well does the summary address the **main topic**?
2. How well does the summary cover the **scenarios** of the video?
3. Is the summary **concise**?

Real viewers being unavailable, we model the three questions as
measurable quantities against ground truth and average a panel of noisy
simulated viewers the same way the paper averages its students:

* Q1 — coverage of *topic-relevant* annotated scenes (with diminishing
  returns: seeing one topic shot already tells you the topic);
* Q2 — coverage of *all* annotated content scenes, linear;
* Q3 — non-redundancy: the fraction of skim shots that add a scene not
  already represented.

Each simulated viewer perturbs the objective score with personal bias
and per-question noise, then scores are clamped to [0, 5] and averaged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SkimmingError
from repro.skimming.skim import ScalableSkim
from repro.video.ground_truth import GroundTruth

#: Paper panel size.
DEFAULT_VIEWERS = 5


@dataclass(frozen=True)
class QualityScores:
    """Averaged panel scores for one skim level."""

    level: int
    topic: float
    scenario: float
    conciseness: float

    def as_tuple(self) -> tuple[float, float, float]:
        """``(Q1, Q2, Q3)``."""
        return (self.topic, self.scenario, self.conciseness)

    @property
    def overall(self) -> float:
        """Mean of the three questions (used to find the best level)."""
        return (self.topic + self.scenario + self.conciseness) / 3.0


def _covered_scenes(skim: ScalableSkim, truth: GroundTruth, level: int) -> set[int]:
    """Annotated scene ids represented by at least one skim shot."""
    covered: set[int] = set()
    for segment in skim.segments(level):
        start, stop = segment.frame_span
        midpoint = (start + stop) // 2
        for annotated in truth.shots:
            if annotated.contains(midpoint):
                covered.add(annotated.scene_id)
                break
    return covered


def objective_scores(
    skim: ScalableSkim, truth: GroundTruth, level: int
) -> tuple[float, float, float]:
    """Noise-free (Q1, Q2, Q3) in [0, 5] for one level."""
    content_scenes = {
        scene.scene_id for scene in truth.scenes if scene.shot_count >= 2
    }
    topic_scenes = {
        scene.scene_id for scene in truth.scenes if scene.topic_relevant
    }
    if not content_scenes:
        raise SkimmingError("ground truth has no content scenes")

    covered = _covered_scenes(skim, truth, level)
    topic_cover = (
        len(covered & topic_scenes) / len(topic_scenes) if topic_scenes else 1.0
    )
    scenario_cover = len(covered & content_scenes) / len(content_scenes)

    segments = skim.segments(level)
    # Non-redundancy: each skim shot should introduce a new scene.
    seen: set[int] = set()
    novel = 0
    for segment in segments:
        midpoint = (segment.frame_span[0] + segment.frame_span[1]) // 2
        scene_id = next(
            (s.scene_id for s in truth.shots if s.contains(midpoint)), None
        )
        if scene_id is not None and scene_id not in seen:
            seen.add(scene_id)
            novel += 1
    redundancy = 1.0 - novel / len(segments) if segments else 1.0

    q1 = 5.0 * np.sqrt(topic_cover)  # diminishing returns on topic
    q2 = 5.0 * scenario_cover
    q3 = 5.0 * (1.0 - 0.85 * redundancy)
    return (float(q1), float(q2), float(q3))


def panel_scores(
    skim: ScalableSkim,
    truth: GroundTruth,
    level: int,
    viewers: int = DEFAULT_VIEWERS,
    seed: int = 0,
) -> QualityScores:
    """Average a panel of noisy simulated viewers for one level."""
    if viewers < 1:
        raise SkimmingError("need at least one viewer")
    q1, q2, q3 = objective_scores(skim, truth, level)
    rng = np.random.default_rng(seed + level)
    samples = []
    for _ in range(viewers):
        bias = rng.normal(0.0, 0.15)  # per-viewer generosity
        noisy = [
            float(np.clip(q + bias + rng.normal(0.0, 0.25), 0.0, 5.0))
            for q in (q1, q2, q3)
        ]
        samples.append(noisy)
    means = np.mean(samples, axis=0)
    return QualityScores(
        level=level,
        topic=float(means[0]),
        scenario=float(means[1]),
        conciseness=float(means[2]),
    )


def evaluate_all_levels(
    skim: ScalableSkim,
    truth: GroundTruth,
    viewers: int = DEFAULT_VIEWERS,
    seed: int = 0,
) -> list[QualityScores]:
    """Fig. 14: panel scores for every skim level, coarsest last."""
    return [
        panel_scores(skim, truth, level, viewers=viewers, seed=seed)
        for level in sorted(skim.levels)
    ]
