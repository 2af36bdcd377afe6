"""Tests for group detection, classification and representatives."""

import numpy as np
import pytest

from repro.core.features import Shot
from repro.core.groups import (
    GroupKind,
    GroupThresholds,
    classify_group,
    detect_group_boundaries,
    detect_groups,
    select_representative_shot,
    separation_factors,
)
from repro.errors import MiningError
from tests.helpers import blank_frame


def _shot_with_bin(shot_id: int, bin_index: int, length: int = 10) -> Shot:
    """A shot whose histogram is one spike at ``bin_index``."""
    histogram = np.zeros(256)
    histogram[bin_index] = 1.0
    return Shot(
        shot_id=shot_id,
        start=shot_id * length,
        stop=(shot_id + 1) * length,
        fps=10.0,
        representative_frame=blank_frame(4, 4),
        histogram=histogram,
        texture=np.full(10, 0.5),
    )


def _alternating_shots(pattern: str) -> list[Shot]:
    """Shots from a letter pattern: same letter = same visual content."""
    bins = {letter: 10 * (ord(letter) - ord("A")) for letter in set(pattern)}
    return [_shot_with_bin(i, bins[letter]) for i, letter in enumerate(pattern)]


class TestBoundaryDetection:
    def test_two_blocks_split(self):
        shots = _alternating_shots("AAAABBBB")
        boundaries, _ = detect_group_boundaries(shots)
        assert boundaries == [4]

    def test_alternation_stays_together(self):
        shots = _alternating_shots("ABABABAB")
        boundaries, _ = detect_group_boundaries(shots)
        # Shot 1 is a known edge artifact (no i-2 context yet); the body
        # of the alternation must not be split.
        assert all(b <= 1 for b in boundaries)

    def test_alternating_then_new_location(self):
        shots = _alternating_shots("ABABCCCC")
        boundaries, _ = detect_group_boundaries(shots)
        assert boundaries == [4]

    def test_isolated_separator_shot(self):
        shots = _alternating_shots("AAAXBBB")
        boundaries, _ = detect_group_boundaries(shots)
        assert 3 in boundaries  # X starts its own group
        assert 4 in boundaries  # B resumes after the separator

    def test_rejects_empty(self):
        with pytest.raises(MiningError):
            detect_group_boundaries([])

    def test_explicit_thresholds_respected(self):
        shots = _alternating_shots("AAAABBBB")
        thresholds = GroupThresholds(t1=1e9, t2=-1.0)
        # Impossible thresholds: nothing can be a boundary via step 1,
        # and step 2 never fires because CR > T2 - 0.1 always holds.
        boundaries, used = detect_group_boundaries(shots, thresholds=thresholds)
        assert boundaries == []
        assert used is thresholds


class TestSeparationFactors:
    def test_boundary_spikes(self):
        shots = _alternating_shots("AAAABBBB")
        from repro.core.groups import _side_similarities

        cl, cr = _side_similarities(shots, __import__("repro.core.similarity", fromlist=["SimilarityWeights"]).SimilarityWeights())
        factors = separation_factors(cl, cr)
        assert np.argmax(factors) == 4  # first B


class TestClassification:
    def test_spatial_group(self):
        shots = _alternating_shots("AAAA")
        kind, clusters = classify_group(shots)
        assert kind is GroupKind.SPATIAL
        assert len(clusters) == 1

    def test_temporal_group(self):
        shots = _alternating_shots("ABABAB")
        kind, clusters = classify_group(shots)
        assert kind is GroupKind.TEMPORAL
        assert len(clusters) == 2
        # Clusters respect content: all A shots together.
        ids = sorted(tuple(sorted(s.shot_id for s in c)) for c in clusters)
        assert ids == [(0, 2, 4), (1, 3, 5)]


class TestRepresentativeShot:
    def test_single_shot(self):
        shots = _alternating_shots("A")
        assert select_representative_shot(shots) is shots[0]

    def test_two_shots_prefers_longer(self):
        short = _shot_with_bin(0, 0, length=10)
        long = Shot(
            shot_id=1,
            start=10,
            stop=40,
            fps=10.0,
            representative_frame=blank_frame(4, 4),
            histogram=short.histogram.copy(),
            texture=short.texture.copy(),
        )
        assert select_representative_shot([short, long]) is long

    def test_three_shots_prefers_central(self):
        h_mid = np.zeros(256)
        h_mid[0] = 0.5
        h_mid[10] = 0.5
        shots = [
            _shot_with_bin(0, 0),
            _shot_with_bin(1, 10),
        ]
        middle = Shot(
            shot_id=2,
            start=20,
            stop=30,
            fps=10.0,
            representative_frame=blank_frame(4, 4),
            histogram=h_mid,
            texture=np.full(10, 0.5),
        )
        # The mixed shot is most similar to both others on average.
        assert select_representative_shot(shots + [middle]) is middle

    def test_empty_raises(self):
        with pytest.raises(MiningError):
            select_representative_shot([])


class TestDetectGroups:
    def test_full_pipeline(self):
        shots = _alternating_shots("ABABAB" + "CCCC")
        groups, thresholds = detect_groups(shots)
        # The alternation body forms one temporal group (shot 0 may be
        # split off as a start-of-sequence artifact) and the C block one
        # spatial group.
        assert thresholds.t2 > 0
        assert groups[-1].shot_ids == [6, 7, 8, 9]
        assert not groups[-1].is_temporal
        body = next(g for g in groups if 3 in g.shot_ids)
        assert body.is_temporal
        assert set(body.shot_ids) >= {1, 2, 3, 4, 5}

    def test_representatives_cover_clusters(self):
        shots = _alternating_shots("ABABAB")
        groups, _ = detect_groups(shots)
        body = next(g for g in groups if 3 in g.shot_ids)
        assert len(body.representative_shots) == 2

    def test_group_properties(self):
        shots = _alternating_shots("AAA")
        groups, _ = detect_groups(shots)
        group = groups[0]
        assert group.shot_count == 3
        assert group.duration == pytest.approx(3.0)
        assert group.frame_span == (0, 30)
