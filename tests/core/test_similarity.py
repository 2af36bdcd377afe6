"""Tests for StSim / StGpSim / GpSim (Eqs. 1, 8, 9)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import Shot
from repro.core.kernels import FeatureMatrix, pairwise_stsim
from repro.core.similarity import (
    SimilarityWeights,
    group_similarity,
    shot_group_similarity,
    shot_similarity,
)
from repro.errors import MiningError
from tests.helpers import blank_frame


def _shot(shot_id: int, histogram: np.ndarray, texture: np.ndarray) -> Shot:
    return Shot(
        shot_id=shot_id,
        start=shot_id * 10,
        stop=shot_id * 10 + 10,
        fps=10.0,
        representative_frame=blank_frame(4, 4),
        histogram=histogram,
        texture=texture,
    )


def _random_shot(rng, shot_id: int) -> Shot:
    histogram = rng.random(256)
    histogram /= histogram.sum()
    return _shot(shot_id, histogram, rng.random(10))


class TestWeights:
    def test_defaults_are_paper_values(self):
        weights = SimilarityWeights()
        assert weights.color == 0.7
        assert weights.texture == 0.3

    def test_rejects_negative(self):
        with pytest.raises(MiningError):
            SimilarityWeights(color=-0.1)

    def test_rejects_all_zero(self):
        with pytest.raises(MiningError):
            SimilarityWeights(color=0.0, texture=0.0)


class TestShotSimilarity:
    def test_identical_shots_score_one(self, rng):
        shot = _random_shot(rng, 0)
        assert shot_similarity(shot, shot) == pytest.approx(1.0)

    def test_symmetry(self, rng):
        a, b = _random_shot(rng, 0), _random_shot(rng, 1)
        assert shot_similarity(a, b) == pytest.approx(shot_similarity(b, a))

    def test_disjoint_histograms_score_only_texture(self):
        h1 = np.zeros(256)
        h1[0] = 1.0
        h2 = np.zeros(256)
        h2[255] = 1.0
        t = np.full(10, 0.5)
        a, b = _shot(0, h1, t), _shot(1, h2, t)
        assert shot_similarity(a, b) == pytest.approx(0.3)  # W_T * 1.0

    def test_texture_term_clamped_at_zero(self):
        h = np.ones(256) / 256
        a = _shot(0, h, np.zeros(10))
        b = _shot(1, h, np.ones(10) * 1.0)  # squared distance 10 > 1
        value = shot_similarity(a, b)
        assert value == pytest.approx(0.7)  # colour only

    def test_custom_weights(self, rng):
        a, b = _random_shot(rng, 0), _random_shot(rng, 1)
        color_only = shot_similarity(a, b, SimilarityWeights(1.0, 0.0))
        assert color_only == pytest.approx(
            float(np.minimum(a.histogram, b.histogram).sum())
        )


class TestGroupSimilarity:
    def test_shot_group_takes_max(self, rng):
        shots = [_random_shot(rng, i) for i in range(4)]
        query = shots[0]
        value = shot_group_similarity(query, shots[1:])
        expected = max(shot_similarity(query, s) for s in shots[1:])
        assert value == pytest.approx(expected)

    def test_group_similarity_uses_smaller_benchmark(self, rng):
        small = [_random_shot(rng, i) for i in range(2)]
        large = [_random_shot(rng, 10 + i) for i in range(5)]
        value = group_similarity(small, large)
        expected = np.mean(
            [shot_group_similarity(s, large) for s in small]
        )
        assert value == pytest.approx(float(expected))

    def test_group_similarity_symmetric(self, rng):
        a = [_random_shot(rng, i) for i in range(3)]
        b = [_random_shot(rng, 10 + i) for i in range(5)]
        assert group_similarity(a, b) == pytest.approx(group_similarity(b, a))

    def test_identical_groups_score_one(self, rng):
        group = [_random_shot(rng, i) for i in range(3)]
        assert group_similarity(group, group) == pytest.approx(1.0)

    def test_empty_inputs_raise(self, rng):
        shot = _random_shot(rng, 0)
        with pytest.raises(MiningError):
            shot_group_similarity(shot, [])
        with pytest.raises(MiningError):
            group_similarity([], [shot])


class TestSimilarityMatrix:
    def test_symmetric_with_unit_diagonal(self, rng):
        shots = [_random_shot(rng, i) for i in range(5)]
        matrix = pairwise_stsim(FeatureMatrix.from_shots(shots))
        assert matrix.shape == (5, 5)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 1.0)


@given(seed=st.integers(0, 99999))
@settings(max_examples=30, deadline=None)
def test_similarity_bounded(seed):
    rng = np.random.default_rng(seed)
    a, b = _random_shot(rng, 0), _random_shot(rng, 1)
    value = shot_similarity(a, b)
    assert 0.0 <= value <= 1.0 + 1e-9
