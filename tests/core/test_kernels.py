"""Equivalence suite: vectorized kernels vs the scalar Eq. (1)/(8)/(9) oracle.

The scalar implementations in :mod:`repro.core.similarity` and
:mod:`repro.database.index` stay the reference; every kernel must match
them to ``<= 1e-9`` on random feature sets so the paper-fidelity tests
keep their meaning.  Property-style: each case draws several random
configurations (sizes, weights, group shapes) and checks the full
output block.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.features import Shot
from repro.core.kernels import (
    FeatureMatrix,
    banded_stsim,
    combined_stsim_to_many,
    cross_stsim,
    group_pairwise_matrix,
    group_stsim,
    group_stsim_row,
    intersection_to_many,
    pairwise_stsim,
    stsim_to_many,
)
from repro.core.similarity import (
    SimilarityWeights,
    group_similarity,
    group_similarity_matrix,
    group_similarity_to_many,
    shot_similarity,
)
from repro.database.index import feature_similarity, feature_similarity_batch
from repro.errors import MiningError

TOLERANCE = 1e-9

WEIGHT_CASES = [
    SimilarityWeights(),
    SimilarityWeights(color=0.5, texture=0.5),
    SimilarityWeights(color=1.0, texture=0.0),
    SimilarityWeights(color=0.2, texture=1.3),
]


def _random_shots(rng: np.random.Generator, count: int) -> list[Shot]:
    """Shots with normalised histograms and unit-range textures."""
    shots = []
    for index in range(count):
        histogram = rng.random(256)
        histogram /= histogram.sum()
        shots.append(
            Shot(
                shot_id=index,
                start=index * 10,
                stop=index * 10 + 10,
                fps=25.0,
                representative_frame=None,
                histogram=histogram,
                texture=rng.random(10) * 0.3,
            )
        )
    return shots


def _scalar_matrix(shots, weights) -> np.ndarray:
    n = len(shots)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = shot_similarity(shots[i], shots[j], weights)
    return out


class TestPairwiseStSim:
    @pytest.mark.parametrize("weights", WEIGHT_CASES)
    def test_matches_scalar_oracle(self, rng, weights):
        shots = _random_shots(rng, 17)
        fm = FeatureMatrix.from_shots(shots)
        expected = _scalar_matrix(shots, weights)
        np.testing.assert_allclose(
            pairwise_stsim(fm, weights), expected, atol=TOLERANCE, rtol=0
        )

    def test_analytic_diagonal(self, rng):
        shots = _random_shots(rng, 5)
        matrix = pairwise_stsim(FeatureMatrix.from_shots(shots))
        for i, shot in enumerate(shots):
            assert matrix[i, i] == pytest.approx(
                shot_similarity(shot, shot), abs=TOLERANCE
            )

    def test_chunking_is_invisible(self, rng):
        shots = _random_shots(rng, 23)
        fm = FeatureMatrix.from_shots(shots)
        whole = pairwise_stsim(fm)
        chunked = pairwise_stsim(fm, block_pairs=7)
        # Chunk boundaries may flip BLAS accumulation order (gemv vs
        # gemm), so bit-identity is not guaranteed — oracle tolerance is.
        np.testing.assert_allclose(whole, chunked, atol=1e-12, rtol=0)

    def test_empty_input(self):
        assert pairwise_stsim(FeatureMatrix.from_shots([])).shape == (0, 0)


class TestCrossStSim:
    @pytest.mark.parametrize("weights", WEIGHT_CASES)
    def test_matches_scalar_oracle(self, rng, weights):
        a = _random_shots(rng, 7)
        b = _random_shots(rng, 13)
        result = cross_stsim(
            FeatureMatrix.from_shots(a), FeatureMatrix.from_shots(b), weights
        )
        for i, sa in enumerate(a):
            for j, sb in enumerate(b):
                assert result[i, j] == pytest.approx(
                    shot_similarity(sa, sb, weights), abs=TOLERANCE
                )

    def test_single_rows(self, rng):
        a = _random_shots(rng, 1)
        b = _random_shots(rng, 1)
        result = cross_stsim(FeatureMatrix.from_shots(a), FeatureMatrix.from_shots(b))
        assert result.shape == (1, 1)
        assert result[0, 0] == pytest.approx(
            shot_similarity(a[0], b[0]), abs=TOLERANCE
        )

    def test_texture_clamp(self, rng):
        # Pathological textures whose squared distance exceeds 1 must be
        # clamped at 0, exactly like the scalar oracle.
        a = _random_shots(rng, 3)
        b = _random_shots(rng, 3)
        for shot in a:
            shot.texture[:] = 0.0
        for shot in b:
            shot.texture[:] = 1.0
        result = cross_stsim(FeatureMatrix.from_shots(a), FeatureMatrix.from_shots(b))
        for i, sa in enumerate(a):
            for j, sb in enumerate(b):
                assert result[i, j] == pytest.approx(
                    shot_similarity(sa, sb), abs=TOLERANCE
                )


class TestBandedStSim:
    @pytest.mark.parametrize("offset", [1, 2, 5])
    def test_matches_scalar_oracle(self, rng, offset):
        shots = _random_shots(rng, 12)
        band = banded_stsim(FeatureMatrix.from_shots(shots), offset)
        assert band.shape == (12 - offset,)
        for i in range(12 - offset):
            assert band[i] == pytest.approx(
                shot_similarity(shots[i], shots[i + offset]), abs=TOLERANCE
            )

    def test_short_sequence_is_empty(self, rng):
        shots = _random_shots(rng, 3)
        assert banded_stsim(FeatureMatrix.from_shots(shots), 5).size == 0

    def test_bad_offset(self, rng):
        shots = _random_shots(rng, 3)
        with pytest.raises(MiningError):
            banded_stsim(FeatureMatrix.from_shots(shots), 0)


class TestGroupStSim:
    @pytest.mark.parametrize("sizes", [(1, 1), (1, 6), (4, 4), (5, 2), (3, 8)])
    @pytest.mark.parametrize("weights", WEIGHT_CASES[:2])
    def test_matches_scalar_oracle(self, rng, sizes, weights):
        na, nb = sizes
        a = _random_shots(rng, na)
        b = _random_shots(rng, nb)
        expected = group_similarity(a, b, weights)
        value = group_stsim(
            FeatureMatrix.from_shots(a), FeatureMatrix.from_shots(b), weights
        )
        assert value == pytest.approx(expected, abs=TOLERANCE)

    def test_equal_size_benchmark_is_first_argument(self, rng):
        # Equal-sized groups benchmark on the first argument: both the
        # scalar oracle and the kernel must agree in *both* orders.
        a = _random_shots(rng, 4)
        b = _random_shots(rng, 4)
        fa, fb = FeatureMatrix.from_shots(a), FeatureMatrix.from_shots(b)
        assert group_stsim(fa, fb) == pytest.approx(
            group_similarity(a, b), abs=TOLERANCE
        )
        assert group_stsim(fb, fa) == pytest.approx(
            group_similarity(b, a), abs=TOLERANCE
        )

    def test_empty_group_raises(self, rng):
        a = FeatureMatrix.from_shots(_random_shots(rng, 2))
        empty = FeatureMatrix.from_shots([])
        with pytest.raises(MiningError):
            group_stsim(a, empty)
        with pytest.raises(MiningError):
            group_stsim(empty, a)


class TestGroupBatches:
    def test_row_matches_scalar_both_orders(self, rng):
        target = _random_shots(rng, 3)
        others = [_random_shots(rng, n) for n in (1, 3, 5, 2)]
        forward = group_similarity_to_many(target, others)
        backward = group_similarity_to_many(target, others, group_first=False)
        for g, other in enumerate(others):
            assert forward[g] == pytest.approx(
                group_similarity(target, other), abs=TOLERANCE
            )
            assert backward[g] == pytest.approx(
                group_similarity(other, target), abs=TOLERANCE
            )

    def test_matrix_matches_scalar_ordered_pairs(self, rng):
        groups = [_random_shots(rng, n) for n in (2, 4, 4, 1)]
        matrix = group_similarity_matrix(groups)
        for i, a in enumerate(groups):
            for j, b in enumerate(groups):
                if i == j:
                    continue
                assert matrix[i, j] == pytest.approx(
                    group_similarity(a, b), abs=TOLERANCE
                ), (i, j)

    def test_row_empty_group_raises(self, rng):
        target = _random_shots(rng, 2)
        with pytest.raises(MiningError):
            group_similarity_to_many(target, [_random_shots(rng, 2), []])

    def test_matrix_empty_group_raises(self, rng):
        with pytest.raises(MiningError):
            group_pairwise_matrix(
                [FeatureMatrix.from_shots(_random_shots(rng, 2)), FeatureMatrix.from_shots([])]
            )

    def test_kernel_row_matches_matrix(self, rng):
        groups = [_random_shots(rng, n) for n in (3, 2, 5)]
        fms = [FeatureMatrix.from_shots(g) for g in groups]
        matrix = group_pairwise_matrix(fms)
        row = group_stsim_row(fms[0], fms[1:])
        np.testing.assert_allclose(row, matrix[0, 1:], atol=TOLERANCE, rtol=0)


class TestCombinedKernels:
    def test_batch_matches_feature_similarity(self, rng):
        matrix = rng.random((20, 266))
        query = rng.random(266)
        scores = feature_similarity_batch(query, matrix)
        for m in range(20):
            assert scores[m] == pytest.approx(
                feature_similarity(query, matrix[m]), abs=TOLERANCE
            )

    def test_batch_matches_reduced_subspace(self, rng):
        matrix = rng.random((12, 266))
        query = rng.random(266)
        dims = np.sort(rng.choice(266, size=64, replace=False))
        scores = feature_similarity_batch(query, matrix, dims=dims)
        for m in range(12):
            assert scores[m] == pytest.approx(
                feature_similarity(query, matrix[m], dims=dims), abs=TOLERANCE
            )

    def test_to_many_helpers(self, rng):
        matrix = rng.random((8, 266))
        query = rng.random(266)
        np.testing.assert_allclose(
            combined_stsim_to_many(query, matrix),
            feature_similarity_batch(query, matrix),
            atol=0,
        )
        dims = np.arange(0, 266, 3)
        np.testing.assert_allclose(
            intersection_to_many(query[dims], matrix[:, dims]),
            feature_similarity_batch(query, matrix, dims=dims),
            atol=0,
        )


class TestFeatureMatrix:
    def test_to_many_matches_scalar(self, rng):
        shots = _random_shots(rng, 9)
        query = shots[0]
        values = stsim_to_many(
            query.histogram, query.texture, FeatureMatrix.from_shots(shots[1:])
        )
        for i, shot in enumerate(shots[1:]):
            assert values[i] == pytest.approx(
                shot_similarity(query, shot), abs=TOLERANCE
            )

    def test_take_subsets_rows(self, rng):
        shots = _random_shots(rng, 6)
        fm = FeatureMatrix.from_shots(shots)
        sub = fm.take([1, 3])
        assert len(sub) == 2
        np.testing.assert_array_equal(sub.histograms[0], shots[1].histogram)

    def test_shape_validation(self, rng):
        with pytest.raises(MiningError):
            FeatureMatrix(np.zeros((3, 256)), np.zeros((2, 10)))
        with pytest.raises(MiningError):
            FeatureMatrix(np.zeros(256), np.zeros(10))

    def test_concatenate_empty(self):
        fm = FeatureMatrix.concatenate([])
        assert len(fm) == 0


class TestBlockedScans:
    """The one-to-many scans walk rows in chunks: same bits, bounded temporaries."""

    ROWS = 20_000  # ~80 chunks of a 266-d scan; the unchunked temporary would be 41 MB

    @pytest.fixture(scope="class")
    def block(self):
        rng = np.random.default_rng(11)
        return rng.random((self.ROWS, 266)), rng.random(266)

    def test_chunked_scan_is_bit_identical_to_one_block(self, block):
        from repro.core.kernels import combined_stsim_to_many, intersection_to_many

        matrix, query = block
        color = np.minimum(query[None, :256], matrix[:, :256]).sum(axis=1)
        diff = matrix[:, 256:] - query[None, 256:]
        whole = 0.7 * color + 0.3 * np.maximum(1.0 - (diff * diff).sum(axis=1), 0.0)
        assert np.array_equal(combined_stsim_to_many(query, matrix), whole)
        reduced = np.ascontiguousarray(matrix[:, ::4])
        assert np.array_equal(
            intersection_to_many(query[::4], reduced),
            np.minimum(query[None, ::4], reduced).sum(axis=1),
        )

    def test_row_subset_equals_scanning_then_selecting(self, block):
        from repro.core.kernels import combined_stsim_to_many, intersection_to_many

        matrix, query = block
        rows = np.random.default_rng(12).permutation(self.ROWS)[:7001]
        assert np.array_equal(
            combined_stsim_to_many(query, matrix, rows=rows),
            combined_stsim_to_many(query, matrix)[rows],
        )
        assert np.array_equal(
            intersection_to_many(query, matrix, rows), intersection_to_many(query, matrix)[rows]
        )
        assert intersection_to_many(query, matrix, rows[:0]).shape == (0,)

    def test_chunk_counter_counts_chunks_evaluated(self, block):
        from repro.core.kernels import (
            KERNEL_STATS,
            SCAN_SCRATCH_ELEMS,
            combined_stsim_to_many,
            intersection_to_many,
        )

        matrix, query = block
        before = KERNEL_STATS.chunks
        combined_stsim_to_many(query, matrix)
        # One pass of 256-row chunks scores both terms (there was a second
        # pass of 6553-row chunks over the 10-d textures).
        rows = SCAN_SCRATCH_ELEMS // 256
        assert KERNEL_STATS.chunks - before == -(-self.ROWS // rows)
        before = KERNEL_STATS.chunks
        intersection_to_many(query[:64], matrix[:100, :64])
        assert KERNEL_STATS.chunks - before == 1

    def test_no_scan_allocates_more_than_a_chunk_or_two(self, block):
        import tracemalloc

        from repro.core.kernels import SCAN_SCRATCH_ELEMS, combined_stsim_to_many

        matrix, query = block
        rows = np.arange(0, self.ROWS, 2)
        combined_stsim_to_many(query, matrix)  # this thread's scratch exists from here on
        tracemalloc.start()
        try:
            combined_stsim_to_many(query, matrix)
            combined_stsim_to_many(query, matrix, rows=rows)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        result_bytes = 8 * self.ROWS
        assert peak <= result_bytes + 2 * 8 * SCAN_SCRATCH_ELEMS
