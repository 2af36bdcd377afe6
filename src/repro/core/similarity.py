"""Similarity measures between shots and groups (Eqs. 1, 8, 9).

Eq. (1) — shot/shot:

    StSim(Si, Sj) = W_C * sum_k min(H_i,k, H_j,k)
                  + W_T * (1 - sum_k (T_i,k - T_j,k)^2)

Eq. (8) — shot/group: the maximum StSim against any shot of the group.

Eq. (9) — group/group: take the group with fewer shots as the benchmark
and average each benchmark shot's best match in the other group.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.kernels import (
    DEFAULT_COLOR_WEIGHT,
    DEFAULT_TEXTURE_WEIGHT,
    FeatureMatrix,
    group_pairwise_matrix,
    group_stsim_row,
)
from repro.errors import MiningError

if TYPE_CHECKING:
    from repro.core.features import Shot


@dataclass(frozen=True)
class SimilarityWeights:
    """Colour/texture mixing weights of Eq. (1)."""

    color: float = DEFAULT_COLOR_WEIGHT
    texture: float = DEFAULT_TEXTURE_WEIGHT

    def __post_init__(self) -> None:
        if self.color < 0 or self.texture < 0:
            raise MiningError("weights must be non-negative")
        if self.color + self.texture <= 0:
            raise MiningError("at least one weight must be positive")


def shot_similarity(
    a: Shot, b: Shot, weights: SimilarityWeights = SimilarityWeights()
) -> float:
    """StSim of Eq. (1); higher means more similar.

    The colour term is a histogram intersection in ``[0, 1]``; the
    texture term is ``1 - squared L2 distance`` of the coarseness
    vectors (clamped at 0 so pathological textures cannot push the
    total negative).
    """
    color_term = float(np.minimum(a.histogram, b.histogram).sum())
    texture_term = max(1.0 - float(((a.texture - b.texture) ** 2).sum()), 0.0)
    return weights.color * color_term + weights.texture * texture_term


def shot_group_similarity(
    shot: Shot,
    group_shots: Sequence[Shot],
    weights: SimilarityWeights = SimilarityWeights(),
) -> float:
    """StGpSim of Eq. (8): the shot's best match inside the group."""
    if not group_shots:
        raise MiningError("cannot compare a shot against an empty group")
    return max(shot_similarity(shot, member, weights) for member in group_shots)


def group_similarity(
    group_a: Sequence[Shot],
    group_b: Sequence[Shot],
    weights: SimilarityWeights = SimilarityWeights(),
) -> float:
    """GpSim of Eq. (9): benchmark-averaged best-match similarity.

    The smaller group is the benchmark; each of its shots contributes
    its best match in the other group, and the mean is returned.
    """
    if not group_a or not group_b:
        raise MiningError("cannot compare empty groups")
    if len(group_a) <= len(group_b):
        benchmark, other = group_a, group_b
    else:
        benchmark, other = group_b, group_a
    total = sum(shot_group_similarity(shot, other, weights) for shot in benchmark)
    return total / len(benchmark)


def group_similarity_to_many(
    group: Sequence[Shot],
    others: Sequence[Sequence[Shot]],
    weights: SimilarityWeights = SimilarityWeights(),
    group_first: bool = True,
) -> np.ndarray:
    """Batch GpSim of one group against many (one packed kernel call).

    ``group_first`` keeps the scalar oracle's benchmark tie-break:
    ``True`` evaluates ``group_similarity(group, g)`` for every ``g``,
    ``False`` evaluates ``group_similarity(g, group)``.
    """
    if not group:
        raise MiningError("cannot compare empty groups")
    return group_stsim_row(
        FeatureMatrix.from_shots(group),
        [FeatureMatrix.from_shots(g) for g in others],
        weights=weights,
        target_first=group_first,
    )


def group_similarity_matrix(
    groups: Sequence[Sequence[Shot]],
    weights: SimilarityWeights = SimilarityWeights(),
) -> np.ndarray:
    """Batch GpSim over every ordered group pair.

    ``out[i, j]`` equals ``group_similarity(groups[i], groups[j])``
    exactly (the benchmark of equal-sized groups is the first
    argument), so clustering and validity read the upper triangle and
    mirror it, while representative-group election reads full rows.
    """
    return group_pairwise_matrix(
        [FeatureMatrix.from_shots(g) for g in groups], weights=weights
    )
