"""Cluster validity analysis (Eqs. 14-16).

The optimal number of scene clusters minimises the ratio of
intra-cluster to inter-cluster distance:

    rho(N) = (1/N) * sum_i  max_{j != i}  (sigma_i + sigma_j) / xi_ij

with sigma_i the mean distance of cluster members to their centroid
(Eq. 15, distances are ``1 - GpSim``) and xi_ij the distance between
centroids.  The search range is C_min = [0.5 M] to C_max = [0.7 M] —
the paper eliminates 30-50 % of the original scenes.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.groups import Group
from repro.core.similarity import (
    SimilarityWeights,
    group_similarity_matrix,
    group_similarity_to_many,
)
from repro.errors import MiningError

#: Paper search range fractions.
CLUSTER_FRACTION_LOW = 0.5
CLUSTER_FRACTION_HIGH = 0.7


def search_range(scene_count: int) -> tuple[int, int]:
    """``(C_min, C_max)`` for a given number of scenes.

    Degenerate inputs (fewer than 4 scenes) return ``(M, M)`` — too few
    scenes to justify clustering.
    """
    if scene_count < 1:
        raise MiningError("need at least one scene")
    if scene_count < 4:
        return scene_count, scene_count
    c_min = max(1, int(CLUSTER_FRACTION_LOW * scene_count))
    c_max = max(c_min, int(CLUSTER_FRACTION_HIGH * scene_count))
    return c_min, c_max


def intra_cluster_distance(
    member_centroids: Sequence[Group],
    centroid: Group,
    weights: SimilarityWeights = SimilarityWeights(),
) -> float:
    """sigma_i of Eq. (15): mean ``1 - GpSim(member, centroid)``.

    All members are scored against the centroid in one batched kernel
    call (``group_first=False`` keeps the scalar argument order:
    member first, centroid second).
    """
    if not member_centroids:
        raise MiningError("cluster has no members")
    similarities = group_similarity_to_many(
        centroid.shots,
        [member.shots for member in member_centroids],
        weights,
        group_first=False,
    )
    return float((1.0 - similarities).mean())


def validity_index(
    clusters: Sequence[Sequence[Group]],
    centroids: Sequence[Group],
    weights: SimilarityWeights = SimilarityWeights(),
) -> float:
    """rho(N) of Eq. (14) for one clustering.

    ``clusters[i]`` holds the member-scene centroids of cluster ``i``
    and ``centroids[i]`` its own centroid.  Lower is better.  A single
    cluster has no inter-cluster term and scores ``inf``.
    """
    n = len(clusters)
    if n != len(centroids):
        raise MiningError("clusters and centroids disagree in length")
    if n < 2:
        return float("inf")
    sigmas = [
        intra_cluster_distance(members, centroid, weights)
        for members, centroid in zip(clusters, centroids)
    ]
    # All centroid/centroid distances from one packed kernel call; the
    # upper triangle carries the scalar loop's argument order.
    similarity = group_similarity_matrix([c.shots for c in centroids], weights)
    distances = np.zeros((n, n))
    upper = np.triu_indices(n, 1)
    d = np.maximum(1.0 - similarity[upper], 1e-9)
    distances[upper] = d
    distances[(upper[1], upper[0])] = d
    total = 0.0
    for i in range(n):
        ratios = [
            (sigmas[i] + sigmas[j]) / distances[i, j] for j in range(n) if j != i
        ]
        total += max(ratios)
    return total / n
