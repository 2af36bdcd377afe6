"""Video group detection, classification and representation (Sec. 3.2).

Group detection compares each shot with up to two shots on each side
(Fig. 6) through the similarity distances of Eqs. (2)-(5), the
separation factor R(i) of Eq. (6), and the two-step boundary procedure
with thresholds T1/T2 picked by the fast entropy technique.

Group classification (Sec. 3.2.1) greedily clusters a group's shots; a
group with more than one cluster is *temporally related* (similar shots
shown back and forth), otherwise *spatially related*.  Representative
shots come from Eq. (7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.core.config import GroupThresholds
from repro.core.features import Shot
from repro.core.kernels import FeatureMatrix, banded_stsim, pairwise_stsim
from repro.core.similarity import SimilarityWeights
from repro.core.threshold import entropy_threshold
from repro.errors import MiningError


class GroupKind(str, Enum):
    """The paper's two group categories."""

    TEMPORAL = "temporal"  # similar shots shown back and forth
    SPATIAL = "spatial"  # all shots mutually similar


@dataclass
class Group:
    """A detected video group.

    Attributes
    ----------
    group_id:
        Zero-based index in detection order.
    shots:
        Member shots, in temporal order.
    kind:
        Temporal vs spatial classification.
    clusters:
        The shot clusters found during classification (lists of member
        shots); temporal groups have more than one.
    representative_shots:
        One representative per cluster (Eq. 7).
    """

    group_id: int
    shots: list[Shot]
    kind: GroupKind = GroupKind.SPATIAL
    clusters: list[list[Shot]] = field(default_factory=list)
    representative_shots: list[Shot] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.shots:
            raise MiningError(f"group {self.group_id} has no shots")

    @property
    def shot_count(self) -> int:
        """Number of member shots."""
        return len(self.shots)

    @property
    def shot_ids(self) -> list[int]:
        """Member shot ids, in order."""
        return [shot.shot_id for shot in self.shots]

    @property
    def duration(self) -> float:
        """Total duration in seconds."""
        return sum(shot.duration for shot in self.shots)

    @property
    def frame_span(self) -> tuple[int, int]:
        """``(first frame, last frame + 1)`` covered by the group."""
        return (self.shots[0].start, self.shots[-1].stop)

    @property
    def is_temporal(self) -> bool:
        """True for temporally related groups."""
        return self.kind is GroupKind.TEMPORAL


def _side_similarities(
    shots: list[Shot], weights: SimilarityWeights
) -> tuple[np.ndarray, np.ndarray]:
    """CL and CR (Eqs. 2-3) for every shot, using <= 2 shots per side.

    Each shot only looks two positions away, so two banded kernel
    passes (offsets 1 and 2) cover every comparison in ``O(N)`` pair
    evaluations instead of per-pair Python calls.
    """
    n = len(shots)
    cl = np.zeros(n)
    cr = np.zeros(n)
    fm = FeatureMatrix.from_shots(shots)
    if n >= 2:
        near = banded_stsim(fm, 1, weights)
        cl[1:] = near
        cr[:-1] = near
    if n >= 3:
        far = banded_stsim(fm, 2, weights)
        np.maximum(cl[2:], far, out=cl[2:])
        np.maximum(cr[:-2], far, out=cr[:-2])
    return cl, cr


def separation_factors(cl: np.ndarray, cr: np.ndarray) -> np.ndarray:
    """R(i) of Eq. (6): right-side vs left-side correlation ratio."""
    n = cl.size
    factors = np.ones(n)
    # Shot 0 always starts the first group and has no left context, so
    # its factor stays neutral rather than spiking on the empty side.
    for i in range(1, n):
        right = cr[i] + (cr[i + 1] if i + 1 < n else cr[i])
        left = cl[i] + (cl[i + 1] if i + 1 < n else cl[i])
        factors[i] = right / max(left, 1e-9)
    return factors


def compute_thresholds(
    cl: np.ndarray, cr: np.ndarray, factors: np.ndarray
) -> GroupThresholds:
    """T1/T2 via the fast entropy technique (Sec. 3.2, step 3).

    T2 separates "similar" from "dissimilar" adjacent-shot correlations
    (pooled CL/CR values); T1 separates ordinary separation factors from
    boundary-sized ones.
    """
    pooled = np.concatenate([cl[cl > 0], cr[cr > 0]])
    if pooled.size == 0:
        # Degenerate sequence (single shot, or mutually dissimilar
        # shots): nothing correlates, so any positive T2 separates.
        return GroupThresholds(t1=1.0 + 1e-6, t2=0.5)
    t2 = entropy_threshold(pooled)
    finite = factors[np.isfinite(factors)]
    t1 = max(entropy_threshold(finite), 1.0 + 1e-6) if finite.size else 1.0 + 1e-6
    return GroupThresholds(t1=float(t1), t2=float(t2))


def detect_group_boundaries(
    shots: list[Shot],
    weights: SimilarityWeights = SimilarityWeights(),
    thresholds: GroupThresholds | None = None,
) -> tuple[list[int], GroupThresholds]:
    """Run the two-step boundary procedure; returns starts of new groups.

    The returned list contains shot indices (> 0) at which a new group
    begins.  ``thresholds`` may be supplied for ablation studies.
    """
    if not shots:
        raise MiningError("no shots to group")
    cl, cr = _side_similarities(shots, weights)
    factors = separation_factors(cl, cr)
    if thresholds is None:
        thresholds = compute_thresholds(cl, cr, factors)

    boundaries: list[int] = []
    for i in range(1, len(shots)):
        if cr[i] > thresholds.t2 - 0.1:
            # Step 1: first shot of a group correlates ahead, not behind.
            if factors[i] > thresholds.t1 and cl[i] < thresholds.t2:
                boundaries.append(i)
        else:
            # Step 2: the shot is dissimilar to both sides (separator).
            if cr[i] < thresholds.t2 and cl[i] < thresholds.t2:
                boundaries.append(i)
    return boundaries, thresholds


def classify_group(
    shots: list[Shot],
    weights: SimilarityWeights = SimilarityWeights(),
    cluster_threshold: float | None = None,
) -> tuple[GroupKind, list[list[Shot]]]:
    """Greedy seed clustering (Sec. 3.2.1); > 1 cluster means temporal.

    ``cluster_threshold`` (Th) defaults to the entropy pick over the
    group's pairwise similarities, falling back to 0.8 for tiny groups.

    The full pairwise StSim matrix is computed once by the vectorized
    kernel; both the threshold pool and every seed/candidate test read
    from it.
    """
    n = len(shots)
    matrix = pairwise_stsim(FeatureMatrix.from_shots(shots), weights)
    if cluster_threshold is None:
        if n >= 3:
            pool = matrix[np.triu_indices(n, 1)]
            cluster_threshold = entropy_threshold(pool)
        else:
            cluster_threshold = 0.8

    clusters: list[list[Shot]] = []
    remaining = list(range(n))
    while remaining:
        seed, rest = remaining[0], remaining[1:]
        # ">=" so a degenerate pool (all shots identical, threshold
        # equal to that similarity) still forms one cluster.  Membership
        # only depends on the seed, so one vectorized pass absorbs
        # everything the scalar absorb loop would.
        absorbed = matrix[seed, rest] >= cluster_threshold
        clusters.append(
            [shots[seed]] + [shots[i] for i, take in zip(rest, absorbed) if take]
        )
        remaining = [i for i, take in zip(rest, absorbed) if not take]
    kind = GroupKind.TEMPORAL if len(clusters) > 1 else GroupKind.SPATIAL
    return kind, clusters


def select_representative_shot(
    cluster: list[Shot], weights: SimilarityWeights = SimilarityWeights()
) -> Shot:
    """Eq. (7) and its small-cluster special cases.

    * 3+ shots: the shot with the highest mean similarity to the rest;
    * 2 shots: the longer one (more content);
    * 1 shot: itself.
    """
    if not cluster:
        raise MiningError("cannot pick a representative from an empty cluster")
    if len(cluster) == 1:
        return cluster[0]
    if len(cluster) == 2:
        return max(cluster, key=lambda shot: (shot.length, -shot.shot_id))
    matrix = pairwise_stsim(FeatureMatrix.from_shots(cluster), weights)
    np.fill_diagonal(matrix, 0.0)
    scores = matrix.sum(axis=1) / (len(cluster) - 1)
    return cluster[int(np.argmax(scores))]


def detect_groups(
    shots: list[Shot],
    weights: SimilarityWeights = SimilarityWeights(),
    thresholds: GroupThresholds | None = None,
) -> tuple[list[Group], GroupThresholds]:
    """Full Sec. 3.2 pipeline: boundaries, classification, representatives."""
    boundaries, used = detect_group_boundaries(shots, weights, thresholds)
    starts = [0] + boundaries
    stops = boundaries + [len(shots)]
    groups: list[Group] = []
    for group_id, (start, stop) in enumerate(zip(starts, stops)):
        members = shots[start:stop]
        kind, clusters = classify_group(members, weights)
        representatives = [
            select_representative_shot(cluster, weights) for cluster in clusters
        ]
        groups.append(
            Group(
                group_id=group_id,
                shots=members,
                kind=kind,
                clusters=clusters,
                representative_shots=representatives,
            )
        )
    return groups, used
