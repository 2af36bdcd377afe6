"""Yeung & Yeo's Scene Transition Graph segmentation [15].

The paper discusses this method as prior work: "a time-constrained shot
clustering strategy is proposed to cluster temporally adjacent shots
into clusters, and a Scene Transition Graph is constructed to detect
the video story unit".  We implement it faithfully as an additional
comparison method (beyond the paper's A/B/C):

1. **Time-constrained clustering** — shots join an existing cluster
   only when visually similar *and* within a temporal window of one of
   its members.
2. **Scene Transition Graph** — a directed graph with one node per
   cluster and an edge ``u -> v`` whenever some shot of ``u`` is
   immediately followed by a shot of ``v``.
3. **Story units** — the *cut edges* of the underlying undirected graph
   separate story units: each remaining strongly-connected cluster of
   back-and-forth transitions (a dialog's A<->B pattern) stays one
   scene, while one-way transitions between unrelated clusters mark
   scene boundaries.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

import numpy as np

from repro.baselines.rui_toc import BaselineScenes
from repro.core.features import Shot
from repro.core.kernels import FeatureMatrix, banded_stsim, stsim_to_many
from repro.core.similarity import SimilarityWeights
from repro.core.threshold import entropy_threshold
from repro.errors import MiningError

#: Maximum temporal distance (seconds) for time-constrained clustering.
DEFAULT_TIME_WINDOW = 40.0


def time_constrained_clusters(
    shots: list[Shot],
    weights: SimilarityWeights = SimilarityWeights(),
    similarity_threshold: float | None = None,
    time_window: float = DEFAULT_TIME_WINDOW,
) -> list[list[Shot]]:
    """Cluster shots under visual similarity plus a temporal constraint.

    The threshold pool (pairs up to four positions apart) comes from
    banded kernel passes; each shot is scored against the last (up to)
    four members of every time-admissible cluster in one vectorized
    call.
    """
    if not shots:
        raise MiningError("no shots to cluster")
    fm = FeatureMatrix.from_shots(shots)
    if similarity_threshold is None:
        pooled = np.concatenate(
            [banded_stsim(fm, offset, weights) for offset in range(1, 5)]
        )
        similarity_threshold = entropy_threshold(pooled) if pooled.size else 0.5

    index_of = {id(shot): i for i, shot in enumerate(shots)}
    clusters: list[list[Shot]] = []
    for shot in shots:
        # Time-admissible clusters and their last <= 4 members.
        admissible: list[int] = []
        tails: list[list[int]] = []
        for index, cluster in enumerate(clusters):
            gap = (shot.start - cluster[-1].stop) / shot.fps
            if gap > time_window:
                continue  # time constraint
            admissible.append(index)
            tails.append([index_of[id(member)] for member in cluster[-4:]])
        best_index = None
        if admissible:
            flat = [i for tail in tails for i in tail]
            sims = stsim_to_many(shot.histogram, shot.texture, fm.take(flat), weights)
            # The scalar loop updated on ">=", so among equal-best
            # clusters the *last* admissible one wins.
            best_score = similarity_threshold
            position = 0
            for index, tail in zip(admissible, tails):
                score = sims[position : position + len(tail)].max()
                position += len(tail)
                if score >= best_score:
                    best_score = score
                    best_index = index
        if best_index is None:
            clusters.append([shot])
        else:
            clusters[best_index].append(shot)
    return clusters


class TransitionGraph:
    """A small directed graph: ``graph[u][v]`` is the edge's attribute dict.

    Adjacency dicts in insertion order — all the STG needs of a graph
    container, with the method names of the usual graph libraries.
    """

    def __init__(self) -> None:
        self._successors: dict[int, dict[int, dict]] = {}

    def add_nodes_from(self, nodes: Iterable[int]) -> None:
        """Add isolated nodes (known nodes are left alone)."""
        for node in nodes:
            self._successors.setdefault(node, {})

    def add_edge(self, u: int, v: int, weight: int = 1) -> None:
        """Add (or overwrite) the edge ``u -> v``, adding missing nodes."""
        self.add_nodes_from((u, v))
        self._successors[u][v] = {"weight": weight}

    def has_edge(self, u: int, v: int) -> bool:
        """True when the edge ``u -> v`` exists."""
        return v in self._successors.get(u, ())

    def __getitem__(self, node: int) -> dict[int, dict]:
        return self._successors[node]

    @property
    def nodes(self) -> list[int]:
        """Nodes, in insertion order."""
        return list(self._successors)

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Directed edges ``(u, v)``, grouped by source in insertion order."""
        return [(u, v) for u, targets in self._successors.items() for v in targets]


def build_transition_graph(
    shots: list[Shot], clusters: list[list[Shot]]
) -> TransitionGraph:
    """The STG: cluster nodes, edges for consecutive-shot transitions."""
    cluster_of: dict[int, int] = {}
    for index, cluster in enumerate(clusters):
        for shot in cluster:
            cluster_of[shot.shot_id] = index
    graph = TransitionGraph()
    graph.add_nodes_from(range(len(clusters)))
    ordered = sorted(shots, key=lambda shot: shot.shot_id)
    for a, b in zip(ordered, ordered[1:]):
        u, v = cluster_of[a.shot_id], cluster_of[b.shot_id]
        if u != v:
            if graph.has_edge(u, v):
                graph[u][v]["weight"] += 1
            else:
                graph.add_edge(u, v, weight=1)
    return graph


def _bridges(adjacency: dict[int, set[int]]) -> list[tuple[int, int]]:
    """Bridges of a simple undirected graph (iterative low-link DFS).

    An edge ``(parent, child)`` of the DFS tree is a bridge exactly when
    no back edge from the child's subtree reaches the parent or above:
    ``low[child] > order[parent]``.
    """
    order: dict[int, int] = {}
    low: dict[int, int] = {}
    bridges: list[tuple[int, int]] = []
    for root in adjacency:
        if root in order:
            continue
        order[root] = low[root] = len(order)
        stack = [(root, None, iter(adjacency[root]))]
        while stack:
            node, parent, neighbours = stack[-1]
            for neighbour in neighbours:
                if neighbour == parent:
                    continue  # the tree edge itself (the graph is simple)
                if neighbour in order:
                    low[node] = min(low[node], order[neighbour])
                    continue
                order[neighbour] = low[neighbour] = len(order)
                stack.append((neighbour, node, iter(adjacency[neighbour])))
                break
            else:
                stack.pop()
                if parent is not None:
                    low[parent] = min(low[parent], low[node])
                    if low[node] > order[parent]:
                        bridges.append((parent, node))
    return bridges


def _components(adjacency: dict[int, set[int]]) -> list[set[int]]:
    """Connected components (BFS), each found from its first node."""
    seen: set[int] = set()
    components: list[set[int]] = []
    for root in adjacency:
        if root in seen:
            continue
        component = {root}
        queue = deque([root])
        while queue:
            for neighbour in adjacency[queue.popleft()]:
                if neighbour not in component:
                    component.add(neighbour)
                    queue.append(neighbour)
        seen |= component
        components.append(component)
    return components


def story_units_from_graph(graph: TransitionGraph) -> list[set[int]]:
    """Partition the STG into story units by removing cut edges.

    A *cut edge* is a bridge of the undirected projection whose
    transitions run in **one direction only** — a one-way hand-off
    between otherwise unconnected parts of the video, i.e. the
    story-unit boundary of [15].  Back-and-forth structures (a dialog's
    A <-> B transitions) are not one-way, so they survive and the
    dialog stays one unit.
    """
    undirected: dict[int, set[int]] = {node: set() for node in graph.nodes}
    for u, v in graph.edges:
        undirected[u].add(v)
        undirected[v].add(u)
    for u, v in _bridges(undirected):
        if not (graph.has_edge(u, v) and graph.has_edge(v, u)):
            undirected[u].discard(v)
            undirected[v].discard(u)
    return _components(undirected)


def stg_detect_scenes(
    shots: list[Shot],
    weights: SimilarityWeights = SimilarityWeights(),
    similarity_threshold: float | None = None,
    time_window: float = DEFAULT_TIME_WINDOW,
) -> BaselineScenes:
    """Full STG pipeline: cluster, build graph, cut into story units.

    Story units are mapped back to *temporally contiguous* scenes: the
    shot sequence splits wherever consecutive shots belong to different
    story units.
    """
    clusters = time_constrained_clusters(
        shots, weights, similarity_threshold, time_window
    )
    graph = build_transition_graph(shots, clusters)
    units = story_units_from_graph(graph)

    unit_of_cluster: dict[int, int] = {}
    for unit_index, unit in enumerate(units):
        for cluster_index in unit:
            unit_of_cluster[cluster_index] = unit_index
    cluster_of: dict[int, int] = {}
    for index, cluster in enumerate(clusters):
        for shot in cluster:
            cluster_of[shot.shot_id] = index

    ordered = sorted(shots, key=lambda shot: shot.shot_id)
    scenes: list[list[int]] = [[ordered[0].shot_id]]
    for a, b in zip(ordered, ordered[1:]):
        unit_a = unit_of_cluster[cluster_of[a.shot_id]]
        unit_b = unit_of_cluster[cluster_of[b.shot_id]]
        if unit_a == unit_b:
            scenes[-1].append(b.shot_id)
        else:
            scenes.append([b.shot_id])
    return BaselineScenes(
        method="STG",
        scenes=scenes,
        groups=[sorted(s.shot_id for s in cluster) for cluster in clusters],
    )
