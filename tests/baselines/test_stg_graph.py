"""The STG's own graph algorithms against brute-force oracles."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.stg import (
    TransitionGraph,
    _bridges,
    _components,
    story_units_from_graph,
)

MAX_NODES = 12


@st.composite
def directed_graphs(draw):
    """``(node count, directed edges)``; self-loops and two-way pairs included."""
    nodes = draw(st.integers(min_value=1, max_value=MAX_NODES))
    node = st.integers(min_value=0, max_value=nodes - 1)
    return nodes, draw(st.lists(st.tuples(node, node), max_size=3 * nodes))


def _undirected(nodes, edges):
    adjacency = {node: set() for node in range(nodes)}
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    return adjacency


def _partition(nodes, edges):
    """Oracle: connected components by union-find, as a set of frozensets."""
    parent = list(range(nodes))

    def find(node):
        while parent[node] != node:
            node = parent[node]
        return node

    for u, v in edges:
        parent[find(u)] = find(v)
    groups = {}
    for node in range(nodes):
        groups.setdefault(find(node), set()).add(node)
    return {frozenset(group) for group in groups.values()}


def _pairs(edges):
    """The undirected simple edges behind a directed edge list."""
    return {frozenset(edge) for edge in edges if edge[0] != edge[1]}


def _oracle_bridges(nodes, pairs):
    """An edge is a bridge iff removing it raises the component count."""
    base = len(_partition(nodes, [tuple(pair) for pair in pairs]))
    return {
        pair
        for pair in pairs
        if len(_partition(nodes, [tuple(p) for p in pairs - {pair}])) > base
    }


@settings(max_examples=200, deadline=None)
@given(directed_graphs())
def test_components_match_union_find(graph):
    nodes, edges = graph
    found = _components(_undirected(nodes, edges))
    assert {frozenset(component) for component in found} == _partition(nodes, edges)
    assert sum(len(component) for component in found) == nodes


@settings(max_examples=200, deadline=None)
@given(directed_graphs())
def test_bridges_match_edge_removal_oracle(graph):
    nodes, edges = graph
    found = _bridges(_undirected(nodes, edges))
    assert len(found) == len(set(map(frozenset, found)))
    assert {frozenset(edge) for edge in found} == _oracle_bridges(nodes, _pairs(edges))


@settings(max_examples=200, deadline=None)
@given(directed_graphs())
def test_story_units_cut_exactly_the_one_way_bridges(graph):
    nodes, edges = graph
    stg = TransitionGraph()
    stg.add_nodes_from(range(nodes))
    for u, v in edges:
        stg.add_edge(u, v)
    directed = set(edges)
    pairs = _pairs(edges)
    bridges = _oracle_bridges(nodes, pairs)
    kept = [
        (u, v)
        for u, v in map(tuple, pairs)
        if frozenset((u, v)) not in bridges
        or ((u, v) in directed and (v, u) in directed)
    ]
    units = story_units_from_graph(stg)
    assert {frozenset(unit) for unit in units} == _partition(nodes, kept)
