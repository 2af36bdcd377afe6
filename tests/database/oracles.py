"""Scalar views of the index the tests hold the array paths to.

``probe`` (an exact probe's candidate entries, one object each) and
``route_child`` (one routing step by its own kernel call) are what the
batched descent and the leaf scan must agree with; nothing in the
program calls them, so they live with the tests.
"""

from __future__ import annotations

import numpy as np

from repro.database.index import (
    IndexNode,
    LeafHashIndex,
    ShotEntry,
    feature_similarity_batch,
)
from repro.errors import DatabaseError


def probe(leaf: LeafHashIndex, features: np.ndarray) -> list[ShotEntry]:
    """Candidate entries of an exact probe: the query's bucket, or every row."""
    rows = leaf.candidate_rows(features)
    if rows is None:
        rows = range(len(leaf))
    return [leaf.entry(int(row)) for row in rows]


def bucket_count(leaf: LeafHashIndex) -> int:
    """Number of non-empty buckets."""
    return len(leaf.buckets)


def route_child(node: IndexNode, features: np.ndarray) -> tuple[IndexNode, int]:
    """Pick the child whose best centre matches the query best.

    Returns ``(child, comparisons_made)``.  All centres of all
    populated children are scored in one batched kernel call;
    ``comparisons`` still counts every logical centre evaluation, and
    the first-best tie-break matches the scalar scan.
    """
    if node.is_leaf or not node.children:
        raise DatabaseError(f"cannot route inside leaf node {node.name!r}")
    block = node.center_block()
    if block is None:
        raise DatabaseError(f"node {node.name!r} has no populated children")
    scores = feature_similarity_batch(features, block.centers)
    best = int(np.argmax(scores))
    child_index = int(np.searchsorted(block.offsets, best, side="right") - 1)
    return block.children[child_index], int(scores.shape[0])
