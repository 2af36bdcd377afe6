"""Scalar views of the index the tests hold the array paths to.

``probe`` (an exact probe's candidate entries, one object each),
``route_child`` (one routing step by its own kernel call) and
``rows_probe`` (one source's leaf probe, by sorting) are what the
batched descent, the leaf scan and the merge must agree with; nothing
in the program calls them, so they live with the tests.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.database.index import (
    IndexNode,
    LeafHashIndex,
    ShotEntry,
    feature_similarity_batch,
)
from repro.database.query import LeafProbe
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


def rows_probe(
    rows: Sequence[tuple[int, float, bool]],
    k: int,
    ann: bool = False,
) -> LeafProbe:
    """One source's probe of its ``(key, score, in_bucket)`` rows.

    The leaf rule, applied to the rows the source holds: it scans its
    in-bucket rows, or every row when it holds none, and keeps the ``k``
    best by (−score, key).  ``ann`` charges every scanned row to the ANN
    tier too (a full probe: nothing pruned, every survivor re-ranked).
    """
    bucket = [row for row in rows if row[2]]
    scanned = bucket or list(rows)
    best = sorted(scanned, key=lambda row: (-row[1], row[0]))[:k]
    work = len(scanned) if ann else 0
    return LeafProbe(
        len(bucket),
        len(scanned),
        work,
        work,
        [key for key, _score, _in_bucket in best],
        [score for _key, score, _in_bucket in best],
    )
