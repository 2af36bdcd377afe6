"""ANN-tier contracts against the exact hierarchical path.

Three pinned properties:

* ``nprobe >= cells`` with an unbounded re-rank tail is **bit-identical**
  to the exact path — hits, scores, tie-break order, stats, access
  scoping, any ``k``;
* recall@10 grows monotonically in ``nprobe`` when every survivor is
  re-ranked exactly (nested candidate sets under exact scoring);
* a finite ``rerank_k`` is the only thing that triggers the uint8 scan,
  and its work is reported through ``approx_comparisons``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ann.index import AnnLeafIndex, build_leaf_ann, resolve_ann
from repro.database.access import User
from repro.database.query import search_hierarchical
from repro.errors import DatabaseError

#: Larger than any leaf's trained cell count: prunes nothing.
NPROBE_ALL = 1_000_000


def hits(result):
    return [
        (h.entry.video_title, h.entry.shot_id, h.score) for h in result.hits
    ]


class TestBitIdenticalAtFullProbe:
    def test_hits_scores_and_stats_match_exact(self, ann_db, probes):
        for probe in probes:
            exact = search_hierarchical(ann_db.index_root, probe, k=10)
            ann = search_hierarchical(
                ann_db.index_root, probe, k=10, nprobe=NPROBE_ALL
            )
            assert hits(ann) == hits(exact)
            assert ann.stats.comparisons == exact.stats.comparisons
            assert ann.stats.ranked == exact.stats.ranked
            assert ann.stats.visited_path == exact.stats.visited_path
            # No cell pruned and no tail bound: the uint8 scan never ran.
            assert ann.stats.approx_comparisons == 0
            assert ann.stats.reranked == ann.stats.ranked

    def test_k_sweep_matches_exact(self, ann_db, probes):
        for k in (1, 3, 1000):
            exact = search_hierarchical(ann_db.index_root, probes[0], k=k)
            ann = search_hierarchical(
                ann_db.index_root, probes[0], k=k, nprobe=NPROBE_ALL
            )
            assert hits(ann) == hits(exact)

    def test_tie_break_order_matches_exact(self):
        # Identical registered shots tie exactly; the ANN path must keep
        # the exact path's insertion-order tie-break.
        from repro.storage import build_synthetic_database
        from repro.types import EventKind

        database = build_synthetic_database(videos=6, shots_per_video=4, seed=5)
        dup = np.random.default_rng(9).random(266)
        database.register_entries(
            "dup_video", [(0, EventKind.DIALOG, [dup, dup.copy(), dup.copy()])]
        )
        exact = search_hierarchical(database.index_root, dup, k=25)
        ann = search_hierarchical(
            database.index_root, dup, k=25, nprobe=NPROBE_ALL
        )
        scores = [h.score for h in exact.hits]
        assert len(set(scores)) < len(scores)  # the duplicates really tie
        assert hits(ann) == hits(exact)

    def test_access_scoped_search_matches_exact(self, ann_db, probes):
        for user in (
            User(name="student", clearance=1),
            User(name="surgeon", clearance=3),
        ):
            allowed = set(ann_db.controller.permitted_leaves(user))
            for probe in probes[:3]:
                exact = search_hierarchical(
                    ann_db.index_root, probe, k=10, allowed_leaves=allowed
                )
                ann = search_hierarchical(
                    ann_db.index_root,
                    probe,
                    k=10,
                    allowed_leaves=allowed,
                    nprobe=NPROBE_ALL,
                )
                assert hits(ann) == hits(exact)
                assert ann.stats.comparisons == exact.stats.comparisons

    def test_empty_scope_stays_empty(self, ann_db, probes):
        result = search_hierarchical(
            ann_db.index_root,
            probes[0],
            k=10,
            allowed_leaves=set(),
            nprobe=NPROBE_ALL,
        )
        assert result.hits == []


class TestRecallMonotonicity:
    def test_recall_at_10_monotone_in_nprobe(self, ann_db, probes):
        for probe in probes:
            exact_keys = {
                (h.entry.video_title, h.entry.shot_id)
                for h in search_hierarchical(ann_db.index_root, probe, k=10).hits
            }
            recalls = []
            for nprobe in (1, 2, 4, 8, 16, NPROBE_ALL):
                got = {
                    (h.entry.video_title, h.entry.shot_id)
                    for h in search_hierarchical(
                        ann_db.index_root, probe, k=10, nprobe=nprobe
                    ).hits
                }
                recalls.append(len(got & exact_keys) / len(exact_keys))
            assert recalls == sorted(recalls)
            assert recalls[-1] == 1.0

    def test_pruning_reduces_exact_work(self, ann_db, probes):
        exact = search_hierarchical(ann_db.index_root, probes[4], k=10)
        pruned = search_hierarchical(
            ann_db.index_root, probes[4], k=10, nprobe=1
        )
        assert pruned.stats.comparisons <= exact.stats.comparisons


class TestRerankTail:
    def test_finite_tail_triggers_and_reports_uint8_scan(self, ann_db, probes):
        bounded = search_hierarchical(
            ann_db.index_root, probes[4], k=10, nprobe=NPROBE_ALL, rerank_k=4
        )
        full = search_hierarchical(
            ann_db.index_root, probes[4], k=10, nprobe=NPROBE_ALL
        )
        assert bounded.stats.approx_comparisons > 0
        assert bounded.stats.reranked <= full.stats.reranked
        assert bounded.stats.reranked > 0
        # Every survivor was still scored by the exact kernel.
        assert bounded.stats.reranked <= bounded.stats.comparisons

    def test_top_hit_survives_small_tail_for_near_probe(self, ann_db, probes):
        # probes[0] is a near-duplicate of a stored entry: even a tiny
        # exact tail must keep the true best hit.
        exact_top = search_hierarchical(ann_db.index_root, probes[0], k=1).top
        ann_top = search_hierarchical(
            ann_db.index_root, probes[0], k=1, nprobe=NPROBE_ALL, rerank_k=8
        ).top
        assert ann_top.entry.key == exact_top.entry.key
        assert ann_top.score == exact_top.score

    def test_validation(self, ann_db, probes):
        with pytest.raises(DatabaseError, match="nprobe"):
            search_hierarchical(ann_db.index_root, probes[0], nprobe=0)
        with pytest.raises(DatabaseError, match="rerank_k"):
            search_hierarchical(
                ann_db.index_root, probes[0], nprobe=2, rerank_k=0
            )


class TestResolveAnn:
    def test_eager_leaf_builds_once_and_caches(self, ann_db):
        leaf = next(
            node
            for node in _iter_leaves(ann_db.index_root)
            if node.leaf is not None and len(node.leaf) > 0
        )
        leaf.leaf.ann = None
        first = resolve_ann(leaf)
        assert isinstance(first, AnnLeafIndex)
        again = resolve_ann(leaf)
        assert again is first

    def test_rebuild_is_deterministic(self, ann_db):
        leaf = next(
            node
            for node in _iter_leaves(ann_db.index_root)
            if node.leaf is not None and len(node.leaf) > 0
        )
        matrix = np.stack([entry.features for entry in leaf.leaf.entries])
        a = build_leaf_ann(matrix, leaf.dims)
        b = build_leaf_ann(matrix, leaf.dims)
        assert a.digest() == b.digest()


def _iter_leaves(node):
    if node.is_leaf:
        yield node
        return
    for child in node.children:
        yield from _iter_leaves(child)
