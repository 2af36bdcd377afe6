"""QueryServer integration: knobs, cache identity, degrade semantics."""

from __future__ import annotations

import pytest

from repro.database.query import search_hierarchical
from repro.errors import ServingError
from repro.serving.server import QueryRequest, QueryServer, ServerConfig
from repro.storage import SQLVideoDatabase, save_database

from .test_ann_equivalence import NPROBE_ALL


def result_keys(result):
    return [
        (h.entry.video_title, h.entry.shot_id, h.score) for h in result.hits
    ]


class TestServerKnobs:
    def test_request_nprobe_all_matches_exact(self, ann_db, probes):
        with QueryServer(ann_db, ServerConfig()) as server:
            exact = server.query(QueryRequest(kind="shot", features=probes[0]))
            ann = server.query(
                QueryRequest(kind="shot", features=probes[0], nprobe=NPROBE_ALL)
            )
            assert result_keys(ann) == result_keys(exact)
            assert ann.comparisons == exact.comparisons
            assert ann.reranked > 0
            assert exact.reranked == 0
            # Distinct cache identities: neither ran as a hit.
            assert not exact.cache_hit and not ann.cache_hit
            again = server.query(
                QueryRequest(kind="shot", features=probes[0], nprobe=NPROBE_ALL)
            )
            assert again.cache_hit

    def test_config_default_applies_and_shares_cache_with_explicit(
        self, ann_db, probes
    ):
        config = ServerConfig(ann_nprobe=4, ann_rerank_k=8)
        with QueryServer(ann_db, config) as server:
            implicit = server.query(QueryRequest(kind="shot", features=probes[1]))
            assert implicit.reranked > 0  # the default really kicked in
            explicit = server.query(
                QueryRequest(
                    kind="shot", features=probes[1], nprobe=4, rerank_k=8
                )
            )
            assert explicit.cache_hit  # same resolved identity
            assert result_keys(explicit) == result_keys(implicit)

    def test_config_default_matches_unserved_search(self, ann_db, probes):
        config = ServerConfig(ann_nprobe=4, ann_rerank_k=8)
        with QueryServer(ann_db, config) as server:
            served = server.query(QueryRequest(kind="shot", features=probes[2]))
        direct = search_hierarchical(
            ann_db.index_root, probes[2], k=10, nprobe=4, rerank_k=8
        )
        assert result_keys(served) == [
            (h.entry.video_title, h.entry.shot_id, h.score) for h in direct.hits
        ]

    def test_validation(self, ann_db, probes):
        with QueryServer(ann_db, ServerConfig()) as server:
            with pytest.raises(ServingError, match="shot"):
                server.query(
                    QueryRequest(kind="scene", features=probes[0], nprobe=2)
                )
            with pytest.raises(ServingError, match="nprobe"):
                server.query(
                    QueryRequest(kind="shot", features=probes[0], nprobe=0)
                )
        with pytest.raises(ServingError, match="ann_nprobe"):
            ServerConfig(ann_nprobe=0)
        with pytest.raises(ServingError, match="ann_rerank_k"):
            ServerConfig(ann_rerank_k=-1)


class TestDegradedNotCached:
    def test_prewarm_resolves_ann_on_generation_install(self, ann_db, tmp_path):
        save_database(ann_db, tmp_path)
        lazy = SQLVideoDatabase.open(tmp_path)
        try:
            config = ServerConfig(ann_nprobe=4)
            with QueryServer(lazy, config) as server:
                # Installing the generation (no ANN query yet) resolves
                # every leaf's index, so the first query pays no load.
                snapshot = server.manager.current()
                from repro.ann.index import AnnLeafIndex

                leaves = list(_iter_leaves(snapshot.index_root))
                assert leaves
                assert all(
                    isinstance(node.leaf.ann, AnnLeafIndex) for node in leaves
                )
        finally:
            lazy.close()


def _iter_leaves(node):
    if node.is_leaf:
        yield node
        return
    for child in node.children:
        yield from _iter_leaves(child)
