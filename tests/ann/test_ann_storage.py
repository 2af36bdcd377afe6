"""The ANN tier over an opened catalog: built from the leaf, never stored.

A saved catalog holds no quantizer state; the first ANN query on an
opened leaf trains the tier from the leaf's mapped reduced block and its
stored signatures.  Held here: an opened catalog, and each shard's view
of a 2-shard catalog, answers ANN queries bit-identically to the in-RAM
tier, at full probe and pruning; the tier built over an opened leaf is the
from-rows oracle's, sharing the leaf's signatures; and a damaged leaf
block is the same typed error on an ANN query as on an exact one.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro.ann.index import AnnLeafIndex, build_leaf_ann, resolve_ann
from repro.database.index import leaf_node
from repro.database.query import probe_leaf, search_hierarchical
from repro.errors import IntegrityError
from repro.net import build_shards
from repro.net.worker import _ShardState
from repro.storage import SQLVideoDatabase, save_database

from .test_ann_equivalence import NPROBE_ALL, hits

KNOBS = [dict(nprobe=NPROBE_ALL), dict(nprobe=2, rerank_k=8)]


@pytest.fixture(scope="module")
def ann_dir(tmp_path_factory, ann_db):
    db_dir = tmp_path_factory.mktemp("ann-db")
    save_database(ann_db, db_dir)
    return db_dir


@pytest.fixture()
def lazy_db(ann_dir):
    database = SQLVideoDatabase.open(ann_dir)
    yield database
    database.close()


def _answers(database, probes, knobs) -> list:
    """Hits and the work behind them, for every probe."""
    out = []
    for probe in probes:
        result = search_hierarchical(database.index_root, probe, k=10, **knobs)
        stats = result.stats
        out.append((hits(result), stats.comparisons, stats.approx_comparisons, stats.reranked))
    return out


class TestPersistedRoundTrip:
    def test_lazy_ann_matches_eager_exact(self, ann_db, lazy_db, probes):
        full = _answers(lazy_db, probes, KNOBS[0])
        assert full == _answers(ann_db, probes, KNOBS[0])
        # Every cell probed and every survivor re-ranked: the exact path.
        assert [a[:2] for a in full] == [a[:2] for a in _answers(lazy_db, probes, {})]

    def test_lazy_and_eager_ann_agree_when_pruning(self, ann_db, lazy_db, probes):
        assert _answers(lazy_db, probes, KNOBS[1]) == _answers(ann_db, probes, KNOBS[1])


@pytest.mark.parametrize("knobs", KNOBS, ids=["full-probe", "pruning"])
def test_each_shard_answers_like_its_in_ram_tier(ann_db, probes, tmp_path, knobs):
    """Every leaf a shard serves probes as the same leaf of the in-RAM corpus."""
    spec = build_shards(ann_db, tmp_path, 2)
    served = []
    for shard_id in range(spec.num_shards):
        state = _ShardState(tmp_path, shard_id, spec.num_shards)
        try:
            for name, node in state.leaves.items():
                in_ram = leaf_node(name, node.depth, ann_db.leaves[name])
                for probe in probes:
                    assert probe_leaf(node, probe, 10, **knobs) == probe_leaf(in_ram, probe, 10, **knobs)
                served.append(name)
        finally:
            state.database.close()
    assert sorted(served) == sorted(ann_db.leaves)


def test_the_tier_over_an_opened_leaf_is_the_oracles(lazy_db):
    for node in lazy_db.index_root.iter_leaves():
        leaf = node.leaf
        if leaf is None or not len(leaf):
            continue
        assert leaf.ann is None  # nothing stored, nothing trained yet
        tier = resolve_ann(node)
        assert isinstance(tier, AnnLeafIndex) and resolve_ann(node) is tier
        oracle = build_leaf_ann(np.asarray(leaf.block), leaf.dims)
        assert tier.digest() == oracle.digest()
        assert tier.sigs is leaf.signatures  # the leaf's, not a copy


def test_a_truncated_reduced_block_is_typed_on_an_ann_query(ann_dir, probes, tmp_path):
    # A copy: the saved corpus reads maps of the blocks in ``ann_dir``.
    shutil.copytree(ann_dir, tmp_path / "copy")
    opened = SQLVideoDatabase.open(tmp_path / "copy")
    try:
        store = opened.catalog.features
        for info in opened.catalog.leaf_infos():
            path = store.path_for(info.reduced_sha)
            path.write_bytes(path.read_bytes()[:-4096])
        for knobs in ({}, *KNOBS):
            with pytest.raises(IntegrityError, match="data bytes"):
                search_hierarchical(opened.index_root, probes[0], k=10, **knobs)
    finally:
        opened.close()
