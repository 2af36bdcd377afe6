"""A stored leaf starts from what the catalog stores, not from its rows.

``save_database`` writes each leaf's ``reduced`` block beside the 266-d
one and the row signatures in the leaf's id block; an opened leaf maps
both, and derives only its buckets.
Held here: the stored arrays are the derived ones array for array (a
12 k-shot corpus, saved and published for 2 shards), a leaf with no ``reduced_sha`` — what
an earlier build's conversion of a v2 catalog left — still opens, derives
and answers the same bits, the feature store holds
exactly the blocks the catalog references, and a re-save between
``open`` and a leaf's first touch is told apart by digest, not only by
row count.
"""

from __future__ import annotations

import mmap
import sqlite3

import numpy as np
import pytest

from repro.core.kernels import intersection_to_many
from repro.database.index import LeafHashIndex, leaf_signatures, rows_by_signature
from repro.database.query import search_hierarchical
from repro.errors import StorageError
from repro.net import build_shards
from repro.storage import (
    SQLCatalog,
    SQLVideoDatabase,
    build_synthetic_database,
    catalog_path,
    save_database,
)


@pytest.fixture(scope="module")
def corpus():
    return build_synthetic_database(videos=1000, shots_per_video=12, seed=5)


def _same_array(stored: np.ndarray, derived: np.ndarray) -> None:
    assert stored.dtype == derived.dtype and stored.shape == derived.shape
    assert np.array_equal(stored, derived)


def _assert_stored_state_is_the_derived_state(db_dir, probe) -> int:
    """Every leaf of the catalog in ``db_dir``: given arrays == derived arrays."""
    opened = SQLVideoDatabase.open(db_dir)
    try:
        for name, leaf in opened.leaves.items():
            # The oracle: the same columns and routing, nothing given.
            derived = LeafHashIndex(leaf.rows, leaf.centers, leaf.dims)
            assert isinstance(leaf.reduced.base, mmap.mmap), name  # the stored block
            assert leaf.reduced.flags["C_CONTIGUOUS"] and not leaf.reduced.flags["WRITEABLE"]
            _same_array(leaf.reduced, derived.reduced)
            _same_array(leaf.signatures, derived.signatures)
            _same_array(leaf.signatures, leaf_signatures(np.asarray(leaf.block)))
            assert list(leaf.buckets) == list(derived.buckets)
            for key, rows in leaf.buckets.items():
                _same_array(rows, derived.buckets[key])
            query = probe[leaf.dims]
            some = np.arange(0, len(leaf), 3)
            for rows in (None, some, some[::-1]):
                _same_array(
                    intersection_to_many(query, leaf.reduced, rows),
                    intersection_to_many(query, np.array(leaf.reduced), rows),
                )
                _same_array(leaf.scan(probe, rows), derived.scan(probe, rows))
        return opened.shot_count
    finally:
        opened.close()


def test_stored_arrays_equal_derived_arrays(corpus, tmp_path):
    save_database(corpus, tmp_path)
    probe = np.roll(corpus.flat_index.entries_at([7])[0].features, 3)
    assert _assert_stored_state_is_the_derived_state(tmp_path, probe) == 12_000


def test_shard_catalogs_store_their_own_reduced_blocks(corpus, tmp_path):
    """A shard publish is one catalog the shards share, holding every leaf's state."""
    build_shards(corpus, tmp_path, 2)
    probe = np.roll(corpus.flat_index.entries_at([7])[0].features, 3)
    assert _assert_stored_state_is_the_derived_state(tmp_path, probe) == 12_000


def _answers(database, probes):
    out = []
    for probe in probes:
        for result in (
            database.search(probe, k=10),
            database.search_flat(probe, k=10),
            search_hierarchical(database.index_root, probe, k=10, nprobe=2, rerank_k=8),
        ):
            out.append([(h.entry.key, h.score) for h in result.hits])
            out.append((result.stats.comparisons, result.stats.ranked))
        scenes = database.scene_index.search(probe, k=10)
        out.append([(h.entry.video_title, h.entry.scene_id, h.score) for h in scenes])
    return out


def test_v2_catalog_opens_upgrades_and_derives(source_db, probes, tmp_path):
    """A catalog converted from v2 by an earlier build: v5, but no leaf
    names a reduced block, and none is stored."""
    save_database(source_db, tmp_path)
    with SQLCatalog(tmp_path) as catalog:
        v3_blocks = catalog.features.list_blocks()
        for info in catalog.leaf_infos():
            assert catalog.features.delete(info.reduced_sha)
    conn = sqlite3.connect(catalog_path(tmp_path))
    with conn:
        conn.execute("UPDATE leaves SET reduced_sha = NULL")
    conn.close()
    opened = SQLVideoDatabase.open(tmp_path)
    try:
        catalog = opened.catalog
        assert all(info.reduced_sha is None for info in catalog.leaf_infos())
        assert _answers(opened, probes) == _answers(source_db, probes)
        for leaf in opened.leaves.values():
            assert not isinstance(leaf.reduced.base, mmap.mmap)  # the derive path
            _same_array(np.ascontiguousarray(leaf.reduced), np.asarray(leaf.block)[:, leaf.dims])
        # The next save writes the column, and the very blocks a v3 writer does.
        save_database(opened, tmp_path)
    finally:
        opened.close()
    with SQLCatalog(tmp_path) as catalog:
        assert all(info.reduced_sha for info in catalog.leaf_infos())
        assert catalog.features.list_blocks() == v3_blocks


def test_feature_store_holds_exactly_the_referenced_blocks(tmp_path):
    small = build_synthetic_database(videos=8, shots_per_video=8, seed=1)
    grown = build_synthetic_database(videos=12, shots_per_video=8, seed=1)
    save_database(small, tmp_path)
    with SQLCatalog(tmp_path) as catalog:
        first = catalog._referenced_blocks()
        assert {info.reduced_sha for info in catalog.leaf_infos()} <= first
        assert catalog.features.list_blocks() == sorted(first)
    save_database(grown, tmp_path)
    with SQLCatalog(tmp_path) as catalog:
        second = catalog._referenced_blocks()
        # leaf + reduced + ids per leaf, the scene centroids and ids
        assert len(second) == 3 * len(catalog.leaf_infos()) + 2
        assert catalog.features.list_blocks() == sorted(second)  # no orphan, nothing live deleted
        for sha in second:
            catalog.features.verify(sha)
    assert not first & second  # every leaf grew: the first generation is gone whole


def test_resave_of_an_unchanged_corpus_writes_no_block(tmp_path, monkeypatch):
    database = build_synthetic_database(videos=8, shots_per_video=8, seed=1)
    save_database(database, tmp_path)
    monkeypatch.setattr("tempfile.mkstemp", lambda *a, **k: pytest.fail("a block was rewritten"))
    save_database(database, tmp_path)


def test_same_sized_resave_before_first_touch_is_a_generation_change(tmp_path):
    """Row counts cannot tell two generations of equal size apart; digests do.

    The reader's blocks (266-d and reduced) were collected by the re-save:
    that must read as the re-save, not as ``no feature block``.
    """
    save_database(build_synthetic_database(videos=8, shots_per_video=8, seed=1), tmp_path)
    reader = SQLVideoDatabase.open(tmp_path)
    try:
        infos = reader.catalog.leaf_infos()
        other = build_synthetic_database(videos=8, shots_per_video=8, seed=2)
        probe = other.flat_index.entries_at([0])[0].features
        save_database(other, tmp_path)
        with SQLCatalog(tmp_path) as now:
            assert [i.entry_count for i in now.leaf_infos()] == [i.entry_count for i in infos]
        store = reader.catalog.features
        assert not any(store.path_for(info.reduced_sha).exists() for info in infos)
        with pytest.raises(StorageError, match="changed generation"):
            reader.search(probe, k=5)
        with pytest.raises(StorageError, match="changed generation"):
            reader.search_flat(probe, k=5)
    finally:
        reader.close()


def test_signature_buckets_are_rebuilt_from_stored_signatures(tmp_path, monkeypatch):
    """First touch of a stored leaf runs no pass over its 266-d rows."""
    save_database(build_synthetic_database(videos=8, shots_per_video=8, seed=1), tmp_path)
    monkeypatch.setattr(
        "repro.database.index.leaf_signatures", lambda *a: pytest.fail("signatures re-derived")
    )
    opened = SQLVideoDatabase.open(tmp_path)
    try:
        for leaf in opened.leaves.values():
            assert sorted(leaf.buckets) == sorted(rows_by_signature(leaf.signatures))
            assert sum(rows.size for rows in leaf.buckets.values()) == len(leaf)
    finally:
        opened.close()
