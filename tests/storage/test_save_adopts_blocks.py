"""A save leaves its corpus backed by the blocks it wrote, and streams them.

``save_database`` hands each leaf's reduced block and the scene centroids
to the feature store and swaps the corpus's arrays for read-only maps of
the stored blocks (``LeafHashIndex.adopt`` / ``SceneIndex.adopt``).  One
the corpus has not made yet — an unserved corpus's — goes a scratch chunk
at a time into the block's temp file and is never whole in RAM (the save
used to derive both whole, hash and write them, then swap them for maps).
Held here: every answer is the same bits before and after — ids, scores,
tie order and ``QueryStats`` for shot, flat and scene queries, exact and
through the ANN tier — also when the commit fails and the blocks the save
wrote are unlinked under the maps, after which a re-save succeeds; a save
followed by a shard publish runs routing once a leaf and the centroid
producer (``centroid_rows``) once; a save of an unserved corpus makes
no whole reduced block or centroid table, and builds none of the serving
state it does not store (signature buckets, the scene table's event rows).  The feature store rewrites a
block whose file disagrees with its content's size, so re-saving repairs
a truncated block instead of trusting its name.
"""

from __future__ import annotations

import mmap
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np
import pytest

import repro.database.index as index_module
import repro.database.scene_search as scene_search_module
import repro.storage.sqlcatalog as sqlcatalog_module
from repro.core.kernels import SCAN_SCRATCH_ELEMS
from repro.database.query import search_hierarchical
from repro.errors import StorageError
from repro.net import build_shards
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.storage import (
    FeatureStore, SQLCatalog, SQLVideoDatabase, build_synthetic_database, save_database,
)
from repro.types import EventKind

#: Larger than any leaf's trained cell count: prunes nothing.
NPROBE_ALL = 1_000_000


def _corpus():
    """24 synthetic videos plus one whose three shots repeat a stored row:
    exact ties, so tie order is held too."""
    database = build_synthetic_database(videos=24, shots_per_video=8, seed=0)
    row = database.flat_index.entries_at([5])[0].features
    database.register_entries("twins", [(0, EventKind.DIALOG, [row, row, row])])
    return database


def _probes(database) -> list[np.ndarray]:
    entries = database.flat_index.entries_at([0, 5, 77, 150])
    rng = np.random.default_rng(3)
    return [entry.features for entry in entries] + [
        np.roll(entries[1].features, 2), rng.random(entries[0].features.shape[0])
    ]


def _shots(result) -> tuple:
    stats = asdict(result.stats)
    del stats["elapsed_seconds"]
    hits = [(h.entry.video_title, h.entry.shot_id, h.entry.scene_id, h.score.hex()) for h in result.hits]
    return hits, stats


def _answers(database, probes) -> list:
    """Every query kind over ``probes``, as comparable values."""
    answers = []
    for probe in probes:
        answers.append(_shots(database.search(probe, k=10)))
        answers.append(_shots(database.search_flat(probe, k=10)))
        for nprobe, rerank_k in ((8, 32), (NPROBE_ALL, None)):
            answers.append(_shots(search_hierarchical(
                database.index_root, probe, k=10, nprobe=nprobe, rerank_k=rerank_k
            )))
        answers.append([
            (h.entry.video_title, h.entry.scene_id, h.entry.event, h.entry.shot_count, h.score.hex())
            for h in database.scene_index.search(probe, k=10)
        ])
    return answers


def _reads_stored_blocks(database) -> bool:
    arrays = [leaf.reduced for leaf in database.leaves.values()]
    arrays.append(database.scene_index.table.centroids)
    return all(
        isinstance(array.base, mmap.mmap) and not array.flags["WRITEABLE"] for array in arrays
    )


def test_a_save_changes_no_answer(tmp_path):
    """Queried, saved, queried again; and saved before its first query."""
    queried, saved_first = _corpus(), _corpus()
    probes = _probes(queried)
    before = _answers(queried, probes)
    assert not _reads_stored_blocks(queried)
    save_database(queried, tmp_path / "queried")
    save_database(saved_first, tmp_path / "saved-first")
    assert _reads_stored_blocks(queried) and _reads_stored_blocks(saved_first)
    assert _answers(queried, probes) == before
    # Its ANN tier is trained on, and its scene table read from, the maps.
    assert _answers(saved_first, probes) == before
    opened = SQLVideoDatabase.open(tmp_path / "queried")
    try:
        assert _answers(opened, probes) == before
    finally:
        opened.close()


_span = sqlcatalog_module.obs_span


@contextmanager
def _locked_commit(name, **attributes):
    """``obs_span`` that holds the catalog locked for the commit's whole
    retry budget: the save fails after every block is written."""
    with _span(name, **attributes):
        if name != "storage.replace":
            yield
            return
        with inject(FaultPlan([FaultSpec(point="storage.db_locked")], seed=0)):
            yield


def _generation(db_dir) -> tuple:
    """What the catalog in ``db_dir`` lists, and the blocks its store holds."""
    with SQLCatalog(db_dir) as catalog:
        leaves = [(i.name, i.block.sha, i.reduced_sha, i.ids_sha) for i in catalog.leaf_infos()]
        return leaves, catalog.scene_block(), catalog.features.list_blocks()


def test_a_save_that_fails_at_its_commit_changes_no_answer(tmp_path, monkeypatch):
    database = _corpus()
    probes = _probes(database)
    before = _answers(database, probes)
    save_database(database, tmp_path)
    generation = _generation(tmp_path)
    database.register_entries("later", [(0, EventKind.DIALOG, [probes[-1]] * 4)])
    grown = _answers(database, probes)
    with monkeypatch.context() as patched:
        patched.setattr(sqlcatalog_module, "obs_span", _locked_commit)
        with pytest.raises(StorageError, match="locked"):
            save_database(database, tmp_path)
    # The blocks only the failed save wrote are unlinked; the corpus reads
    # them through its maps, and the directory still holds the first save.
    assert _reads_stored_blocks(database)
    assert _generation(tmp_path) == generation
    assert _answers(database, probes) == grown
    save_database(database, tmp_path)
    assert _answers(database, probes) == grown
    opened = SQLVideoDatabase.open(tmp_path)
    try:
        assert _answers(opened, probes) == grown
    finally:
        opened.close()
    assert before != grown  # "later" is among the hits


def test_a_save_then_a_cut_derives_once(tmp_path, monkeypatch):
    """``leaf_routing`` once a leaf and ``centroid_rows`` once, for the save
    and the two-shard publish after it together."""
    calls = {"leaf_routing": 0, "centroid_rows": 0}

    def counted(module, name):
        real = getattr(module, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, count)

    counted(index_module, "leaf_routing")
    counted(scene_search_module, "centroid_rows")
    database = _corpus()
    save_database(database, tmp_path / "db")
    build_shards(database, tmp_path / "shards", 2)
    assert calls == {"leaf_routing": len(database.leaves), "centroid_rows": 1}


def test_a_save_of_an_unserved_corpus_builds_no_serving_state(tmp_path, monkeypatch):
    """A save derives only what it stores: no leaf's signature buckets
    (``rows_by_signature``), no scene table installed (``SceneIndex._install``:
    its event and concept rows) — and the corpus's first queries afterwards,
    scene queries included, answer bit for bit."""
    calls = {"rows_by_signature": 0, "_install": 0}

    def counted(owner, name):
        real = getattr(owner, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, count)

    counted(index_module, "rows_by_signature")
    counted(scene_search_module.SceneIndex, "_install")
    database = _corpus()
    save_database(database, tmp_path)
    assert calls == {"rows_by_signature": 0, "_install": 0}
    probes = _probes(database)
    assert _answers(database, probes) == _answers(_corpus(), probes)
    assert calls["_install"] == 2  # each corpus's scene table, on its first scene search


def test_a_save_of_an_unserved_corpus_makes_no_whole_derived_block(tmp_path, monkeypatch):
    """Every block the save puts, by how it reaches the store: the leaf and
    id blocks whole, each leaf's reduced rows and the centroids as row
    chunks no larger than the kernels' scratch — yet the corpus then reads
    maps of blocks that hold the bits an in-RAM derive makes."""
    whole, streamed, put = [], [], FeatureStore.put

    def recorded(store, rows, dtype=np.float64, shape=None):
        if isinstance(rows, np.ndarray):
            whole.append((np.dtype(dtype).name, rows.shape[1]))
            return put(store, rows, dtype, shape)
        sizes = []
        streamed.append((np.dtype(dtype).name, shape[1], sizes))

        def counted():
            for chunk in rows:
                sizes.append(chunk.size)
                yield chunk

        return put(store, counted(), dtype, shape)

    monkeypatch.setattr(FeatureStore, "put", recorded)
    database = _corpus()
    save_database(database, tmp_path)
    monkeypatch.undo()
    leaves = len(database.leaves)
    # Leaf blocks, leaf id blocks and the scene id block.
    assert sorted(whole) == sorted(
        [("float64", 266)] * leaves + [("int64", 6)] * leaves + [("int64", 3)]
    )
    # Reduced blocks and the centroids.
    assert sorted(cols for _, cols, _ in streamed) == sorted([64] * leaves + [266])
    assert {dtype for dtype, _, _ in streamed} == {"float64"}
    assert all(sizes and max(sizes) <= SCAN_SCRATCH_ELEMS for _, _, sizes in streamed), streamed
    assert _reads_stored_blocks(database)
    served = _corpus()
    for name, leaf in database.leaves.items():
        assert np.array_equal(leaf.reduced, served.leaves[name].reduced)
    assert np.array_equal(database.scene_index.table.centroids, served.scene_index.table.centroids)


def test_a_resave_repairs_a_truncated_block(tmp_path):
    """A block file shorter than its content is rewritten, not trusted by name."""
    save_database(_corpus(), tmp_path)
    with SQLCatalog(tmp_path) as catalog:
        info = max(catalog.leaf_infos(), key=lambda info: info.entry_count)
        path = catalog.features.path_for(info.reduced_sha)
    size = path.stat().st_size
    with open(path, "r+b") as handle:
        handle.truncate(size - 4096)
    save_database(_corpus(), tmp_path)
    assert path.stat().st_size == size
    database = _corpus()
    probes = _probes(database)
    opened = SQLVideoDatabase.open(tmp_path)
    try:
        assert _answers(opened, probes) == _answers(database, probes)
        opened.catalog.features.verify(info.reduced_sha)
    finally:
        opened.close()
