"""Schema v4 to v6: a stored leaf is its blocks, and no text or ANN tier is stored.

Every per-row fact of a leaf — flat ordinal, title code, shot id, scene
id, the two signature columns — is one ``(n, 6)`` int64 id block beside
its feature blocks, and the scene table's ``(S, 3)`` id block sits beside
its centroids; SQLite keeps per-video and per-leaf rows only, text
search derives its documents from them and the ANN tier is trained from
the opened leaf.  Held here: a v5 catalog — the one older schema that
still converts, its ``ann_leaves`` rows and uint8 code blocks built from
the tier a process trains over the opened leaves — converts once on
open, to the very rows and blocks a v6 writer stores, and answers bit
for bit (ids, scores, ``QueryStats``, exact and ANN); text search
answers hit for hit what the ``LIKE`` scan over the stored documents
did; a second opener, later or racing, writes nothing of its own; a
missing, truncated or unreadable id block is a typed error on first
touch.
"""

from __future__ import annotations

import dataclasses
import sqlite3
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.ann.index import train_leaf_ann
from repro.ann.quantizer import ANN_SEED
from repro.database.query import search_hierarchical
from repro.errors import IntegrityError, ReproError, StorageError
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.storage import (
    SCHEMA_VERSION,
    SQLCatalog,
    SQLVideoDatabase,
    catalog_path,
    save_database,
)
from tests.storage.test_lazy_equivalence import stored_state

#: The ANN tier every writer before v6 stored, as it declared it.
_V5_ANN_TABLE = """
    CREATE TABLE ann_leaves (
        leaf      TEXT PRIMARY KEY,
        cells     INTEGER NOT NULL,
        seed      INTEGER NOT NULL,
        code_sha  TEXT NOT NULL,
        rows      INTEGER NOT NULL,
        cols      INTEGER NOT NULL,
        centroids BLOB NOT NULL,
        "assign"  BLOB NOT NULL,
        scale     BLOB NOT NULL,
        "offset"  BLOB NOT NULL
    )
"""


def rewind(db_dir) -> None:
    """Give the v6 catalog in ``db_dir`` the layout a v5 writer left.

    Built from what the readers return, not only by stamping an older
    version: each leaf's ANN tier as a v5 save trained it — over the
    leaf's reduced block and signatures, which is what training the
    opened leaf reads — its uint8 codes as a feature block, the rest as
    an ``ann_leaves`` row.
    """
    opened = SQLVideoDatabase.open(db_dir)
    try:
        rows = []
        for name, leaf in opened.leaves.items():
            ann = train_leaf_ann(leaf)
            code = opened.catalog.features.put(ann.codes, dtype=np.uint8)
            rows.append((
                name, ann.n_cells, ANN_SEED, code.sha, code.rows, code.cols,
                *(np.ascontiguousarray(a).tobytes()
                  for a in (ann.centroids, ann.assign, ann.scale, ann.offset)),
            ))
    finally:
        opened.close()
    conn = sqlite3.connect(catalog_path(db_dir))
    with conn:
        conn.execute(_V5_ANN_TABLE)
        conn.executemany("INSERT INTO ann_leaves VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)", rows)
        conn.execute("PRAGMA user_version = 5")
    conn.close()


def _tables(db_dir) -> set[str]:
    with sqlite3.connect(catalog_path(db_dir)) as conn:
        return {name for (name,) in conn.execute("SELECT name FROM sqlite_master")}


def _id_digests(catalog: SQLCatalog) -> list[str]:
    return [info.ids_sha for info in catalog.leaf_infos()] + [catalog.scene_block()[1]]


def _version(catalog: SQLCatalog) -> int:
    return int(catalog._run(lambda c: c.execute("PRAGMA user_version").fetchone()[0]))


def _answers(database, probes) -> list:
    """Ids, scores and work accounting of shot (exact and ANN), flat and
    scene queries."""
    out = []
    for probe in probes:
        for result in (
            database.search(probe, k=10),
            database.search_flat(probe, k=10),
            search_hierarchical(database.index_root, probe, k=10, nprobe=8, rerank_k=32),
            search_hierarchical(database.index_root, probe, k=10, nprobe=1_000_000),
        ):
            out.append([(hit.entry.key, hit.score) for hit in result.hits])
            out.append(dataclasses.replace(result.stats, elapsed_seconds=0.0))
        out.append([
            (hit.entry.video_title, hit.entry.scene_id, hit.entry.event, hit.score)
            for hit in database.scene_index.search(probe, k=10)
        ])
    return out


@pytest.mark.parametrize("version", [5])
def test_an_older_catalog_converts_once_and_answers_the_same_bits(
    source_db, probes, tmp_path, version
):
    save_database(source_db, tmp_path)
    written = stored_state(tmp_path)
    with SQLCatalog(tmp_path) as catalog:
        ids = _id_digests(catalog)
    rewind(tmp_path)
    conn = sqlite3.connect(catalog_path(tmp_path))
    assert conn.execute("PRAGMA user_version").fetchone()[0] == version
    conn.close()
    assert "ann_leaves" in _tables(tmp_path)
    assert len(stored_state(tmp_path)["blocks"]) > len(written["blocks"])  # code blocks
    opened = SQLVideoDatabase.open(tmp_path)
    try:
        catalog = opened.catalog
        assert _version(catalog) == SCHEMA_VERSION
        assert "ann_leaves" not in _tables(tmp_path)
        assert catalog.features.list_blocks() == sorted(catalog._referenced_blocks())
        assert _id_digests(catalog) == ids
        for sha in ids:
            catalog.features.verify(sha)
        assert stored_state(tmp_path) == written  # every row and block
        assert _answers(opened, probes) == _answers(source_db, probes)
        save_database(opened, tmp_path)
    finally:
        opened.close()
    assert stored_state(tmp_path) == written


def _stored_like_hits(docs: list[tuple], text: str, k: int) -> list[tuple]:
    """The reference: the all-tokens ``LIKE`` scan over a ``search_docs``
    table of ``docs`` that answered text search on a catalog without FTS5
    before v5."""
    tokens = [t for t in text.split() if t.strip('"')]
    if not tokens:
        return []
    clause = " AND ".join(
        "(body LIKE ? ESCAPE '\\' OR title LIKE ? ESCAPE '\\')" for _ in tokens
    )
    params: list[object] = []
    for token in tokens:
        escaped = token.replace("\\", "\\\\").replace("%", "\\%").replace("_", "\\_")
        params.extend((f"%{escaped}%", f"%{escaped}%"))
    params.append(int(k))
    conn = sqlite3.connect(":memory:")
    try:
        conn.execute(
            "CREATE TABLE search_docs (doc_id INTEGER PRIMARY KEY, kind TEXT NOT NULL, "
            "title TEXT NOT NULL, body TEXT NOT NULL)"
        )
        conn.executemany("INSERT INTO search_docs (kind, title, body) VALUES (?, ?, ?)", docs)
        return conn.execute(
            f"SELECT kind, title, body FROM search_docs WHERE {clause} ORDER BY doc_id LIMIT ?",
            params,
        ).fetchall()
    finally:
        conn.close()


def test_text_search_answers_what_the_stored_documents_did(source_db, tmp_path):
    save_database(source_db, tmp_path)
    queries = [
        "synthetic", "presentation", "clinical operation", "s_nthetic", "%", '"', " \t ",
    ]
    cases = [(text, k) for text in queries for k in (1, 5, 50)]
    with SQLCatalog(tmp_path) as catalog:
        # The documents a v4 writer stored as ``search_docs`` rows.
        docs = catalog._search_documents()
        got = [
            [(hit.kind, hit.title, hit.body) for hit in catalog.search_text(text, k)]
            for text, k in cases
        ]
    want = [_stored_like_hits(docs, text, k) for text, k in cases]
    assert got == want
    # Empty answers, answers cut at every k, and one exhausted below k.
    assert {len(hits) for hits in want} == {0, 1, 5, 37, 50}


def _files(db_dir) -> dict:
    names = ("catalog.sqlite", "catalog.sqlite-wal")
    state = {name: (db_dir / name).read_bytes() for name in names if (db_dir / name).exists()}
    state["blocks"] = sorted(p.name for p in (db_dir / "features").rglob("*"))
    return state


def test_a_second_opener_sees_the_current_schema_and_writes_nothing(source_db, tmp_path):
    save_database(source_db, tmp_path)
    rewind(tmp_path)
    with SQLCatalog(tmp_path) as first:
        assert _version(first) == SCHEMA_VERSION
        converted = _files(tmp_path)
        with SQLCatalog(tmp_path) as second:
            assert _version(second) == SCHEMA_VERSION
            assert second.entry_count() == source_db.shot_count
        assert _files(tmp_path) == converted


def test_racing_openers_convert_once_and_agree(source_db, probes, tmp_path):
    save_database(source_db, tmp_path)
    written = stored_state(tmp_path)
    rewind(tmp_path)
    start = threading.Barrier(4)

    def open_after_the_others(_):
        start.wait()
        return SQLVideoDatabase.open(tmp_path)

    with ThreadPoolExecutor(4) as pool:
        opened = list(pool.map(open_after_the_others, range(4)))
    try:
        want = _answers(source_db, probes[:2])
        for database in opened:
            assert _answers(database, probes[:2]) == want
    finally:
        for database in opened:
            database.close()
    assert stored_state(tmp_path) == written


@pytest.mark.parametrize(
    "damage, error, message",
    [("deleted", StorageError, "no feature block"), ("truncated", IntegrityError, "data bytes")],
)
def test_a_damaged_id_block_is_a_typed_error_on_first_touch(
    source_db, probes, tmp_path, damage, error, message
):
    save_database(source_db, tmp_path)
    opened = SQLVideoDatabase.open(tmp_path)
    try:
        catalog = opened.catalog
        for sha in _id_digests(catalog):
            path = catalog.features.path_for(sha)
            if damage == "deleted":
                path.unlink()
            else:
                path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(error, match=message):
            opened.search(probes[0], k=10)
        with pytest.raises(error, match=message):
            opened.search_flat(probes[0], k=10)
        with pytest.raises(error, match=message):
            opened.scene_index.search(probes[0], k=10)
    finally:
        opened.close()


def test_an_injected_read_fault_on_the_id_block_is_typed_and_the_next_touch_recovers(
    source_db, probes, tmp_path
):
    save_database(source_db, tmp_path)
    opened = SQLVideoDatabase.open(tmp_path)
    try:
        # A leaf's first touch opens its id block before any other block.
        with inject(FaultPlan([FaultSpec("storage.mmap_truncated", limit=1)])) as plan:
            with pytest.raises(ReproError, match="storage.mmap_truncated"):
                opened.search(probes[0], k=10)
        assert plan.fired("storage.mmap_truncated") == 1
        assert _answers(opened, probes) == _answers(source_db, probes)
    finally:
        opened.close()
