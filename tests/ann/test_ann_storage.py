"""The persisted ANN tier: round-trip fidelity and degrade paths.

A saved catalog carries each leaf's trained quantizer; the lazy view
must answer ANN queries bit-identically to the eager path, a missing
or fault-injected code block must *degrade* to the exact scan (and
recover once the block is back), and a catalog with no ``ann_leaves``
rows — what an earlier build's conversion of a v1 catalog left — must
still serve ANN queries via the deterministic in-process build.
"""

from __future__ import annotations

import sqlite3

import numpy as np
import pytest

from repro.ann.index import build_leaf_ann
from repro.database.query import search_hierarchical
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.storage import SQLCatalog, SQLVideoDatabase, catalog_path, save_database
from repro.storage.lazy import _ann_index_for

from .test_ann_equivalence import NPROBE_ALL, hits


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


class TestPersistedRoundTrip:
    def test_lazy_ann_matches_eager_exact(self, ann_db, lazy_db, probes):
        for probe in probes:
            exact = search_hierarchical(ann_db.index_root, probe, k=10)
            lazy_ann = search_hierarchical(
                lazy_db.index_root, probe, k=10, nprobe=NPROBE_ALL
            )
            assert hits(lazy_ann) == hits(exact)
            assert lazy_ann.stats.comparisons == exact.stats.comparisons
            assert not lazy_ann.stats.ann_degraded

    def test_lazy_and_eager_ann_agree_when_pruning(self, ann_db, lazy_db, probes):
        for probe in probes[:3]:
            eager = search_hierarchical(
                ann_db.index_root, probe, k=10, nprobe=2, rerank_k=8
            )
            lazy = search_hierarchical(
                lazy_db.index_root, probe, k=10, nprobe=2, rerank_k=8
            )
            assert hits(lazy) == hits(eager)
            assert lazy.stats.approx_comparisons == eager.stats.approx_comparisons

    def test_every_leaf_has_a_stored_quantizer(self, ann_db, lazy_db):
        catalog = lazy_db.catalog
        for info in catalog.leaf_infos():
            row = catalog.ann_leaf_row(info.name)
            assert row is not None
            assert row.rows == info.block.rows
            # The stored state reproduces a fresh build bit for bit.
            population = catalog.features.open(info.block.sha)
            rebuilt = build_leaf_ann(np.asarray(population), info.dims)
            leaf = lazy_db.leaves[info.name]
            loaded = _ann_index_for(catalog, info, leaf)
            assert loaded.digest() == rebuilt.digest()
            # The signatures are the leaf's: stored once, loaded once.
            assert loaded.sigs is leaf.signatures

    def test_code_blocks_are_uint8_and_gc_protected(self, lazy_db):
        catalog = lazy_db.catalog
        info = catalog.leaf_infos()[0]
        row = catalog.ann_leaf_row(info.name)
        codes = catalog.features.open(row.code_sha)
        assert codes.dtype == np.uint8
        assert row.code_sha in catalog._referenced_blocks()


class TestDegradeAndRecover:
    def test_fault_injection_degrades_to_exact(self, ann_dir, ann_db, probes):
        lazy = SQLVideoDatabase.open(ann_dir)
        try:
            exact = search_hierarchical(ann_db.index_root, probes[0], k=10)
            plan = FaultPlan(
                [FaultSpec(point="storage.ann_block_missing", kind="error")],
                seed=1,
            )
            with inject(plan):
                degraded = search_hierarchical(
                    lazy.index_root, probes[0], k=10, nprobe=NPROBE_ALL
                )
            assert degraded.stats.ann_degraded
            assert hits(degraded) == hits(exact)
            # Fault cleared: the kept thunk resolves and the flag drops.
            recovered = search_hierarchical(
                lazy.index_root, probes[0], k=10, nprobe=NPROBE_ALL
            )
            assert not recovered.stats.ann_degraded
            assert hits(recovered) == hits(exact)
        finally:
            lazy.close()

    def test_missing_code_block_degrades_to_exact(self, ann_db, probes, tmp_path):
        save_database(ann_db, tmp_path)
        lazy = SQLVideoDatabase.open(tmp_path)
        try:
            catalog = lazy.catalog
            for info in catalog.leaf_infos():
                row = catalog.ann_leaf_row(info.name)
                catalog.features.path_for(row.code_sha).unlink()
            exact = search_hierarchical(ann_db.index_root, probes[0], k=10)
            result = search_hierarchical(
                lazy.index_root, probes[0], k=10, nprobe=NPROBE_ALL
            )
            assert result.stats.ann_degraded
            assert hits(result) == hits(exact)
        finally:
            lazy.close()


class TestPreAnnCatalog:
    def test_v1_catalog_upgrades_and_serves_ann(self, ann_db, probes, tmp_path):
        save_database(ann_db, tmp_path)
        # What converting a v1 catalog left: no quantizer rows, no code blocks.
        with SQLCatalog(tmp_path) as catalog:
            for info in catalog.leaf_infos():
                assert catalog.features.delete(catalog.ann_leaf_row(info.name).code_sha)
        conn = sqlite3.connect(catalog_path(tmp_path))
        with conn:
            conn.execute("DELETE FROM ann_leaves")
        conn.close()
        lazy = SQLVideoDatabase.open(tmp_path)
        try:
            assert all(
                lazy.catalog.ann_leaf_row(info.name) is None
                for info in lazy.catalog.leaf_infos()
            )
            exact = search_hierarchical(ann_db.index_root, probes[0], k=10)
            # No stored rows: resolve_ann falls through to the eager
            # deterministic build, not a degrade.
            result = search_hierarchical(
                lazy.index_root, probes[0], k=10, nprobe=NPROBE_ALL
            )
            assert not result.stats.ann_degraded
            assert hits(result) == hits(exact)
        finally:
            lazy.close()
