"""The content-addressed mmap feature store."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import IntegrityError, ReproError, StorageError
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.resilience.integrity import file_digest
from repro.storage import FeatureStore


@pytest.fixture()
def store(tmp_path):
    return FeatureStore(tmp_path / "features")


def _block(seed: int, rows: int = 4, cols: int = 6) -> np.ndarray:
    return np.random.default_rng(seed).random((rows, cols))


class TestPut:
    def test_roundtrip_is_exact(self, store):
        matrix = _block(0)
        ref = store.put(matrix)
        assert (ref.rows, ref.cols) == matrix.shape
        assert ref.nbytes == matrix.size * 8
        np.testing.assert_array_equal(store.open(ref.sha), matrix)

    def test_content_addressing_deduplicates(self, store):
        first = store.put(_block(1))
        second = store.put(_block(1))
        assert first.sha == second.sha
        assert store.list_blocks() == [first.sha]

    def test_distinct_content_distinct_blocks(self, store):
        a = store.put(_block(1))
        b = store.put(_block(2))
        assert a.sha != b.sha
        assert sorted(store.list_blocks()) == sorted([a.sha, b.sha])

    def test_rejects_non_2d(self, store):
        with pytest.raises(StorageError):
            store.put(np.zeros(5))

    def test_no_temp_files_left_behind(self, store):
        store.put(_block(3))
        store.put(_block(3))  # the dedup path writes no temp file at all
        assert not list(store.root.glob(".tmp-*"))

    def test_stored_bytes_are_not_rewritten(self, store, monkeypatch):
        ref = store.put(_block(5))
        before = store.path_for(ref.sha).stat()
        # The second put must decide from the digest alone: no file is made.
        monkeypatch.setattr(
            "tempfile.mkstemp", lambda *a, **k: pytest.fail("put wrote stored bytes again")
        )
        assert store.put(_block(5)) == ref
        after = store.path_for(ref.sha).stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert store.list_blocks() == [ref.sha]

    @pytest.mark.parametrize(
        "matrix, dtype",
        [
            (_block(6, 37, 64), np.float64),
            ((_block(7, 9, 5) * 255).astype(np.uint8), np.uint8),
            (_block(8, 50, 266)[:, ::4], np.float64),  # strided view
            (_block(9, 50, 266)[:, np.arange(0, 266, 5)], np.float64),  # F-ordered gather
            (np.empty((0, 6)), np.float64),
        ],
        ids=["float64", "uint8", "strided", "gathered", "empty"],
    )
    def test_digest_is_the_file_digest_of_np_save(self, store, tmp_path, matrix, dtype):
        """The address is computed from memory, and ``verify`` (which
        hashes the file) is the oracle that it names the stored bytes."""
        ref = store.put(matrix, dtype=dtype)
        np.save(tmp_path / "oracle.npy", np.ascontiguousarray(matrix, dtype=dtype))
        assert ref.sha == file_digest(tmp_path / "oracle.npy")
        assert store.path_for(ref.sha).read_bytes() == (tmp_path / "oracle.npy").read_bytes()
        store.verify(ref.sha)
        loaded = store.open(ref.sha)
        assert loaded.dtype == dtype
        np.testing.assert_array_equal(loaded, matrix)


class TestOpen:
    def test_missing_block_is_typed(self, store):
        with pytest.raises(StorageError):
            store.open("0" * 64)

    def test_corrupt_block_is_typed(self, store):
        ref = store.put(_block(4))
        path = store.path_for(ref.sha)
        path.write_bytes(path.read_bytes()[:16])
        with pytest.raises(IntegrityError):
            store.open(ref.sha)

    def test_injected_read_fault_is_typed_and_the_next_read_recovers(self, lazy_db, probes):
        # The scan maps the blocks of leaves nothing has touched yet.
        with inject(FaultPlan([FaultSpec("storage.mmap_truncated")])) as plan:
            with pytest.raises(ReproError, match="storage.mmap_truncated"):
                lazy_db.search_flat(probes[0], k=3)
        assert plan.fired("storage.mmap_truncated") >= 1
        assert lazy_db.search_flat(probes[0], k=3).hits

    def test_open_returns_readonly_mmap(self, store):
        ref = store.put(_block(5))
        block = store.open(ref.sha)
        assert isinstance(block, np.memmap)
        assert not block.flags.writeable

    def test_cache_hit_returns_same_object(self, store):
        ref = store.put(_block(6))
        assert store.open(ref.sha) is store.open(ref.sha)


class TestLRU:
    def test_max_open_must_be_positive(self, tmp_path):
        with pytest.raises(StorageError):
            FeatureStore(tmp_path, max_open=0)

    def test_eviction_respects_bound_and_recency(self, tmp_path):
        store = FeatureStore(tmp_path, max_open=2)
        refs = [store.put(_block(seed)) for seed in range(3)]
        store.open(refs[0].sha)
        store.open(refs[1].sha)
        store.open(refs[0].sha)  # refresh: ref 1 is now the LRU victim
        store.open(refs[2].sha)
        assert store.open_count == 2
        first = store.open(refs[0].sha)
        assert first is store.open(refs[0].sha)  # survived as a cache hit

    def test_close_releases_all_handles(self, store):
        ref = store.put(_block(7))
        store.open(ref.sha)
        store.close()
        assert store.open_count == 0


class TestVerifyDelete:
    def test_verify_accepts_intact_block(self, store):
        ref = store.put(_block(8))
        store.verify(ref.sha)

    def test_verify_rejects_tampering(self, store):
        ref = store.put(_block(9))
        path = store.path_for(ref.sha)
        payload = bytearray(path.read_bytes())
        payload[-1] ^= 0xFF
        path.write_bytes(bytes(payload))
        with pytest.raises(IntegrityError):
            store.verify(ref.sha)

    def test_verify_missing_block(self, store):
        with pytest.raises(StorageError):
            store.verify("f" * 64)

    def test_delete_drops_block_and_handle(self, store):
        ref = store.put(_block(10))
        store.open(ref.sha)
        assert store.delete(ref.sha)
        assert store.open_count == 0
        assert not store.delete(ref.sha)
        assert store.list_blocks() == []
