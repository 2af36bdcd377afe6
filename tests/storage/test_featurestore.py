"""The content-addressed mmap feature store."""

from __future__ import annotations

import io
import mmap
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IntegrityError, ReproError, StorageError
from repro.obs.registry import get_registry
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

    def test_row_chunks_store_what_the_whole_array_does(self, store, tmp_path):
        """Uneven chunks (an empty one too), handed out in one reused buffer
        as a streaming producer does: same address, same bytes, ``verify``
        passes; put again into a store that holds it, nothing is replaced."""
        matrix = _block(11, 37, 6)
        scratch = np.empty((16, 6))

        def chunks():
            for start, stop in ((0, 1), (1, 17), (17, 30), (30, 30), (30, 37)):
                scratch[: stop - start] = matrix[start:stop]
                yield scratch[: stop - start]

        whole = store.put(matrix)
        chunked = FeatureStore(tmp_path / "chunked")
        ref = chunked.put(chunks(), shape=matrix.shape)
        assert ref == whole
        assert chunked.path_for(ref.sha).read_bytes() == store.path_for(whole.sha).read_bytes()
        chunked.verify(ref.sha)
        before = store.path_for(whole.sha).stat()
        assert store.put(chunks(), shape=matrix.shape) == whole
        after = store.path_for(whole.sha).stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        for kept in (store, chunked):
            assert not list(kept.root.glob(".tmp-*"))
            assert len(kept.list_blocks()) == 1

    def test_a_producer_that_raises_or_falls_short_leaves_nothing(self, store):
        def failing():
            yield _block(12, 3, 6)
            raise RuntimeError("producer failed")

        with pytest.raises(RuntimeError, match="producer failed"):
            store.put(failing(), shape=(6, 6))
        with pytest.raises(StorageError, match="rows of"):
            store.put(iter([_block(13, 5, 6)]), shape=(6, 6))
        assert not list(store.root.glob(".tmp-*"))
        assert store.list_blocks() == []

    @pytest.mark.parametrize(
        "matrix, dtype",
        [
            (_block(6, 37, 64), np.float64),
            ((_block(7, 9, 5) * 2**40).astype(np.int64), np.int64),
            (_block(8, 50, 266)[:, ::4], np.float64),  # strided view
            (_block(9, 50, 266)[:, np.arange(0, 266, 5)], np.float64),  # F-ordered gather
            (np.empty((0, 6)), np.float64),
        ],
        ids=["float64", "int64", "strided", "gathered", "empty"],
    )
    def test_digest_is_the_file_digest_of_np_save(self, store, tmp_path, matrix, dtype):
        """The address is computed from memory, and ``verify`` (which
        hashes the file) is the oracle that it names the stored bytes."""
        ref = store.put(matrix, dtype=dtype)
        np.save(tmp_path / "oracle.npy", np.ascontiguousarray(matrix, dtype=dtype))
        assert ref.sha == file_digest(tmp_path / "oracle.npy")
        assert store.path_for(ref.sha).read_bytes() == (tmp_path / "oracle.npy").read_bytes()
        store.verify(ref.sha)
        loaded = store.open(ref.sha, dtype=dtype)
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

    @pytest.mark.parametrize("cut", [8, 1, -8], ids=["short-row", "short-cell", "long"])
    def test_truncated_cells_are_typed(self, store, cut):
        """The header parses, but the file holds more or fewer cell bytes
        than it declares."""
        ref = store.put(_block(4))
        path = store.path_for(ref.sha)
        payload = path.read_bytes()
        path.write_bytes(payload[:-cut] if cut > 0 else payload + bytes(-cut))
        with pytest.raises(IntegrityError, match="data bytes"):
            store.open(ref.sha)

    def test_injected_read_fault_is_typed_and_the_next_read_recovers(self, lazy_db, probes):
        # The scan maps the blocks of leaves nothing has touched yet.
        with inject(FaultPlan([FaultSpec("storage.mmap_truncated")])) as plan:
            with pytest.raises(ReproError, match="storage.mmap_truncated"):
                lazy_db.search_flat(probes[0], k=3)
        assert plan.fired("storage.mmap_truncated") >= 1
        assert lazy_db.search_flat(probes[0], k=3).hits

    def test_a_block_opened_as_the_other_dtype_is_typed(self, store):
        """The caller names the dtype it stored; the header must say the
        same, whether the block is mapped now or already cached."""
        ref = store.put(_block(4))
        with pytest.raises(IntegrityError, match="not a header"):
            store.open(ref.sha, dtype=np.int64)
        store.open(ref.sha)
        with pytest.raises(IntegrityError, match="is float64, not int64"):
            store.open(ref.sha, dtype=np.int64)

    def test_open_returns_readonly_mmap(self, store):
        ref = store.put(_block(5))
        block = store.open(ref.sha)
        assert type(block) is np.ndarray  # no np.memmap subclass on every row view
        assert isinstance(block.base, mmap.mmap) and not block.flags.writeable
        assert len(block.base) == store.path_for(ref.sha).stat().st_size

    def test_cache_hit_returns_same_object(self, store):
        ref = store.put(_block(6))
        assert store.open(ref.sha) is store.open(ref.sha)

    def test_concurrent_opens_parse_no_header(self, store, monkeypatch):
        """A block maps by comparing its header with the one ``put`` writes:
        numpy's parser (``ast.literal_eval``, whose recursion counter CPython
        3.11 shares between threads) is never called, so opens overlap."""

        def no_parse(*args, **kwargs):
            raise AssertionError("a feature-block open parsed a .npy header")

        monkeypatch.setattr(np.lib.format, "read_magic", no_parse)
        monkeypatch.setattr(np.lib.format, "read_array_header_1_0", no_parse)
        matrices = [_block(seed, rows=seed + 1) for seed in range(8)]
        shas = [store.put(matrix).sha for matrix in matrices]
        start, opened = threading.Barrier(len(shas)), {}

        def open_block(sha):
            start.wait(timeout=10.0)
            opened[sha] = store.open(sha)

        threads = [threading.Thread(target=open_block, args=(sha,)) for sha in shas]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads)
        assert len(opened) == len(shas)
        for sha, matrix in zip(shas, matrices):
            np.testing.assert_array_equal(opened[sha], matrix)


def _npy(array: np.ndarray, **kwargs) -> bytes:
    out = io.BytesIO()
    np.lib.format.write_array(out, array, **kwargs)
    return out.getvalue()


def _repadded(stored: bytes) -> bytes:
    """The stored header, its closing ``, }`` written ``,} ``."""
    return stored.replace(b"), }", b"),} ", 1)


def _longer(stored: bytes) -> bytes:
    """The stored header with 64 more bytes of padding, and a length field
    that says so."""
    length = int.from_bytes(stored[8:10], "little")
    header = stored[: 10 + length]
    return (
        header[:8] + (length + 64).to_bytes(2, "little") + header[10:-1]
        + 64 * b" " + b"\n" + stored[10 + length:]
    )


class TestHeader:
    """A block maps only when its header is byte for byte the one ``put``
    writes; numpy's reader accepts many more."""

    MATRIX = _block(4)

    @pytest.mark.parametrize(
        "variant",
        [
            lambda stored: _npy(np.asfortranarray(TestHeader.MATRIX)),
            lambda stored: _npy(TestHeader.MATRIX.astype(">f8")),
            lambda stored: _npy(TestHeader.MATRIX.astype(object)),
            lambda stored: _npy(TestHeader.MATRIX.reshape(2, 2, 6)),
            lambda stored: _npy(TestHeader.MATRIX, version=(2, 0)),
            _repadded,
            _longer,
        ],
        ids=["fortran-order", "big-endian", "object", "3-d", "version-2.0", "padding", "length+64"],
    )
    def test_a_header_put_never_writes_is_typed(self, store, variant):
        ref = store.put(self.MATRIX)
        path = store.path_for(ref.sha)
        path.write_bytes(variant(path.read_bytes()))
        accepted = np.load(path, allow_pickle=True)  # numpy reads it
        assert accepted.size == self.MATRIX.size
        with pytest.raises(IntegrityError, match="not a header"):
            store.open(ref.sha)

    @given(at=st.integers(0, 127), value=st.integers(0, 255))
    @settings(max_examples=300, deadline=None)
    def test_a_one_byte_header_edit_maps_the_same_array_or_is_typed(
        self, tmp_path_factory, at, value
    ):
        """The header slice of fuzzing the byte parsers, on a float64 and an
        int64 block: the reader names the dtype it stored, so an edit that
        swaps ``<f8`` and ``<i8`` is caught like any other."""
        for matrix in (self.MATRIX, (self.MATRIX * 2**40).astype(np.int64)):
            store = FeatureStore(tmp_path_factory.mktemp("edits"))
            ref = store.put(matrix, dtype=matrix.dtype)
            path = store.path_for(ref.sha)
            stored = path.read_bytes()
            assert int.from_bytes(stored[8:10], "little") + 10 == 128
            edited = bytearray(stored)
            edited[at] = value
            path.write_bytes(bytes(edited))
            try:
                mapped = store.open(ref.sha, dtype=matrix.dtype)
            except IntegrityError:
                continue
            assert mapped.dtype == matrix.dtype and mapped.shape == matrix.shape
            np.testing.assert_array_equal(mapped, matrix)


def _resident_bytes(path) -> int:
    """``Rss`` of this process's mappings of ``path``, from ``/proc/self/smaps``."""
    rss, ours = 0, False
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            head = line.split()
            if "-" in head[0] and not head[0].endswith(":"):
                ours = len(head) > 5 and head[-1] == str(path)
            elif ours and head[0] == "Rss:":
                rss += 1024 * int(head[1])
    return rss


class TestScanRelease:
    """A block opened ``resident=False`` gives the pages a whole-block Eq. (1)
    scan has scored back; what it reads never changes."""

    ROWS = 3_000  # twelve 256-row chunks, 6.4 MB

    def test_a_scan_holds_no_page_of_a_released_block(self, store):
        from repro.core.kernels import combined_stsim_to_many

        rng = np.random.default_rng(3)
        matrix, query = rng.random((self.ROWS, 266)), rng.random(266)
        scanned_path = store.path_for(store.put(matrix).sha)
        scanned = store.open(scanned_path.stem, resident=False)
        kept_path = store.path_for(store.put(matrix[::-1]).sha)
        kept = store.open(kept_path.stem)
        expected = combined_stsim_to_many(query, matrix)
        for _ in range(2):  # the second scan faults the pages back in
            assert combined_stsim_to_many(query, scanned).tobytes() == expected.tobytes()
            assert combined_stsim_to_many(query, kept).tobytes() == expected[::-1].tobytes()
            assert _resident_bytes(scanned_path) == 0
            assert _resident_bytes(kept_path) >= matrix.nbytes
        assert np.array_equal(scanned, matrix)
        # A gathered row subset is not a forward scan: it releases nothing.
        combined_stsim_to_many(query, scanned, rows=np.arange(self.ROWS))
        assert _resident_bytes(scanned_path) >= matrix.nbytes


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
        assert len(store._open) == 2
        first = store.open(refs[0].sha)
        assert first is store.open(refs[0].sha)  # survived as a cache hit

    def test_close_releases_all_handles(self, store):
        ref = store.put(_block(7))
        store.open(ref.sha)
        store.close()
        assert len(store._open) == 0

    def test_the_open_mmaps_gauge_counts_every_store(self, tmp_path):
        """Stores share one process-wide gauge (a reader beside a writer,
        two generations, in-process shards): each moves it by what its own
        LRU gains and loses, so a retired store's close leaves the live
        store's count standing."""
        gauge = get_registry().gauge("storage_block_open_mmaps")
        base = gauge.value
        retired, live = FeatureStore(tmp_path / "a", max_open=2), FeatureStore(tmp_path / "b")
        retired_refs = [retired.put(_block(seed)) for seed in range(3)]
        live_refs = [live.put(_block(seed)) for seed in range(3, 6)]
        for ref in retired_refs:  # the third open evicts the first
            retired.open(ref.sha)
        for ref in live_refs:
            live.open(ref.sha)
        live.open(live_refs[0].sha)  # a hit maps nothing
        assert gauge.value == base + 5
        assert live.delete(live_refs[1].sha)
        retired.delete(retired_refs[0].sha)  # evicted already: not counted twice
        assert gauge.value == base + 4
        retired.close()
        assert gauge.value == base + len(live._open) == base + 2
        live.close()
        assert gauge.value == base


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
        assert len(store._open) == 0
        assert not store.delete(ref.sha)
        assert store.list_blocks() == []
