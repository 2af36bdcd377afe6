"""Content-addressed, memory-mapped feature-block store.

The catalog's per-row payload — packed ``(N, 266)`` float64 feature
matrices and their int64 id blocks, per scene-concept leaf and for the
scene centroids — lives outside SQLite as plain ``.npy`` files addressed by
the sha256 of their bytes::

    <db_dir>/features/<sha[:2]>/<sha>.npy

The layout mirrors the ingest artifact store (two-level fan-out,
tmp-file + ``os.replace`` atomic publish) and its integrity contract:
the file *name* is the checksum, computed with the same streaming
:func:`~repro.resilience.integrity.file_digest` the PR-5 artifact
checksums use, so :meth:`FeatureStore.verify` needs no side manifest.

Blocks open as read-only ndarrays over a read-only ``mmap`` of the file
— the OS pages rows in on demand (and a flat scan gives a leaf's back,
:meth:`FeatureStore.open`), so a cold-started process touches only the
blocks its queries actually route into, and resident memory stays
independent of corpus size.  A small LRU bounds the number of
simultaneously open mmaps; hit/miss counters and an open-handle gauge
publish through the process metrics registry, and the
``storage.mmap_truncated`` fault point lets chaos runs inject read
failures here.
"""

from __future__ import annotations

import io
import math
import mmap
import os
import re
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import IntegrityError, StorageError
from repro.obs.registry import get_registry
from repro.resilience.faults import fault_point
from repro.resilience.integrity import file_digest

#: Default bound on simultaneously open mmap handles.
DEFAULT_MAX_OPEN = 32
_RUN = 1 << 21  # the address-aligned unit ``release_pages`` gives back


@dataclass(frozen=True)
class BlockRef:
    """Identity and shape of one stored feature block."""

    sha: str
    rows: int
    cols: int

    @property
    def nbytes(self) -> int:
        """Payload size of the block (both dtypes the store writes are
        8 bytes wide)."""
        return self.rows * self.cols * 8


class _ScanMapping(mmap.mmap):
    """A block file's read-only mapping, where ``MADV_DONTNEED`` only unmaps:
    the next read faults the same bytes back in.  (On a registered corpus's
    anonymous pages it zeroes the rows: kernels look for this method, not mmap.)"""

    def __init__(self, *args, **kwargs) -> None:
        self.address = np.frombuffer(self, np.uint8).__array_interface__["data"][0]

    def release_pages(self, rows: np.ndarray) -> None:
        """Unmap the whole 2 MiB runs behind ``rows``, which a forward scan
        just scored (the run they share with earlier rows goes, the one
        with later rows stays; the file's tail goes with the last rows).
        Runs, not pages: releasing part of a 2 MiB page-cache folio splits
        the one PMD entry that maps it (see docs/STORAGE.md)."""
        first = rows.__array_interface__["data"][0]
        end = first + rows.shape[0] * rows.strides[0]
        start = max(first - first % _RUN - self.address, 0)
        stop = len(self) if end - self.address >= len(self) else end - end % _RUN - self.address
        if stop > start:
            self.madvise(mmap.MADV_DONTNEED, start, stop - start)


def _header(shape: tuple[int, ...], dtype: np.dtype) -> bytes:
    """The version 1.0 ``.npy`` header ``np.save`` writes ahead of a C-order
    ``shape`` block of ``dtype``: what :meth:`FeatureStore.put` hashes and
    writes, and the only header :func:`map_block` maps."""
    out = io.BytesIO()
    np.lib.format.write_array_header_1_0(out, {
        "descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False, "shape": shape,
    })
    return out.getvalue()


#: The fields of a header :func:`_header` renders for a 1-D or 2-D block of
#: a dtype the store writes; the match only finds the shape that
#: :func:`map_block` renders back and compares byte for byte.
_FIELDS = re.compile(
    rb"\{'descr': '(?:<f8|<i8)', 'fortran_order': False, 'shape': \((\d+),(?: (\d+))?\), \}"
)


def map_block(path: Path, dtype, mapping_type: type[mmap.mmap] = mmap.mmap) -> np.ndarray:
    """A read-only ndarray over the ``.npy`` file at ``path`` whose header is
    byte for byte the one :meth:`FeatureStore.put` or ``np.save`` write for
    a C-order 1-D or 2-D block of ``dtype`` (``<f8`` or ``<i8``; the caller
    knows which it stores there).  ``ValueError`` for any other header or
    size.  Nothing is parsed: the shape is found by its field, the header
    rendered back for ``dtype`` and compared."""
    dtype = np.dtype(dtype)
    with open(path, "rb") as handle:
        header = handle.read(10)  # magic, version, little-endian header length
        header += handle.read(int.from_bytes(header[8:10], "little"))
        fields = _FIELDS.match(header, 10)
        shape = () if fields is None else tuple(int(n) for n in fields.groups() if n is not None)
        if fields is None or _header(shape, dtype) != header:
            raise ValueError(f"not a header FeatureStore.put writes for a {dtype} block")
        mapping = mapping_type(handle.fileno(), 0, access=mmap.ACCESS_READ)
    cells = len(mapping) - len(header)
    if cells != math.prod(shape) * dtype.itemsize:
        raise ValueError(f"{cells} data bytes for a {shape} {dtype} block")
    return np.ndarray(shape, dtype, buffer=mapping, offset=len(header))


class FeatureStore:
    """Content-addressed ``.npy`` blocks with a bounded mmap cache.

    Thread-safe: serving workers share one store; the LRU and its
    counters serialise on an internal lock, while the returned mapped
    arrays themselves are read-only and safe to share.
    """

    def __init__(self, root: str | Path, max_open: int = DEFAULT_MAX_OPEN) -> None:
        if max_open < 1:
            raise StorageError("feature store needs max_open >= 1")
        self._root = Path(root)
        self._max_open = max_open
        self._lock = threading.Lock()
        self._open: OrderedDict[str, np.ndarray] = OrderedDict()
        registry = get_registry()
        self._hits = registry.counter(
            "storage_block_cache_hits_total",
            "Feature-block opens served from the mmap LRU.",
        )
        self._misses = registry.counter(
            "storage_block_cache_misses_total",
            "Feature-block opens that mapped a file.",
        )
        self._gauge = registry.gauge(
            "storage_block_open_mmaps",
            "Feature blocks held open by every feature store in the process.",
        )

    @property
    def root(self) -> Path:
        """Root directory of the store."""
        return self._root

    def path_for(self, sha: str) -> Path:
        """File a block with digest ``sha`` lives in (may not exist)."""
        return self._root / sha[:2] / f"{sha}.npy"

    def put(self, rows, dtype=np.float64, shape: tuple[int, int] | None = None) -> BlockRef:
        """Store one 2-D block — ``rows``, or with its ``shape`` an iterable of
        its row chunks in order, each read before the next is asked for —
        and return its content address: the sha256 of the ``.npy`` header
        and rows, which :func:`~repro.resilience.integrity.file_digest`
        reads back from the file, however the rows were chunked.  A whole
        array is hashed first, so an unchanged block costs one hash and no
        write; chunks are hashed as they are written, in one pass, and the
        temp file goes when that digest is stored already.  The temp file
        is renamed into place, so no crash or raising producer leaves a
        half-written block under a valid name.  ``dtype``: float64 feature
        rows by default, int64 id blocks (:meth:`open` is told which).
        """
        dtype = np.dtype(dtype)
        whole = isinstance(rows, np.ndarray) or shape is None
        if whole:
            rows = np.ascontiguousarray(rows, dtype=dtype)
            shape = rows.shape
        if len(shape) != 2:
            raise StorageError(f"feature blocks are 2-D, got shape {shape}")
        header = _header(tuple(shape), dtype)
        import hashlib  # here, not at module level: a shard worker hashes nothing
        hasher = hashlib.sha256(header)
        size = len(header) + math.prod(shape) * dtype.itemsize

        def stored() -> bool:  # by name and size: a truncated file is rewritten, repaired
            path = self.path_for(hasher.hexdigest())
            return path.exists() and path.stat().st_size == size

        if whole:
            hasher.update(rows.reshape(-1).data)
            if stored():
                return BlockRef(hasher.hexdigest(), *shape)
            rows = (rows,)
        if not self._root.is_dir():  # a stat: ``mkdir`` on a directory that exists costs more
            self._root.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(prefix=".tmp-block-", suffix=".npy", dir=self._root)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(header)
                for chunk in rows:
                    data = np.ascontiguousarray(chunk, dtype=dtype).reshape(-1).data
                    if not whole:
                        hasher.update(data)
                    handle.write(data)
                if handle.tell() != size:
                    raise StorageError(f"rows of {handle.tell() - len(header)} bytes for {shape}")
            if not stored():
                self.path_for(hasher.hexdigest()).parent.mkdir(exist_ok=True)
                os.replace(tmp_name, self.path_for(hasher.hexdigest()))
        finally:
            Path(tmp_name).unlink(missing_ok=True)
        return BlockRef(hasher.hexdigest(), *shape)

    def open(self, sha: str, resident: bool = True, dtype=np.float64) -> np.ndarray:
        """Memory-map the block addressed by ``sha`` (read-only).

        Served from the LRU when already mapped; otherwise the file is
        mapped and the least recently used handle beyond the bound is
        dropped.  ``resident=False`` is for a block only a full scan reads
        whole (a leaf's 266-d rows): the kernels' chunk loop gives its
        pages back as it moves on.  ``dtype`` is the one the catalog
        stored there (an id block's ``np.int64``).  A missing block raises
        :class:`~repro.errors.StorageError`; a truncated one, one whose
        header :meth:`put` would not write for ``dtype``, or a cached map
        of another dtype raises :class:`~repro.errors.IntegrityError`,
        matching the artifact store's corruption contract.
        """
        fault_point("storage.mmap_truncated")
        with self._lock:
            cached = self._open.get(sha)
            if cached is not None:
                if cached.dtype != dtype:
                    raise IntegrityError(
                        f"feature block {sha[:12]}… is {cached.dtype}, not {np.dtype(dtype)}"
                    )
                self._open.move_to_end(sha)
                self._hits.inc()
                return cached
        path = self.path_for(sha)
        if not path.exists():
            raise StorageError(f"no feature block {sha[:12]}… in {self._root}")
        try:
            block = map_block(path, dtype, mmap.mmap if resident else _ScanMapping)
        except (OSError, ValueError) as exc:
            raise IntegrityError(
                f"feature block {sha[:12]}… is corrupt or truncated: {exc}"
            ) from exc
        with self._lock:
            self._misses.inc()
            held = len(self._open)
            self._open[sha] = block
            self._open.move_to_end(sha)
            while len(self._open) > self._max_open:
                self._open.popitem(last=False)
            self._gauge.inc(len(self._open) - held)
        return block

    def verify(self, sha: str) -> None:
        """Recompute the digest of a stored block against its address.

        Raises :class:`~repro.errors.StorageError` for a missing block
        and :class:`~repro.errors.IntegrityError` on a mismatch (bit
        rot, a truncating copy, an injected corruption).
        """
        path = self.path_for(sha)
        if not path.exists():
            raise StorageError(f"no feature block {sha[:12]}… in {self._root}")
        actual = file_digest(path)
        if actual != sha:
            raise IntegrityError(
                f"feature block {sha[:12]}… failed verification: "
                f"content digest is {actual[:12]}…"
            )

    def list_blocks(self) -> list[str]:
        """Digests of every stored block (sorted)."""
        if not self._root.exists():
            return []
        return sorted(p.stem for p in self._root.glob("*/*.npy"))

    def delete(self, sha: str) -> bool:
        """Drop one block (and any open handle); True when removed."""
        with self._lock:
            if self._open.pop(sha, None) is not None:
                self._gauge.inc(-1)
        path = self.path_for(sha)
        if not path.exists():
            return False
        path.unlink()
        return True

    def close(self) -> None:
        """Release every open mmap handle."""
        with self._lock:
            self._gauge.inc(-len(self._open))
            self._open.clear()
