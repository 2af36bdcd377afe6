"""A directory re-saved between ``open`` and a leaf's first touch.

The reader opened generation A's leaf metadata (entry count, block
digest) and has A's blocks mapped; a leaf's first touch then reads the
row identities of whatever generation the directory holds *now*.  That
used to surface as a bare ``IndexError`` from indexing the old block
with the new row numbers (``index 1320 is out of bounds for axis 0 with
size 1320``, benchmarks/e2e README finding 3); it must be a typed :class:`~repro.errors.StorageError` that names the mismatch.  A
reader whose leaves were all touched *before* the re-save holds A's
columns and A's mapped blocks, and keeps answering A.
"""

from __future__ import annotations

import pytest

from repro.errors import StorageError
from repro.storage import SQLVideoDatabase, build_synthetic_database, save_database


def test_resave_before_first_touch_raises_typed_generation_error(tmp_path):
    save_database(build_synthetic_database(videos=8, shots_per_video=8, seed=1), tmp_path)
    reader = SQLVideoDatabase.open(tmp_path)
    touched = SQLVideoDatabase.open(tmp_path)
    try:
        probe = build_synthetic_database(videos=1, seed=2).flat_index.entries[0].features
        root = reader.index_root  # leaf metadata of generation A, no leaf touched
        for info in reader.catalog.leaf_infos():
            reader.catalog.features.open(info.block.sha)  # maps A's blocks, touches no leaf
        flat_a = touched.search_flat(probe, k=5).hits  # a flat scan touches every leaf
        shots_a = touched.search(probe, k=5).hits
        # Generation B grows every leaf while the reader still holds A's metadata.
        save_database(build_synthetic_database(videos=12, shots_per_video=8, seed=1), tmp_path)
        with pytest.raises(StorageError, match="changed generation") as raised:
            reader.search(probe, k=5)
        assert not isinstance(raised.value, IndexError)
        assert root is reader.index_root
        assert touched.search_flat(probe, k=5).hits == flat_a
        assert touched.search(probe, k=5).hits == shots_a
    finally:
        reader.close()
        touched.close()
    # A reader opened after the re-save serves generation B.
    fresh = SQLVideoDatabase.open(tmp_path)
    try:
        assert fresh.search(probe, k=5).hits
    finally:
        fresh.close()
