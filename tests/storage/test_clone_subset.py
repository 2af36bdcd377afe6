"""A clone hands its leaves the parent's derived rows, and they are what
the clone would derive from its own rows.

``clone_subset`` pins the full corpus's routing, so each kept row's
reduced features and hash signature, and each kept scene's centroid, are
cut from the parent instead of computed again.  Held here, for a
registered corpus and for its opened store, over random title subsets,
to what the clone's own rows give.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.database.index import leaf_signatures
from repro.database.scene_search import corpus_scenes
from repro.storage import SQLVideoDatabase


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _subsets(titles: list[str]) -> list[list[str]]:
    rng = np.random.default_rng(17)
    picks = [titles, titles[:1], titles[-1:]]
    for size in (2, len(titles) // 3, len(titles) - 1):
        picks.append(rng.choice(titles, size=size, replace=False).tolist())
    return picks


@pytest.fixture(params=["registered", "stored"])
def parent(request, source_db, stored_dir):
    if request.param == "registered":
        yield source_db
        return
    database = SQLVideoDatabase.open(stored_dir)
    yield database
    database.close()


def test_clone_rows_carry_what_their_own_rows_derive(parent):
    for titles in _subsets(sorted(parent.videos)):
        clone, ordinals = parent.clone_subset(titles)
        flat = parent.flat_index.entries
        assert ordinals.tolist() == [o for o, e in enumerate(flat) if e.video_title in titles]
        assert clone.shot_count == ordinals.size
        for name, leaf in clone.leaves.items():
            block = np.asarray(leaf.block)
            assert _same_bits(leaf.reduced, block.take(leaf.dims, axis=1)), name
            assert leaf.reduced.flags.c_contiguous
            assert _same_bits(leaf.signatures, leaf_signatures(block)), name
            source = parent.leaves[name]
            assert _same_bits(leaf.centers, source.centers)
            assert _same_bits(leaf.dims, source.dims)


def test_clone_scene_table_is_the_one_its_rows_give(parent):
    for titles in _subsets(sorted(parent.videos)):
        clone, _ = parent.clone_subset(titles)
        table = clone.scene_index.table
        expected = corpus_scenes(list(clone.leaves.values()), clone.videos)
        assert len(clone.scene_index) == len(expected.titles)
        assert table.titles.tolist() == expected.titles.tolist()
        assert table.events.tolist() == expected.events.tolist()
        for mine, theirs in (
            (table.scene_ids, expected.scene_ids),
            (table.shot_counts, expected.shot_counts),
            (np.asarray(table.centroids), expected.centroids),
        ):
            assert _same_bits(mine, theirs)
        assert set(table.titles.tolist()) == set(titles)
