"""The synthetic corpus builder against its shot-by-shot oracle.

``build_synthetic_database`` draws one video's uniforms in one call and
files each scene as one ``(m, 266)`` slice; the oracle draws them shot by
shot and files lists of rows.  Both must register the same database.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database.catalog import VideoDatabase
from repro.storage import build_synthetic_database
from repro.types import EventKind
from tests.storage.oracles import oracle_synthetic_database


def _columns(database) -> dict[str, list]:
    """Every leaf's columns, in leaf order: block bytes, then plain lists."""
    return {
        name: [leaf.block.dtype.str, leaf.block.shape, leaf.block.tobytes()]
        + [column.tolist() for column in leaf.rows[1:]]
        for name, leaf in database.leaves.items()
    }


@settings(max_examples=60, deadline=None)
@given(
    videos=st.integers(0, 12),
    shots=st.integers(1, 13),
    scenes=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_builder_registers_what_the_oracle_does(videos, shots, scenes, seed):
    # More scenes than shots included: the last scene's count is then <= 0.
    built = build_synthetic_database(videos, shots, scenes, seed)
    oracle = oracle_synthetic_database(videos, shots, scenes, seed)
    assert list(built.leaves) == list(oracle.leaves)
    assert _columns(built) == _columns(oracle)
    assert built.videos == oracle.videos
    assert built.shot_count == oracle.shot_count


def test_more_scenes_than_shots_keeps_every_scene_record():
    database = build_synthetic_database(videos=2, shots_per_video=2, scenes_per_video=5, seed=4)
    record = database.videos["synthetic_00000"]
    assert record.scene_count == 5
    assert record.shot_count == 4  # one shot for each of the first four scenes


@settings(max_examples=12, deadline=None)
@given(
    videos=st.integers(1, 20),
    more=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_corpus_is_the_prefix_of_every_longer_one(videos, more, seed):
    # The benchmark's refresh writer grows a corpus by registering the
    # longer corpus's tail: each leaf of build(n) is the head of build(n + m)'s.
    short = build_synthetic_database(videos, 12, seed=seed)
    long = build_synthetic_database(videos + more, 12, seed=seed)
    assert list(long.leaves)[: len(short.leaves)] == list(short.leaves)
    for name, leaf in short.leaves.items():
        head = len(leaf)
        grown = long.leaves[name]
        assert grown.block[:head].tobytes() == leaf.block.tobytes()
        for mine, theirs in zip(leaf.rows[1:], grown.rows[1:]):
            assert theirs[:head].tolist() == mine.tolist()
    assert {t: long.videos[t] for t in short.videos} == short.videos


def test_scenes_given_as_arrays_or_lists_file_the_same_rows():
    rows = np.random.default_rng(2).random((5, 266))
    as_array, as_list = VideoDatabase(), VideoDatabase()
    as_array.register_entries(
        "v", [(0, EventKind.DIALOG, rows[:3]), (1, EventKind.UNKNOWN, rows[3:])]
    )
    as_list.register_entries(
        "v", [(0, EventKind.DIALOG, list(rows[:3])), (1, EventKind.UNKNOWN, list(rows[3:]))]
    )
    assert _columns(as_array) == _columns(as_list)
