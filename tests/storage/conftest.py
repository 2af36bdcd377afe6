"""Shared fixtures: one synthetic corpus saved once per module.

Building and persisting the corpus dominates this suite's cost, so the
in-RAM source database and its stored form are module-scoped; tests
that mutate state make their own copies.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.storage import SQLVideoDatabase, build_synthetic_database, save_database


@pytest.fixture(scope="module")
def source_db():
    """The in-RAM synthetic corpus every equivalence check compares to."""
    return build_synthetic_database(videos=24, shots_per_video=8, seed=0)


@pytest.fixture(scope="module")
def stored_dir(tmp_path_factory, source_db):
    """A database directory holding the stored form of ``source_db``."""
    db_dir = tmp_path_factory.mktemp("storage-db")
    save_database(source_db, db_dir)
    return db_dir


@pytest.fixture()
def lazy_db(stored_dir):
    """A freshly opened out-of-core view of the stored corpus."""
    database = SQLVideoDatabase.open(stored_dir)
    yield database
    database.close()


@pytest.fixture(scope="module")
def probes(source_db):
    """Entry features plus one unseen probe that ties many scores."""
    entries = source_db.flat_index.entries
    rng = np.random.default_rng(7)
    return [
        entries[0].features,
        entries[len(entries) // 2].features,
        entries[-1].features,
        rng.random(entries[0].features.shape[0]),
    ]
