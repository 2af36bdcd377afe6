"""The `classminer migrate` and `classminer search` subcommands."""

from __future__ import annotations

import argparse
import sqlite3

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.storage import (
    FeatureStore,
    SQLVideoDatabase,
    build_synthetic_database,
    catalog_path,
    features_path,
    save_database,
)
from tests.storage.test_id_blocks import _answers
from tests.storage.test_lazy_equivalence import stored_state


@pytest.fixture(scope="module")
def catalog_dir(tmp_path_factory):
    """A database directory holding a SQL catalog."""
    directory = tmp_path_factory.mktemp("cli-catalog")
    save_database(build_synthetic_database(videos=6, shots_per_video=4, seed=1), directory)
    return directory


class TestMigrateCommand:
    def test_migrate_rebuilds_from_artifacts(self, tmp_path, demo_result, capsys):
        from repro.ingest.jobs import IngestJob
        from repro.ingest.runner import store_for

        store_for(tmp_path).save(IngestJob.for_title("demo").key, demo_result)
        assert main(["migrate", "--db-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert catalog_path(tmp_path).exists()
        assert "migrated" in out and "from artifacts" in out
        assert "1 videos" in out

    @pytest.mark.parametrize("stamp", [3, 99])
    def test_migrate_rebuilds_a_catalog_this_build_refuses(
        self, tmp_path, demo_result, capsys, stamp
    ):
        from repro.ingest.jobs import IngestJob
        from repro.ingest.runner import store_for

        fresh, refused = tmp_path / "fresh", tmp_path / "refused"
        for db_dir in (fresh, refused):
            store_for(db_dir).save(IngestJob.for_title("demo").key, demo_result)
            assert main(["migrate", "--db-dir", str(db_dir)]) == 0
        # An older or newer writer's catalog, and a block only it names.
        conn = sqlite3.connect(catalog_path(refused))
        conn.execute(f"PRAGMA user_version = {stamp}")
        conn.close()
        FeatureStore(features_path(refused)).put(np.zeros((2, 3)))
        capsys.readouterr()
        assert main(["migrate", "--db-dir", str(refused)]) == 0
        assert "migrated" in capsys.readouterr().out
        assert stored_state(refused) == stored_state(fresh)
        answers = []
        for db_dir in (fresh, refused):
            database = SQLVideoDatabase.open(db_dir)
            try:
                probes = [entry.features for entry in database.flat_index.entries[::7]]
                answers.append(_answers(database, probes))
            finally:
                database.close()
        assert answers[0] == answers[1]

    def test_empty_dir_exits_nonzero(self, tmp_path, capsys):
        assert main(["migrate", "--db-dir", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestSearchCommand:
    def test_search_finds_migrated_metadata(self, catalog_dir, capsys):
        assert main(["search", "synthetic", "--db-dir", str(catalog_dir)]) == 0
        out = capsys.readouterr().out
        assert "search" in out
        assert "synthetic" in out

    def test_search_respects_k(self, catalog_dir, capsys):
        assert main(["search", "synthetic", "--db-dir", str(catalog_dir), "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("synthetic_") <= 4  # 2 rows, title + body columns

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_is_a_usage_error(self, catalog_dir, capsys, k):
        with pytest.raises(SystemExit) as exit_info:
            main(["search", "synthetic", "--db-dir", str(catalog_dir), "-k", k])
        assert exit_info.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    def test_no_matches_is_still_success(self, catalog_dir, capsys):
        assert main(["search", "xyzzy", "--db-dir", str(catalog_dir)]) == 0
        assert "no matches" in capsys.readouterr().out

    def test_missing_catalog_suggests_migrate(self, tmp_path, capsys):
        assert main(["search", "anything", "--db-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "classminer migrate" in err

    def test_flags_documented_in_help(self):
        parser = build_parser()
        sub = next(
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert "--db-dir" in sub.choices["migrate"].format_help()
        assert "--db-dir" in sub.choices["search"].format_help()
